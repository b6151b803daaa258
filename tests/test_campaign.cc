// Tests for the fault-injection campaign engine: determinism under
// parallelism, checkpoint/resume, counterexample shrinking, replay
// artifacts, chaos mode, invariant tripwires and the combinatorics
// underneath.
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "analysis/fault_enum.h"
#include "analysis/frame_oracle.h"
#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/json.h"
#include "noise/model.h"
#include "obs/metrics.h"

namespace eqc::analysis {
namespace {

using circuit::Circuit;
using pauli::Pauli;

// The Fig. 1 N-gate fault experiment on |1>_L (Steane, k = 1, paper noise).
FaultExperiment make_ngate_experiment() {
  return build_gadget_experiment(GadgetSpec{}).ex;
}

// A scratch file that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = ::testing::TempDir() + name;
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

// --- combinatorics ----------------------------------------------------------

TEST(Campaign, BinomialOrMaxMatchesSmallCases) {
  EXPECT_EQ(binomial_or_max(0, 0), 1u);
  EXPECT_EQ(binomial_or_max(5, 0), 1u);
  EXPECT_EQ(binomial_or_max(5, 6), 0u);
  EXPECT_EQ(binomial_or_max(5, 2), 10u);
  EXPECT_EQ(binomial_or_max(10, 3), 120u);
  EXPECT_EQ(binomial_or_max(52, 5), 2598960u);
  // Symmetric and saturating.
  EXPECT_EQ(binomial_or_max(60, 30), binomial_or_max(60, 30));
  EXPECT_EQ(binomial_or_max(1000, 500), UINT64_MAX);
}

TEST(Campaign, CombinationUnrankIsABijectionInColexOrder) {
  const std::uint64_t n = 7;
  const std::size_t k = 3;
  const std::uint64_t total = binomial_or_max(n, k);
  std::set<std::vector<std::uint32_t>> seen;
  std::vector<std::uint32_t> prev;
  for (std::uint64_t r = 0; r < total; ++r) {
    const auto combo = combination_unrank(r, n, k);
    ASSERT_EQ(combo.size(), k);
    // Strictly ascending members, all in range.
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_LT(combo[i], n);
      if (i > 0) {
        EXPECT_LT(combo[i - 1], combo[i]);
      }
    }
    // Colex order: ranks sort by reversed-member lexicographic order.
    if (!prev.empty()) {
      std::vector<std::uint32_t> a(prev.rbegin(), prev.rend());
      std::vector<std::uint32_t> b(combo.rbegin(), combo.rend());
      EXPECT_LT(a, b);
    }
    prev = combo;
    seen.insert(combo);
  }
  EXPECT_EQ(seen.size(), total);  // bijection
}

// --- determinism under parallelism ------------------------------------------

TEST(Campaign, ParallelReportIsByteIdenticalToSerial) {
  const auto ex = make_ngate_experiment();
  CampaignConfig cfg;
  cfg.mode = CampaignMode::KFault;
  cfg.k = 2;
  cfg.budget = 200;
  cfg.sample_seed = 7;

  cfg.jobs = 1;
  const auto serial = run_campaign(ex, cfg);
  cfg.jobs = 4;
  const auto parallel = run_campaign(ex, cfg);

  EXPECT_GT(serial.sets_tested, 0u);
  EXPECT_TRUE(serial.complete);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

// jobs = 0 means one worker per hardware thread, as in every Monte-Carlo
// driver; the report does not depend on it.
TEST(Campaign, JobsZeroReportIsByteIdenticalToOneWorker) {
  const auto ex = make_ngate_experiment();
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 300;
  cfg.sample_seed = 5;
  cfg.jobs = 1;
  const auto serial = run_campaign(ex, cfg);
  cfg.jobs = 0;
  const auto all_threads = run_campaign(ex, cfg);
  EXPECT_GT(serial.malignant, 0u);
  EXPECT_EQ(serial.to_json(), all_threads.to_json());
}

TEST(Campaign, ChaosModeIsDeterministicAcrossJobs) {
  const auto ex = make_ngate_experiment();
  CampaignConfig cfg;
  cfg.mode = CampaignMode::Chaos;
  cfg.budget = 150;
  cfg.chaos_model = noise::NoiseModel::paper_model(0.01);
  cfg.sample_seed = 21;
  cfg.shrink = false;  // chaos sets can be large; keep the test fast

  cfg.jobs = 1;
  const auto serial = run_campaign(ex, cfg);
  cfg.jobs = 3;
  const auto parallel = run_campaign(ex, cfg);

  EXPECT_EQ(serial.sets_tested, 150u);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

// Assigning a new failure predicate to a built gadget drops its closed-form
// frame oracle, so the frames campaign judges the override (through the
// generic per-lane oracle) instead of silently keeping the old verdicts.
TEST(Campaign, OverridingFailedDropsTheClosedFormOracle) {
  const BuiltGadget built = build_gadget_experiment(GadgetSpec{});
  FaultExperiment ex = built.ex;
  ASSERT_NE(ex.failed.frame_factory(), nullptr);
  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 0;
  cfg.jobs = 2;
  cfg.shrink = false;
  const auto own = run_campaign(ex, cfg);
  EXPECT_EQ(own.malignant, 0u);

  ex.failed = [out = built.ngate_out](circuit::TabBackend& b,
                                      const circuit::ExecResult&) {
    // Stricter than the majority vote: every copy of the output must read 1.
    for (const std::uint32_t q : out)
      if (!b.tableau().deterministic_z_value(q)) return true;
    return false;
  };
  EXPECT_EQ(ex.failed.frame_factory(), nullptr);
  EXPECT_NE(ex.failed, nullptr);
  obs::Counter& generic = obs::counter("campaign.generic_lanes");
  const std::uint64_t generic0 = generic.value();
  const auto overridden = run_campaign(ex, cfg);
  EXPECT_EQ(generic.value() - generic0, overridden.sets_tested);
  EXPECT_GT(overridden.malignant, 0u);
  // The per-trial engine judges the same predicate: same report.
  cfg.engine = "trials";
  EXPECT_EQ(run_campaign(ex, cfg).to_json(), overridden.to_json());
}

// Chaos mode samples the configured channel exactly: a biased_z model with
// z_bias = 0 plants only X/Y errors and z_bias = 1 only Z errors.
TEST(Campaign, ChaosModeHonoursZBias) {
  auto ex = make_ngate_experiment();
  ex.failed = [](circuit::TabBackend&, const circuit::ExecResult&) {
    return true;  // every faulty item is recorded with its faults
  };
  for (const double z_bias : {0.0, 1.0}) {
    CampaignConfig cfg;
    cfg.mode = CampaignMode::Chaos;
    cfg.budget = 60;
    cfg.chaos_model = noise::NoiseModel::biased_z(0.01, z_bias);
    cfg.shrink = false;
    const auto report = run_campaign(ex, cfg);
    std::size_t counts[4] = {0, 0, 0, 0};
    for (const auto& set : report.malignant_sets)
      for (const auto& f : set.faults)
        for (const std::size_t q : f.error.support())
          ++counts[static_cast<int>(f.error.get(q))];
    const std::size_t z = counts[static_cast<int>(Pauli::Z)];
    const std::size_t xy = counts[static_cast<int>(Pauli::X)] +
                           counts[static_cast<int>(Pauli::Y)];
    if (z_bias == 0.0) {
      EXPECT_EQ(z, 0u);
      EXPECT_GT(counts[static_cast<int>(Pauli::X)], 0u);
      EXPECT_GT(counts[static_cast<int>(Pauli::Y)], 0u);
    } else {
      EXPECT_EQ(xy, 0u);
      EXPECT_GT(z, 0u);
    }
  }
}

// --- checkpoint / resume ----------------------------------------------------

TEST(Campaign, CheckpointKillResumeReachesTheSameReport) {
  const auto ex = make_ngate_experiment();
  CampaignConfig cfg;
  cfg.mode = CampaignMode::KFault;
  cfg.k = 2;
  cfg.budget = 160;
  cfg.sample_seed = 11;
  cfg.jobs = 2;

  // Reference: one uninterrupted run (no checkpointing involved).
  const auto reference = run_campaign(ex, cfg);
  ASSERT_TRUE(reference.complete);

  // Killed run: stop after 50 items, then resume twice.
  TempFile ck("campaign_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 16;
  cfg.max_items_this_run = 50;
  const auto killed = run_campaign(ex, cfg);
  EXPECT_FALSE(killed.complete);
  EXPECT_LE(killed.sets_tested, 50u);

  cfg.resume = true;
  cfg.max_items_this_run = 60;
  const auto middle = run_campaign(ex, cfg);
  EXPECT_FALSE(middle.complete);
  EXPECT_GT(middle.sets_tested, killed.sets_tested);

  cfg.max_items_this_run = 0;  // run to completion
  const auto resumed = run_campaign(ex, cfg);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
}

TEST(Campaign, ResumeRejectsAMismatchedCheckpoint) {
  const auto ex = make_ngate_experiment();
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 40;
  cfg.jobs = 1;
  TempFile ck("campaign_mismatch_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.max_items_this_run = 10;
  (void)run_campaign(ex, cfg);

  cfg.resume = true;
  cfg.budget = 80;  // different campaign -> different fingerprint
  EXPECT_THROW((void)run_campaign(ex, cfg), ContractViolation);
}

// --- checkpoint robustness --------------------------------------------------

namespace {

std::string slurp_file(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void spit_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

// Produces a mid-campaign checkpoint file and the campaign config that
// wrote it (small: k=1 keeps items cheap and the malignant list empty).
CampaignConfig checkpointed_campaign(const FaultExperiment& ex,
                                     const std::string& path) {
  CampaignConfig cfg;
  cfg.mode = CampaignMode::KFault;
  cfg.k = 1;
  cfg.budget = 60;
  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 8;
  cfg.max_items_this_run = 30;
  const auto partial = run_campaign(ex, cfg);
  EXPECT_FALSE(partial.complete);
  cfg.max_items_this_run = 0;
  cfg.resume = true;
  return cfg;
}

}  // namespace

TEST(Campaign, CheckpointTruncatedAtEveryByteOffsetThrowsTheDistinctError) {
  const auto ex = make_ngate_experiment();
  TempFile ck("campaign_truncate_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string original = slurp_file(ck.path);
  ASSERT_FALSE(original.empty());

  // A strict prefix of a JSON document never parses, so every truncation
  // point must surface as CheckpointCorrupt — never a crash, never a
  // ContractViolation, never a silent wrong resume.
  for (std::size_t len = 0; len < original.size(); ++len) {
    spit_file(ck.path, original.substr(0, len));
    EXPECT_THROW((void)run_campaign(ex, cfg), CheckpointCorrupt)
        << "truncated at byte " << len;
  }
  spit_file(ck.path, original);
  const auto resumed = run_campaign(ex, cfg);
  EXPECT_TRUE(resumed.complete);
}

TEST(Campaign, CheckpointSingleByteCorruptionNeverCrashes) {
  const auto ex = make_ngate_experiment();
  TempFile ck("campaign_flip_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string original = slurp_file(ck.path);

  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    const std::size_t pos = rng.below(original.size());
    std::string damaged = original;
    damaged[pos] = static_cast<char>(rng.below(256));
    if (damaged == original) continue;
    spit_file(ck.path, damaged);
    std::remove((ck.path + ".corrupt").c_str());
    // Allowed outcomes: a report (the flip was harmless or quarantined
    // away under fresh_on_corrupt) or a ContractViolation (the flip
    // landed in the fingerprint, indistinguishable from a foreign
    // checkpoint).  Anything else is a bug.
    CampaignConfig tolerant = cfg;
    tolerant.fresh_on_corrupt = true;
    try {
      (void)run_campaign(ex, tolerant);
    } catch (const ContractViolation&) {
    }
  }
}

TEST(Campaign, CheckpointFingerprintNamesSingleZAndRefusesSchema3) {
  GadgetSpec spec;
  spec.scenario.noise = "biased-z";
  const auto ex = build_gadget_experiment(spec).ex;
  ASSERT_EQ(ex.model, FaultModel::SingleQubitZ);
  TempFile ck("campaign_single_z_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string original = slurp_file(ck.path);
  const json::Value doc = json::Value::parse(original);
  EXPECT_EQ(doc.at("fingerprint").at("fault_model").as_string(), "single-z");
  EXPECT_EQ(doc.at("schema_version").as_u64(), 4u);

  // A checkpoint written before the fault model was named correctly is an
  // older schema: refused as such, not reported as a foreign campaign.
  const std::string v4 = "\"schema_version\":4";
  const auto at = original.find(v4);
  ASSERT_NE(at, std::string::npos);
  std::string forged = original;
  forged.replace(at, v4.size(), "\"schema_version\":3");
  spit_file(ck.path, forged);
  EXPECT_THROW((void)run_campaign(ex, cfg), CheckpointCorrupt);

  spit_file(ck.path, original);
  EXPECT_TRUE(run_campaign(ex, cfg).complete);
}

TEST(Campaign, FreshOnCorruptQuarantinesAndReachesTheReferenceReport) {
  const auto ex = make_ngate_experiment();

  CampaignConfig clean;
  clean.mode = CampaignMode::KFault;
  clean.k = 1;
  clean.budget = 60;
  const auto reference = run_campaign(ex, clean);

  TempFile ck("campaign_fresh_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string original = slurp_file(ck.path);
  spit_file(ck.path, original.substr(0, original.size() / 2));

  // Without the fallback: the distinct error.
  EXPECT_THROW((void)run_campaign(ex, cfg), CheckpointCorrupt);

  // With it: quarantine + fresh start + the exact same final report
  // (determinism makes the fallback safe).
  cfg.fresh_on_corrupt = true;
  const auto recovered = run_campaign(ex, cfg);
  EXPECT_TRUE(recovered.complete);
  EXPECT_EQ(recovered.to_json(), reference.to_json());
  EXPECT_FALSE(slurp_file(ck.path + ".corrupt").empty());
  std::remove((ck.path + ".corrupt").c_str());
}

// --- shrinking and replay ---------------------------------------------------

TEST(Campaign, ShrunkMalignantSetsAreOneMinimalAndReplayable) {
  const auto ex = make_ngate_experiment();
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 300;
  cfg.sample_seed = 5;
  cfg.jobs = 4;
  const auto report = run_campaign(ex, cfg);
  ASSERT_GT(report.malignant, 0u) << "budget too small to find a pair";

  for (const auto& m : report.malignant_sets) {
    EXPECT_TRUE(m.minimal);
    // Replays to failure...
    EXPECT_TRUE(run_with_faults(ex, m.faults));
    // ...and removing ANY single fault no longer fails (1-minimality).
    for (std::size_t drop = 0; drop < m.faults.size(); ++drop) {
      std::vector<Fault> fewer;
      for (std::size_t i = 0; i < m.faults.size(); ++i)
        if (i != drop) fewer.push_back(m.faults[i]);
      if (fewer.empty()) continue;
      EXPECT_FALSE(run_with_faults(ex, fewer));
    }
  }
}

TEST(Campaign, ReplayArtifactRoundTripsThroughJson) {
  const auto ex = make_ngate_experiment();
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 300;
  cfg.sample_seed = 5;
  cfg.jobs = 4;
  const auto report = run_campaign(ex, cfg);
  ASSERT_GT(report.malignant, 0u);

  const auto sets = parse_fault_sets(report.to_json(), ex.num_qubits);
  ASSERT_EQ(sets.size(), report.malignant_sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ASSERT_EQ(sets[i].size(), report.malignant_sets[i].faults.size());
    for (std::size_t j = 0; j < sets[i].size(); ++j) {
      EXPECT_EQ(sets[i][j].ordinal, report.malignant_sets[i].faults[j].ordinal);
      EXPECT_EQ(sets[i][j].error.to_string(),
                report.malignant_sets[i].faults[j].error.to_string());
    }
    EXPECT_TRUE(run_with_faults(ex, sets[i]));
  }
}

// --- exhaustive campaigns ---------------------------------------------------

TEST(Campaign, ExhaustiveSingleFaultCampaignMatchesPerTrialReplay) {
  GadgetSpec spec;
  spec.scenario.repetition_k = 0;  // one repetition: NOT fault tolerant
  const auto ex = build_gadget_experiment(spec).ex;
  // The per-trial reference: every single fault replayed on its own.
  std::vector<std::size_t> failing;
  const auto faults = enumerate_single_faults(ex);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (run_with_faults(ex, {faults[i]})) failing.push_back(i);
  ASSERT_FALSE(failing.empty());

  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 0;  // exhaustive
  cfg.jobs = 4;
  cfg.shrink = false;
  const auto report = run_campaign(ex, cfg);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.sets_tested, faults.size());
  EXPECT_EQ(report.malignant, failing.size());
  ASSERT_EQ(report.malignant_sets.size(), failing.size());
  for (std::size_t i = 0; i < failing.size(); ++i) {
    const auto& m = report.malignant_sets[i];
    EXPECT_EQ(m.index, failing[i]);  // k = 1: stream position = fault index
    ASSERT_EQ(m.faults.size(), 1u);
    EXPECT_EQ(m.faults[0].ordinal, faults[failing[i]].ordinal);
    EXPECT_EQ(m.faults[0].error.to_string(),
              faults[failing[i]].error.to_string());
  }
}

TEST(Campaign, ExhaustivePairCampaignSkipsSameSiteCollisions) {
  // A tiny universe where C(n, 2) is fully enumerable: the campaign must
  // test exactly the pairs on DISTINCT sites (same-site ranks skipped).
  FaultExperiment ex;
  ex.num_qubits = 3;
  ex.prep = Circuit(3);
  ex.gadget = Circuit(3);
  ex.gadget.h(0).cnot(0, 1).cnot(1, 2).h(2);
  ex.failed = [](circuit::TabBackend&, const circuit::ExecResult&) {
    return false;
  };

  const auto faults = enumerate_single_faults(ex);
  const std::uint64_t n = faults.size();
  std::uint64_t same_site = 0;
  for (std::uint64_t i = 0; i < n;) {
    std::uint64_t j = i;
    while (j < n && faults[j].ordinal == faults[i].ordinal) ++j;
    const std::uint64_t m = j - i;
    same_site += m * (m - 1) / 2;
    i = j;
  }
  const std::uint64_t valid = n * (n - 1) / 2 - same_site;

  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 0;  // exhaustive over C(n, 2) ranks
  cfg.jobs = 2;
  cfg.shrink = false;
  const auto report = run_campaign(ex, cfg);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_EQ(report.sets_tested, valid);  // same-site pairs skipped, not counted
}

// --- tripwires --------------------------------------------------------------

TEST(Campaign, BudgetCoveringEveryValidPairIsExhaustive) {
  // A universe small enough that the budget exceeds the number of DISTINCT
  // different-site pairs but not the number of ranks C(n, 2): the campaign
  // must sweep every valid pair once and say so, not resample duplicates.
  FaultExperiment ex;
  ex.num_qubits = 2;
  ex.prep = Circuit(2);
  ex.gadget = Circuit(2);
  ex.gadget.h(0).cnot(0, 1);
  ex.failed = [](circuit::TabBackend&, const circuit::ExecResult&) {
    return false;
  };
  const auto faults = enumerate_single_faults(ex);
  ASSERT_EQ(faults.size(), 9u);  // 3 on the H site, 6 on the CNOT site
  const std::uint64_t valid = 18;  // 3 * 6
  ASSERT_LT(valid, binomial_or_max(faults.size(), 2));

  // The valid-set count is the elementary symmetric sum of the per-site
  // fault counts, saturating instead of wrapping.
  EXPECT_EQ(valid_fault_set_count({3, 6}, 1), 9u);
  EXPECT_EQ(valid_fault_set_count({3, 6}, 2), valid);
  EXPECT_EQ(valid_fault_set_count({3, 6}, 3), 0u);  // only two sites
  EXPECT_EQ(valid_fault_set_count({1, 2, 3, 4}, 3), 6u + 8 + 12 + 24);
  const std::vector<std::uint64_t> huge(64, std::uint64_t{1} << 20);
  EXPECT_EQ(valid_fault_set_count(huge, 4), UINT64_MAX);

  CampaignConfig cfg;
  cfg.k = 2;
  cfg.shrink = false;
  for (const std::uint64_t budget : {valid, std::uint64_t{27}}) {
    cfg.budget = budget;
    const auto report = run_campaign(ex, cfg);
    EXPECT_EQ(report.sets_tested, valid) << "budget " << budget;
    EXPECT_TRUE(report.exhaustive) << "budget " << budget;
  }
  // One short of the universe still samples.
  cfg.budget = valid - 1;
  const auto sampled = run_campaign(ex, cfg);
  EXPECT_EQ(sampled.sets_tested, valid - 1);
  EXPECT_FALSE(sampled.exhaustive);
}

TEST(Campaign, TripwireAttributesTheFirstCodespaceViolation) {
  const BuiltGadget built = build_gadget_experiment(GadgetSpec{});
  const auto& ex = built.ex;

  TripwireOptions tripwire;
  tripwire.violated = [block = built.main_block,
                       code = built.code](circuit::TabBackend& b) {
    return !code->block_in_codespace(b.tableau(), block);
  };
  tripwire.probe_after = calibrate_probe_sites(ex, tripwire.violated);
  ASSERT_FALSE(tripwire.probe_after.empty());

  // Fault-free, a calibrated tripwire never trips.
  {
    const auto clean = run_with_faults_probed(ex, {}, tripwire);
    EXPECT_FALSE(clean.failed);
    EXPECT_FALSE(clean.tripped);
  }

  // Find a malignant pair, then replay it under the tripwire.
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 300;
  cfg.sample_seed = 5;
  cfg.jobs = 4;
  cfg.tripwire = tripwire;
  const auto report = run_campaign(ex, cfg);
  ASSERT_GT(report.malignant, 0u);

  std::size_t tripped = 0;
  for (const auto& m : report.malignant_sets) {
    if (!m.tripped) continue;
    ++tripped;
    // The trip site is a calibrated probe point, at or after the first
    // injected fault (the prefix before it is identical to the fault-free
    // run, which holds the invariant at every probe point).
    EXPECT_TRUE(std::binary_search(tripwire.probe_after.begin(),
                                   tripwire.probe_after.end(),
                                   m.trip_ordinal));
    std::size_t first_fault = m.faults.front().ordinal;
    for (const auto& f : m.faults)
      first_fault = std::min(first_fault, f.ordinal);
    EXPECT_GE(m.trip_ordinal, first_fault);
  }
  EXPECT_GT(tripped, 0u) << "no malignant set tripped the codespace probe";
}

// --- config validation ------------------------------------------------------

TEST(Campaign, RejectsMisconfiguredCampaigns) {
  const auto ex = make_ngate_experiment();
  CampaignConfig cfg;
  cfg.k = 0;
  EXPECT_THROW((void)run_campaign(ex, cfg), ContractViolation);

  CampaignConfig chaos;
  chaos.mode = CampaignMode::Chaos;
  chaos.budget = 0;  // chaos needs a trial count
  EXPECT_THROW((void)run_campaign(ex, chaos), ContractViolation);
}

TEST(Campaign, Rm15RecoverySampledSingleFaultsAreBenign) {
  // Regression: the ancilla burst repair used a single-position one-hot
  // decode, which only covers the syndrome space of a PERFECT code; RM15
  // encoder bursts with unmatched syndromes survived it and landed on the
  // data as uncorrectable X bursts through the control-direction
  // transversal CNOT.  With the information-set repair every sampled
  // single fault must be benign.
  GadgetSpec spec;
  spec.gadget = "recovery";
  spec.scenario.code = "rm15";
  spec.scenario.repetition_k = 1;
  spec.seed = 7;
  const auto built = build_gadget_experiment(spec);

  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 300;
  cfg.jobs = 4;
  cfg.sample_seed = 33;
  cfg.shrink = false;
  const auto report = run_campaign(built.ex, cfg);
  EXPECT_EQ(report.sets_tested, 300u);
  EXPECT_EQ(report.malignant, 0u);
}

// --- frames engine vs the per-trial reference -------------------------------

// Runs `cfg` to completion in legs of at most `max_items` items, resuming
// from the checkpoint at `path` (absent at the start) between legs: a
// kill/resume cycle per leg.
CampaignReport run_in_legs(const FaultExperiment& ex, CampaignConfig cfg,
                           std::uint64_t max_items, const std::string& path) {
  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 16;
  cfg.max_items_this_run = max_items;
  CampaignReport report;
  for (int leg = 0; leg < 1000; ++leg) {
    report = run_campaign(ex, cfg);
    cfg.resume = true;
    if (report.complete) break;
  }
  return report;
}

struct EngineCase {
  std::string gadget;
  std::string code;
};

void PrintTo(const EngineCase& c, std::ostream* os) {
  *os << c.gadget << "/" << c.code;
}

class CampaignEngines : public ::testing::TestWithParam<EngineCase> {};

// The batched frames engine reproduces the per-trial reference report byte
// for byte — k = 1 and k = 2 sampled sets (shrink on), and chaos at a p
// where most items carry faults — and so does every frames run with 4
// workers or cut into kill/resume legs of 100 items (not a multiple of 64,
// so legs end mid-batch).  Two shards keep the batches large.
TEST_P(CampaignEngines, FramesReportIsByteIdenticalToTrials) {
  GadgetSpec spec;
  spec.gadget = GetParam().gadget;
  spec.scenario.code = GetParam().code;
  spec.seed = 5;
  const BuiltGadget built = build_gadget_experiment(spec);
  const FaultExperiment& ex = built.ex;
  const double sites =
      static_cast<double>(circuit::enumerate_fault_sites(ex.gadget).size());

  std::vector<CampaignConfig> modes(3);
  modes[0].k = 1;
  modes[0].budget = 110;
  modes[1].k = 2;
  modes[1].budget = 120;
  modes[2].mode = CampaignMode::Chaos;
  modes[2].budget = 110;
  // Two expected faults per trial: ~86% of chaos items carry faults.
  modes[2].chaos_model = scenario_noise_model(spec.scenario, 2.0 / sites);
  std::uint64_t malignant = 0;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    CampaignConfig cfg = modes[m];
    cfg.sample_seed = 40 + m;
    cfg.num_shards = 2;
    cfg.jobs = 4;
    cfg.engine = "trials";
    const CampaignReport trials = run_campaign(ex, cfg);
    ASSERT_TRUE(trials.complete);
    malignant += trials.malignant;
    const std::string want = trials.to_json();
    const std::string where = spec.gadget + "/" + spec.scenario.code +
                              " mode " + std::to_string(m);

    cfg.engine = "frames";
    cfg.jobs = 1;
    EXPECT_EQ(run_campaign(ex, cfg).to_json(), want) << where << " jobs 1";
    cfg.jobs = 4;
    EXPECT_EQ(run_campaign(ex, cfg).to_json(), want) << where << " jobs 4";
    TempFile ck("campaign_engines_" + spec.gadget + "_" + spec.scenario.code +
                "_ck.json");
    EXPECT_EQ(run_in_legs(ex, cfg, 100, ck.path).to_json(), want)
        << where << " kill/resume";
  }
  // Not vacuous: the k = 2 and chaos modes find malignant sets to shrink.
  EXPECT_GT(malignant, 0u) << spec.gadget << "/" << spec.scenario.code;
}

INSTANTIATE_TEST_SUITE_P(
    NamedGadgets, CampaignEngines,
    ::testing::Values(EngineCase{"ngate", "steane"},
                      EngineCase{"ngate", "rm15"},
                      EngineCase{"recovery", "steane"},
                      EngineCase{"recovery", "rm15"},
                      EngineCase{"recovery-measured", "steane"},
                      EngineCase{"recovery-measured", "rm15"}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      std::string name = info.param.gadget + "_" + info.param.code;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// The closed-form word oracle against run_with_faults on the Fig. 1 N gate:
// every single fault, and 2,048 sampled pairs on distinct sites, 64 lanes
// per planted batch.
TEST(CampaignFrames, WordVerdictMatchesRunWithFaultsOnFig1) {
  GadgetSpec spec;
  spec.gadget = "ngate";
  const BuiltGadget built = build_gadget_experiment(spec);
  const FaultExperiment& ex = built.ex;
  const frame::FrameProgram prog = make_frame_program(ex);
  const frame::BatchOracle oracle = ex.failed.frame_factory()(prog);
  ASSERT_FALSE(is_generic_frame_oracle(oracle));
  const auto faults = enumerate_single_faults(ex);
  ASSERT_EQ(faults.size(), 2007u);

  std::vector<std::vector<Fault>> sets;
  for (const auto& f : faults) sets.push_back({f});
  Rng rng(13);
  while (sets.size() < faults.size() + 2048) {
    const Fault& a = faults[rng.below(faults.size())];
    const Fault& b = faults[rng.below(faults.size())];
    if (a.ordinal != b.ordinal) sets.push_back({a, b});
  }

  std::size_t malignant_pairs = 0;
  frame::FrameBatch batch(prog);
  for (std::size_t first = 0; first < sets.size(); first += 64) {
    const std::size_t count = std::min<std::size_t>(64, sets.size() - first);
    std::vector<std::vector<frame::PlantedFault>> lanes(count);
    for (std::size_t l = 0; l < count; ++l)
      for (const auto& f : sets[first + l])
        lanes[l].push_back(frame::PlantedFault{f.ordinal, f.error});
    batch.run_planted(lanes);
    const std::uint64_t word = oracle(batch);
    for (std::size_t l = 0; l < count; ++l) {
      const bool want = run_with_faults(ex, sets[first + l]);
      ASSERT_EQ(((word >> l) & 1) != 0, want) << "set " << first + l;
      if (want && sets[first + l].size() == 2) ++malignant_pairs;
    }
  }
  EXPECT_GT(malignant_pairs, 0u);  // the pair half is not vacuous
}

// Deterministic work counters of the frames engine: 4,096 sampled single
// faults on the Sec. 5 gadget over 16 shards are 256 items per shard, i.e.
// 4 full batches each — 64 tape passes, every lane judged by the closed
// form, nothing sent per-trial.  The universe stays an index: a benign
// chunk builds no full-width Fault, and the one compiled tape holds one
// instruction per gate plus one per run of sites (36,297 sites).
TEST(CampaignFrames, WorkCountersOnSec5SingleFaults) {
  GadgetSpec spec;
  spec.gadget = "recovery";
  const BuiltGadget built = build_gadget_experiment(spec);
  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 4096;
  cfg.num_shards = 16;
  cfg.jobs = 4;
  cfg.shrink = false;

  obs::Counter& lanes = obs::counter("campaign.frame_lanes");
  obs::Counter& generic = obs::counter("campaign.generic_lanes");
  obs::Counter& fallbacks = obs::counter("campaign.frame_fallbacks");
  obs::Counter& batches =
      obs::counter("campaign.frame_batches", obs::Det::Runtime);
  obs::Counter& materialized = obs::counter("campaign.faults_materialized");
  obs::Counter& tape = obs::counter("frame.tape_instructions");
  const std::uint64_t lanes0 = lanes.value(), generic0 = generic.value(),
                      fallbacks0 = fallbacks.value(),
                      batches0 = batches.value(),
                      materialized0 = materialized.value(),
                      tape0 = tape.value();
  const CampaignReport report = run_campaign(built.ex, cfg);
  const std::uint64_t tape_run = tape.value() - tape0;
  EXPECT_EQ(report.sets_tested, 4096u);
  EXPECT_EQ(report.malignant, 0u);
  EXPECT_EQ(lanes.value() - lanes0, 4096u);
  EXPECT_EQ(generic.value() - generic0, 0u);
  EXPECT_EQ(fallbacks.value() - fallbacks0, 0u);
  EXPECT_EQ(batches.value() - batches0, 64u);
  EXPECT_EQ(materialized.value() - materialized0, 0u);
  EXPECT_EQ(tape_run, make_frame_program(built.ex).num_instructions());
  EXPECT_LE(tape_run, 3400u);
}

// A malignant set is reported in full-width form: materialized once per
// fault of every reported set (before shrinking), and nowhere else.
TEST(CampaignFrames, FaultsAreMaterializedOnlyForReportedSets) {
  const auto ex = make_ngate_experiment();
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 500;
  cfg.jobs = 2;
  obs::Counter& materialized = obs::counter("campaign.faults_materialized");
  const std::uint64_t before = materialized.value();
  const CampaignReport report = run_campaign(ex, cfg);
  ASSERT_GT(report.malignant, 0u);
  EXPECT_EQ(materialized.value() - before, 2 * report.malignant);
}

// The paper's Sec. 5 claim (ii), checked exhaustively: no single fault —
// any Pauli on one qubit of any of the gadget's 36,297 sites — causes a
// logical error.
TEST(CampaignFrames, Sec5RecoveryExhaustiveSingleFaultsAreBenign) {
  GadgetSpec spec;
  spec.gadget = "recovery";
  const BuiltGadget built = build_gadget_experiment(spec);
  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 0;
  cfg.jobs = 4;
  const CampaignReport report = run_campaign(built.ex, cfg);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_EQ(report.sets_tested, 113355u);
  EXPECT_EQ(report.malignant, 0u);
}

// The paper's Fig. 3 and Fig. 4 claim, checked exhaustively on inputs the
// tableau can run: no single fault in the T gadget (every Z-basis branch)
// or in the coded Toffoli (x = y = |1>_L, z = |+>_L, so every correction
// fires) causes a logical error.
TEST(CampaignFrames, TgateAndToffoliExhaustiveSingleFaultsAreBenign) {
  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 0;
  cfg.jobs = 4;
  for (unsigned branch = 0; branch < kTgateBranches; ++branch) {
    const CampaignReport report =
        run_campaign(build_tgate_experiment(branch), cfg);
    EXPECT_TRUE(report.exhaustive) << "T branch " << branch;
    EXPECT_EQ(report.sets_tested, 2895u) << "T branch " << branch;
    EXPECT_EQ(report.malignant, 0u) << "T branch " << branch;
  }
  const CampaignReport toffoli = run_campaign(build_toffoli_experiment(3), cfg);
  EXPECT_TRUE(toffoli.exhaustive);
  EXPECT_EQ(toffoli.sets_tested, 25554u);
  EXPECT_EQ(toffoli.malignant, 0u);
}

}  // namespace
}  // namespace eqc::analysis
