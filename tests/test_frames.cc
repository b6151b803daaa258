// Frame-vs-trial bit-exactness suite.
//
// The frame engine's contract is not statistical agreement but BYTE
// IDENTITY: for every (gadget, code, repetition, seed) configuration the
// 64-lane frame driver must fold exactly the same FailureCounter — and
// therefore exactly the same report JSON — as the per-trial TabBackend
// driver, for any jobs value and across any checkpoint/resume split.
// These tests pin that contract, cross-check the word-level failure
// oracle against the per-lane generic one, verify the packed frame
// planes against PauliString conjugation gate by gate, and prove the
// differential layer can actually see a planted propagation bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "analysis/fault_enum.h"
#include "analysis/frame_oracle.h"
#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
#include "common/rng.h"
#include "common/stats.h"
#include "frame/driver.h"
#include "frame/frames.h"
#include "ftqc/ft_tgate.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"
#include "obs/metrics.h"
#include "pauli/pauli_string.h"

namespace eqc {
namespace {

using analysis::BuiltGadget;
using analysis::FaultExperiment;
using analysis::GadgetSpec;
using circuit::Circuit;
using circuit::TabBackend;
using pauli::Pauli;
using pauli::PauliString;

// The canonical per-trial Monte-Carlo lambda — the reference every frame
// run, and so analysis::run_mc, must reproduce bit for bit.
FailureCounter per_trial_counter(const FaultExperiment& ex,
                                 const noise::NoiseModel& model,
                                 std::uint64_t trials, std::uint64_t seed,
                                 unsigned jobs = 1) {
  return noise::run_trials_indexed(
      trials, seed,
      [&ex, model](std::uint64_t, Rng& rng) {
        TabBackend backend(ex.num_qubits, rng.split());
        circuit::execute(ex.prep, backend);
        noise::StochasticInjector injector(model, rng.split());
        const auto r = circuit::execute(ex.gadget, backend, &injector);
        return ex.failed(backend, r);
      },
      jobs);
}

// The named-gadget MC entry point every caller uses (matrix cells, serve
// MC jobs, eqc_faultscan --mc).
FailureCounter frame_counter(const std::string& gadget,
                             const BuiltGadget& built,
                             const noise::NoiseModel& model,
                             std::uint64_t trials, std::uint64_t seed,
                             unsigned jobs = 1) {
  noise::McResumableOptions opt;
  opt.jobs = jobs;
  const noise::McRunResult r =
      analysis::run_mc(gadget, built, model, trials, seed, opt);
  EXPECT_TRUE(r.complete);
  return r.counter;
}

void expect_byte_identical(const FailureCounter& want,
                           const FailureCounter& got,
                           const std::string& label) {
  EXPECT_EQ(want.trials, got.trials) << label;
  EXPECT_EQ(want.failures, got.failures) << label;
  EXPECT_EQ(want.stopped_early, got.stopped_early) << label;
  EXPECT_EQ(want.to_json_value().dump(), got.to_json_value().dump()) << label;
}

// --- the named-gadget equivalence grid -------------------------------------

// Every named gadget x {steane, rm15} x k in {1, 2}: the frame driver's
// counter and its JSON serialization are byte-identical to the per-trial
// driver's, on a pinned seed, under the paper noise model.
TEST(FrameEquiv, NamedGadgetGridBitExact) {
  const std::uint64_t kTrials = 192;
  std::uint64_t seed = 40;
  for (const std::string gadget : {"ngate", "recovery", "recovery-measured"}) {
    for (const std::string code : {"steane", "rm15"}) {
      for (int k : {1, 2}) {
        GadgetSpec spec;
        spec.gadget = gadget;
        spec.scenario.code = code;
        spec.scenario.repetition_k = k;
        spec.seed = ++seed;
        const BuiltGadget built = analysis::build_gadget_experiment(spec);
        const auto model =
            analysis::scenario_noise_model(spec.scenario, 2e-3);
        const std::string label = gadget + "/" + code + "/k=" +
                                  std::to_string(k);
        const auto trials =
            per_trial_counter(built.ex, model, kTrials, spec.seed, 4);
        const auto frames =
            frame_counter(gadget, built, model, kTrials, spec.seed, 4);
        expect_byte_identical(trials, frames, label);
      }
    }
  }
}

// run_mc has no per-trial fallback, so it must never meet FrameUnsupported
// on a named gadget.  Every gadget x code x k x noise scenario runs at
// p = 0.1, where most lanes carry several faults and classically
// controlled corrections see deviating controls, and must complete.
TEST(FrameEquiv, RunMcNeverThrowsFrameUnsupportedOnNamedGadgets) {
  const std::uint64_t kTrials = 256;
  std::uint64_t seed = 80;
  for (const std::string gadget : {"ngate", "recovery", "recovery-measured"}) {
    for (const std::string code : {"steane", "rm15"}) {
      for (int k : {1, 2}) {
        for (const std::string noise : {"paper", "correlated", "biased-z"}) {
          GadgetSpec spec;
          spec.gadget = gadget;
          spec.scenario.code = code;
          spec.scenario.repetition_k = k;
          spec.scenario.noise = noise;
          spec.seed = ++seed;
          const BuiltGadget built = analysis::build_gadget_experiment(spec);
          const std::string label = gadget + "/" + code + "/k=" +
                                    std::to_string(k) + "/" + noise;
          noise::McResumableOptions opt;
          opt.jobs = 2;
          noise::McRunResult r;
          EXPECT_NO_THROW(
              r = analysis::run_mc(
                  gadget, built,
                  analysis::scenario_noise_model(spec.scenario, 0.1), kTrials,
                  spec.seed, opt))
              << label;
          EXPECT_TRUE(r.complete) << label;
          EXPECT_EQ(r.counter.trials, kTrials) << label;
        }
      }
    }
  }
}

// Mixed per-kind scales (including a disabled kind) drive the sampler's
// thinning path — a keep test at candidate sites whose kind is below
// p_max — through both engines, which must still agree byte for byte.
TEST(FrameEquiv, MixedKindScalesBitExact) {
  std::uint64_t seed = 60;
  std::uint64_t failures = 0;
  for (const std::string gadget : {"ngate", "recovery"}) {
    for (const std::string noise : {"paper", "biased-z", "correlated"}) {
      GadgetSpec spec;
      spec.gadget = gadget;
      spec.scenario.noise = noise;
      spec.seed = ++seed;
      const BuiltGadget built = analysis::build_gadget_experiment(spec);
      auto model = analysis::scenario_noise_model(spec.scenario, 2e-3);
      model.prep_scale = 0.5;
      model.gate_scale = 1.0;
      model.measure_scale = 4.0;
      model.idle_scale = 0.0;
      const std::uint64_t kTrials = gadget == "ngate" ? 256 : 128;
      const auto trials =
          per_trial_counter(built.ex, model, kTrials, spec.seed, 4);
      const auto frames =
          frame_counter(gadget, built, model, kTrials, spec.seed, 4);
      expect_byte_identical(trials, frames, gadget + "/" + noise);
      failures += frames.failures;
    }
  }
  EXPECT_GT(failures, 0u);  // non-vacuous
}

// noise.draws — injector-stream variates, flushed once per trial or block —
// is the same for both engines and any jobs value over the same trials,
// and shows the per-fault (not per-site) cost: ~2.7 draws per N-gate
// trial at p = 1e-3 (555 sites) and ~2.1 per Sec. 5 recovery trial at
// p = 1e-5 (36,297 sites).
TEST(FrameEquiv, NoiseDrawsCounterMatchesAcrossEnginesAndJobs) {
  obs::Counter& draws = noise::draws_counter();
  auto measure = [&draws](const auto& run) {
    const std::uint64_t before = draws.value();
    run();
    return draws.value() - before;
  };

  GadgetSpec spec;  // ngate / steane / k = 1
  spec.seed = 5;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  const auto model = noise::NoiseModel::paper_model(1e-3);
  const std::uint64_t kTrials = 2048;
  const auto t1 = measure(
      [&] { per_trial_counter(built.ex, model, kTrials, spec.seed, 1); });
  const auto t4 = measure(
      [&] { per_trial_counter(built.ex, model, kTrials, spec.seed, 4); });
  const auto f1 = measure(
      [&] { frame_counter("ngate", built, model, kTrials, spec.seed, 1); });
  const auto f4 = measure(
      [&] { frame_counter("ngate", built, model, kTrials, spec.seed, 4); });
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, f1);
  EXPECT_EQ(t1, f4);
  const double per_trial = static_cast<double>(t1) / kTrials;
  EXPECT_GT(per_trial, 2.4);
  EXPECT_LT(per_trial, 3.0);

  GadgetSpec sec5;
  sec5.gadget = "recovery";
  sec5.seed = 6;
  const BuiltGadget rec = analysis::build_gadget_experiment(sec5);
  const auto low = noise::NoiseModel::paper_model(1e-5);
  const auto rt = measure(
      [&] { per_trial_counter(rec.ex, low, 64, sec5.seed, 4); });
  const auto rf = measure(
      [&] { frame_counter("recovery", rec, low, 64, sec5.seed, 1); });
  EXPECT_EQ(rt, rf);
  const std::uint64_t kSec5Trials = 8192;
  const auto many = measure([&] {
    frame_counter("recovery", rec, low, kSec5Trials, sec5.seed, 4);
  });
  const double sec5_per_trial = static_cast<double>(many) / kSec5Trials;
  EXPECT_GT(sec5_per_trial, 1.9);
  EXPECT_LT(sec5_per_trial, 2.3);
}

// The per-trial engine's Stable work counters — circuit.plans_built (one
// per circuit revision) and the tableau.* ops each TabBackend flushes once
// — are a pure function of the trials run: byte-identical at --jobs 1 and
// --jobs 4.  An N-gate MC run plans its two circuits (prep, gadget) once
// each, however many trials and threads execute them.
TEST(MonteCarloCounters, PlanAndTableauCountersAreIdenticalAcrossJobs) {
  const char* kNames[] = {"circuit.plans_built", "tableau.gates",
                          "tableau.measurements_random",
                          "tableau.measurements_deterministic", "noise.draws"};
  const std::uint64_t kTrials = 2048;
  auto run = [&](unsigned jobs) {
    // Fresh, never-executed circuits, so the run builds their plans.
    const BuiltGadget built = analysis::build_gadget_experiment(GadgetSpec{});
    std::vector<std::uint64_t> before;
    for (const char* name : kNames)
      before.push_back(obs::counter(name).value());
    per_trial_counter(built.ex, noise::NoiseModel::paper_model(1e-3), kTrials,
                      5, jobs);
    std::string out;
    for (std::size_t i = 0; i < std::size(kNames); ++i)
      out += std::string(kNames[i]) + "=" +
             std::to_string(obs::counter(kNames[i]).value() - before[i]) +
             "\n";
    return out;
  };
  const std::string j1 = run(1);
  EXPECT_EQ(j1, run(4));
  EXPECT_NE(j1.find("circuit.plans_built=2\n"), std::string::npos) << j1;
  // 25 ancilla resets per trial, all deterministic (the N gate measures
  // nothing at random); gates include the lowered CCXs that fired.
  EXPECT_NE(j1.find("tableau.measurements_deterministic=" +
                    std::to_string(25 * kTrials) + "\n"),
            std::string::npos)
      << j1;
  EXPECT_EQ(j1.find("tableau.gates=0\n"), std::string::npos) << j1;
}

// The work counters of the frame tape and the campaign's index-only fault
// universe: frame MC plus a pair campaign that reports malignant sets.
TEST(MonteCarloCounters, TapeAndMaterializationCountersAreIdenticalAcrossJobs) {
  const char* kNames[] = {"frame.tape_instructions",
                          "campaign.faults_materialized"};
  const BuiltGadget built = analysis::build_gadget_experiment(GadgetSpec{});
  const std::size_t tape = analysis::make_frame_program(built.ex)
                               .num_instructions();
  auto run = [&](unsigned jobs) {
    std::vector<std::uint64_t> before;
    for (const char* name : kNames)
      before.push_back(obs::counter(name).value());
    frame_counter("ngate", built, noise::NoiseModel::paper_model(1e-3), 2048,
                  5, jobs);
    analysis::CampaignConfig cfg;
    cfg.k = 2;
    cfg.budget = 300;
    cfg.jobs = jobs;
    const auto report = analysis::run_campaign(built.ex, cfg);
    EXPECT_GT(report.malignant, 0u);
    std::string out;
    for (std::size_t i = 0; i < std::size(kNames); ++i)
      out += std::string(kNames[i]) + "=" +
             std::to_string(obs::counter(kNames[i]).value() - before[i]) +
             "\n";
    return out;
  };
  const std::string j1 = run(1);
  EXPECT_EQ(j1, run(4));
  // Two compiled programs (run_mc and the campaign), each one tape.
  EXPECT_NE(j1.find("frame.tape_instructions=" + std::to_string(2 * tape) +
                    "\n"),
            std::string::npos)
      << j1;
  EXPECT_EQ(j1.find("campaign.faults_materialized=0\n"), std::string::npos)
      << j1;
}

// Stream-version gate.  Every Monte-Carlo count in the repository is a
// function of the injector-stream layout (noise::kNoiseStreamVersion); a
// change to it must bump the version and re-pin this golden, never slip
// in as a silent re-seed.
TEST(FrameEquiv, NoiseStreamV2Golden) {
  static_assert(noise::kNoiseStreamVersion == 2);
  GadgetSpec spec;  // ngate / steane / k = 1
  spec.seed = 2024;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  const auto model = noise::NoiseModel::paper_model(5e-3);
  const std::uint64_t kTrials = 4096;
  const auto trials = per_trial_counter(built.ex, model, kTrials, spec.seed, 4);
  const auto frames =
      frame_counter("ngate", built, model, kTrials, spec.seed, 4);
  expect_byte_identical(trials, frames, "v2 golden");
  EXPECT_EQ(frames.trials, kTrials);
  EXPECT_EQ(frames.failures, 487u) << "re-pin only with a stream-version bump";
}

// The backend RNG stream contract: a lane's post-run RNG state equals the
// per-trial backend's, so predicates that keep drawing from it (and
// predicates reading the measurement record) still agree bit for bit.
// The circuit mixes random and deterministic measurements and resets —
// every case of the frame interpreter's draw-accounting.
TEST(FrameEquiv, BackendRngStreamBitExact) {
  FaultExperiment ex;
  ex.num_qubits = 4;
  ex.seed = 11;
  Circuit prep(4);
  ex.prep = prep;
  Circuit g(4);
  g.h(1);
  g.measure_z(1);        // random: one bernoulli draw
  g.cnot(1, 2);
  g.measure_z(2);        // deterministic: no draw
  g.prep_z(1);           // deterministic reset (q1 collapsed)
  g.prep_x(3);           // deterministic reset + H
  g.h(3);
  g.measure_z(3);        // deterministic again after H H = I
  ex.gadget = g;
  ex.failed = [](TabBackend& b, const circuit::ExecResult& r) {
    // Draw from the post-run backend stream — only matches when the frame
    // engine consumed exactly the same number of draws per lane.
    const bool coin = b.rng().bernoulli(0.5);
    return coin ^ r.cbits[0] ^ r.cbits[1];
  };

  const auto model = noise::NoiseModel::paper_model(0.05);
  const frame::FrameProgram prog = analysis::make_frame_program(ex);
  const auto oracle = analysis::make_generic_frame_oracle(ex, prog);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto want = per_trial_counter(ex, model, 512, seed);
    const auto got = frame::run_trials(prog, model, 512, seed, oracle);
    expect_byte_identical(want, got, "rng-stream seed=" +
                                         std::to_string(seed));
  }
}

// --- T gate and Toffoli -----------------------------------------------------

// Planted single faults through the T gadget: every sampled fault either
// reproduces run_with_faults' verdict exactly, or throws FrameUnsupported
// (an X-type deviation on a classically-controlled S whose target is not
// classical — the documented limit of the frame model, handled by the
// campaign engine's per-item fallback).
TEST(FrameEquiv, TGadgetPlantedMatchesPerTrial) {
  for (int k : {1, 2}) {
    const FaultExperiment ex =
        analysis::build_tgate_experiment(1, 2 * k + 1, 5);
    const frame::FrameProgram prog = analysis::make_frame_program(ex);
    const auto oracle = analysis::make_generic_frame_oracle(ex, prog);
    const auto faults = analysis::enumerate_single_faults(ex);
    ASSERT_FALSE(faults.empty());
    const std::size_t stride = faults.size() / 120 + 1;
    std::size_t compared = 0, unsupported = 0;
    for (std::size_t i = 0; i < faults.size(); i += stride) {
      const auto& f = faults[i];
      frame::FrameBatch batch(prog);
      try {
        batch.run_planted({{frame::PlantedFault{f.ordinal, f.error}}});
      } catch (const frame::FrameUnsupported&) {
        ++unsupported;
        continue;
      }
      const bool frame_verdict = (oracle(batch) & 1) != 0;
      EXPECT_EQ(frame_verdict, analysis::run_with_faults(ex, {f}))
          << "k=" << k << " ordinal=" << f.ordinal << " "
          << f.error.to_string();
      ++compared;
    }
    // A healthy majority of faults is word-comparable; the rest exercise
    // the documented FrameUnsupported fallback (X-type deviations on the
    // classically-controlled CSdg layer with a non-classical data target).
    EXPECT_GT(compared, 60u) << "k=" << k;
    EXPECT_GT(unsupported, 0u) << "k=" << k;
  }
}

// The campaign's frames engine on the T gadget: full 64-lane batches that
// contain unsupported lanes throw FrameUnsupported and are re-judged item
// by item (one planted lane, then the per-trial replay).  The report must
// equal the per-trial engine's, with some items judged on frames (by the
// generic oracle: the experiment has no closed form) and some sent
// per-trial.
TEST(FrameEquiv, TGadgetCampaignFallsBackInsideFullBatches) {
  const FaultExperiment ex = analysis::build_tgate_experiment(1, 3, 5);
  analysis::CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 256;
  cfg.num_shards = 2;  // 128 items per shard: two full batches each
  cfg.jobs = 2;
  cfg.sample_seed = 3;
  cfg.engine = "trials";
  const auto trials = analysis::run_campaign(ex, cfg);
  ASSERT_EQ(trials.sets_tested, 256u);

  obs::Counter& lanes = obs::counter("campaign.frame_lanes");
  obs::Counter& generic = obs::counter("campaign.generic_lanes");
  obs::Counter& fallbacks = obs::counter("campaign.frame_fallbacks");
  const std::uint64_t lanes0 = lanes.value(), generic0 = generic.value(),
                      fallbacks0 = fallbacks.value();
  cfg.engine = "frames";
  const auto frames = analysis::run_campaign(ex, cfg);
  EXPECT_EQ(frames.to_json(), trials.to_json());
  const std::uint64_t on_frames = lanes.value() - lanes0;
  const std::uint64_t per_trial = fallbacks.value() - fallbacks0;
  EXPECT_GT(on_frames, 0u);
  EXPECT_GT(per_trial, 0u);
  EXPECT_EQ(on_frames + per_trial, 256u);
  EXPECT_EQ(generic.value() - generic0, on_frames);
}

// Every single fault of the T gadget on each Z-basis input branch: the
// frames engine's exhaustive k = 1 report is byte-identical to the
// per-trial engine's.
TEST(FrameEquiv, TGadgetExhaustiveSingleFaultsMatchPerTrialOnEveryBranch) {
  for (unsigned branch = 0; branch < analysis::kTgateBranches; ++branch) {
    const FaultExperiment ex = analysis::build_tgate_experiment(branch);
    analysis::CampaignConfig cfg;
    cfg.k = 1;
    cfg.budget = 0;
    cfg.jobs = 4;
    cfg.engine = "trials";
    const auto trials = analysis::run_campaign(ex, cfg);
    cfg.engine = "frames";
    const auto frames = analysis::run_campaign(ex, cfg);
    EXPECT_TRUE(frames.exhaustive) << "branch " << branch;
    EXPECT_EQ(frames.to_json(), trials.to_json()) << "branch " << branch;
  }
}

// Stochastic T gadget under pure dephasing: Z-type frames never trigger a
// CSdg deviation (no Hadamard in the gadget converts them to X), so the
// frame engine runs the full trial budget — and must match the per-trial
// driver with an uncorrected-codespace predicate that makes Z errors
// visible.
TEST(FrameEquiv, TGadgetStochasticPhaseFlipBitExact) {
  for (int k : {1, 2}) {
    FaultExperiment ex = analysis::build_tgate_experiment(
        1, 2 * k + 1, 6 + static_cast<std::uint64_t>(k));
    // No correction round: any surviving error — including the pure-Z
    // errors perfect correction would erase — reads as a failure.
    ftqc::Layout layout;
    const codes::CodeBlock data =
        ftqc::allocate_tgate_registers(layout, codes::steane_code(),
                                       2 * k + 1)
            .data;
    ex.failed = [data](TabBackend& b, const circuit::ExecResult&) {
      return !codes::steane_code().block_in_codespace(b.tableau(), data) ||
             codes::steane_code().logical_z_expectation(b.tableau(), data) !=
                 -1.0;
    };
    const auto model = noise::NoiseModel::phase_flip(3e-3);
    const frame::FrameProgram prog = analysis::make_frame_program(ex);
    const auto oracle = analysis::make_generic_frame_oracle(ex, prog);
    const auto want = per_trial_counter(ex, model, 192, 21);
    const auto got = frame::run_trials(prog, model, 192, 21, oracle, 2);
    expect_byte_identical(want, got, "tgate-phaseflip k=" +
                                         std::to_string(k));
    EXPECT_GT(got.failures, 0u) << "k=" << k
                                << ": test should not be vacuous";
  }
}

TEST(FrameEquiv, ToffoliPlantedMatchesPerTrial) {
  const FaultExperiment ex = analysis::build_toffoli_experiment(2, 3, 9);
  const frame::FrameProgram prog = analysis::make_frame_program(ex);
  const auto oracle = analysis::make_generic_frame_oracle(ex, prog);
  const auto faults = analysis::enumerate_single_faults(ex);
  ASSERT_FALSE(faults.empty());
  const std::size_t stride = faults.size() / 90 + 1;
  std::size_t compared = 0, unsupported = 0;
  for (std::size_t i = 0; i < faults.size(); i += stride) {
    const auto& f = faults[i];
    frame::FrameBatch batch(prog);
    try {
      batch.run_planted({{frame::PlantedFault{f.ordinal, f.error}}});
    } catch (const frame::FrameUnsupported&) {
      ++unsupported;
      continue;
    }
    const bool frame_verdict = (oracle(batch) & 1) != 0;
    EXPECT_EQ(frame_verdict, analysis::run_with_faults(ex, {f}))
        << "ordinal=" << f.ordinal << " " << f.error.to_string();
    ++compared;
  }
  EXPECT_GT(compared, 50u);
}

// --- word oracle vs generic oracle -----------------------------------------

// On identical executed batches the closed-form word oracle must produce
// exactly the per-lane generic oracle's failure word (the generic one
// replays ex.failed on a frame-adjusted tableau copy, so it is exact by
// construction).
TEST(FrameOracle, WordMatchesGeneric) {
  std::uint64_t seed = 70;
  for (const std::string gadget : {"ngate", "recovery"}) {
    for (const std::string code : {"steane", "rm15"}) {
      GadgetSpec spec;
      spec.gadget = gadget;
      spec.scenario.code = code;
      spec.seed = ++seed;
      const BuiltGadget built = analysis::build_gadget_experiment(spec);
      const auto model = analysis::scenario_noise_model(spec.scenario, 1e-2);
      const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
      const auto word = analysis::make_frame_oracle(gadget, built, prog);
      const auto generic =
          analysis::make_generic_frame_oracle(built.ex, prog);
      for (unsigned batch_i = 0; batch_i < 4; ++batch_i) {
        frame::FrameBatch batch(prog);
        batch.run_stochastic(model, spec.seed, batch_i * 64, 64);
        EXPECT_EQ(word(batch), generic(batch))
            << gadget << "/" << code << " batch " << batch_i;
      }
      // Partially filled batch: bits above count() must agree after the
      // active-mask, and unused lanes must not leak into the verdict.
      frame::FrameBatch tail(prog);
      tail.run_stochastic(model, spec.seed, 1000, 17);
      EXPECT_EQ(word(tail) & tail.active_mask(),
                generic(tail) & tail.active_mask())
          << gadget << "/" << code << " tail";
    }
  }
}

// --- packed-frame property tests -------------------------------------------

// Pack/unpack round trip: planted per-lane Paulis land on exactly the
// right (fx, fz) bit positions, and lane_frame() reads them back.
TEST(FrameProp, PackUnpackRoundTrip) {
  const std::size_t n = 6;
  Circuit prep(n);
  Circuit g(n);
  for (std::uint32_t q = 0; q < n; ++q) g.x(q);  // one site per qubit
  FaultExperiment ex;
  ex.num_qubits = n;
  ex.prep = prep;
  ex.gadget = g;
  ex.seed = 1;
  const frame::FrameProgram prog = analysis::make_frame_program(ex);
  ASSERT_EQ(prog.num_sites(), n);

  Rng rng(1234);
  std::vector<PauliString> lanes_want;
  std::vector<std::vector<frame::PlantedFault>> lanes;
  for (unsigned l = 0; l < 64; ++l) {
    const PauliString p = PauliString::random(n, rng);
    std::vector<frame::PlantedFault> plant;
    for (std::size_t q = 0; q < n; ++q)
      if (p.get(q) != Pauli::I)
        plant.push_back(
            frame::PlantedFault{q, PauliString::single(n, q, p.get(q))});
    lanes_want.push_back(p);
    lanes.push_back(std::move(plant));
  }
  frame::FrameBatch batch(prog);
  batch.run_planted(lanes);
  EXPECT_EQ(batch.active_mask(), ~std::uint64_t{0});
  for (unsigned l = 0; l < 64; ++l) {
    const PauliString got = batch.lane_frame(l);
    for (std::size_t q = 0; q < n; ++q) {
      EXPECT_EQ(got.x_bit(q), lanes_want[l].x_bit(q)) << "lane " << l;
      EXPECT_EQ(got.z_bit(q), lanes_want[l].z_bit(q)) << "lane " << l;
      EXPECT_EQ((batch.fx(q) >> l) & 1, lanes_want[l].x_bit(q) ? 1u : 0u);
      EXPECT_EQ((batch.fz(q) >> l) & 1, lanes_want[l].z_bit(q) ? 1u : 0u);
    }
  }
}

// Word-level frame propagation vs PauliString conjugation, exhaustively
// over all 16 two-qubit Paulis for every plane-mixing gate (H swaps X and
// Z; CNOT copies X forward and Z back), the no-op rule for X/Y/Z, which
// only change the frame's phase, and a re-preparation.
TEST(FrameProp, GateConjugationMatchesPauliString) {
  struct GateCase {
    const char* name;
    void (*emit)(Circuit&);
    void (*conj)(PauliString&);
  };
  const GateCase cases[] = {
      {"h0", [](Circuit& c) { c.h(0); },
       [](PauliString& p) { p.conjugate_h(0); }},
      {"s0", [](Circuit& c) { c.s(0); },
       [](PauliString& p) { p.conjugate_s(0); }},
      {"sdg0", [](Circuit& c) { c.sdg(0); },
       [](PauliString& p) { p.conjugate_sdg(0); }},
      {"x0", [](Circuit& c) { c.x(0); },
       [](PauliString& p) { p.conjugate_x(0); }},
      {"y0", [](Circuit& c) { c.y(0); },
       [](PauliString& p) { p.conjugate_y(0); }},
      {"z0", [](Circuit& c) { c.z(0); },
       [](PauliString& p) { p.conjugate_z(0); }},
      {"cnot01", [](Circuit& c) { c.cnot(0, 1); },
       [](PauliString& p) { p.conjugate_cnot(0, 1); }},
      {"cnot10", [](Circuit& c) { c.cnot(1, 0); },
       [](PauliString& p) { p.conjugate_cnot(1, 0); }},
      {"cz01", [](Circuit& c) { c.cz(0, 1); },
       [](PauliString& p) { p.conjugate_cz(0, 1); }},
      {"swap01", [](Circuit& c) { c.swap(0, 1); },
       [](PauliString& p) { p.conjugate_swap(0, 1); }},
      // A fresh |0> drops the X part of the frame; the Z part is gauge
      // (Z stabilizes |0>) and is kept.
      {"prep_z0", [](Circuit& c) { c.prep_z(0); },
       [](PauliString& p) { p.set(0, p.z_bit(0) ? Pauli::Z : Pauli::I); }},
  };
  for (const auto& gc : cases) {
    Circuit prep(2);
    Circuit g(2);
    g.x(0);  // site 0 (injection point, qubit 0)
    g.x(1);  // site 1 (injection point, qubit 1)
    gc.emit(g);
    FaultExperiment ex;
    ex.num_qubits = 2;
    ex.prep = prep;
    ex.gadget = g;
    ex.seed = 1;
    const frame::FrameProgram prog = analysis::make_frame_program(ex);

    // 16 lanes, one per 2-qubit Pauli.
    std::vector<std::vector<frame::PlantedFault>> lanes;
    std::vector<PauliString> want;
    for (int p0 = 0; p0 < 4; ++p0) {
      for (int p1 = 0; p1 < 4; ++p1) {
        std::vector<frame::PlantedFault> plant;
        PauliString p(2);
        p.set(0, static_cast<Pauli>(p0));
        p.set(1, static_cast<Pauli>(p1));
        if (p0 != 0)
          plant.push_back(frame::PlantedFault{
              0, PauliString::single(2, 0, static_cast<Pauli>(p0))});
        if (p1 != 0)
          plant.push_back(frame::PlantedFault{
              1, PauliString::single(2, 1, static_cast<Pauli>(p1))});
        gc.conj(p);
        lanes.push_back(std::move(plant));
        want.push_back(p);
      }
    }
    frame::FrameBatch batch(prog);
    batch.run_planted(lanes);
    for (unsigned l = 0; l < want.size(); ++l) {
      const PauliString got = batch.lane_frame(l);
      for (std::size_t q = 0; q < 2; ++q) {
        EXPECT_EQ(got.x_bit(q), want[l].x_bit(q))
            << gc.name << " lane " << l << " q" << q;
        EXPECT_EQ(got.z_bit(q), want[l].z_bit(q))
            << gc.name << " lane " << l << " q" << q;
      }
    }
  }
}

// The packed classical record agrees with the per-lane record, and the
// word-level majority the N-gate oracle computes agrees with a scalar
// majority over the unpacked bits.
TEST(FrameProp, PackedCbitsAndMajorityMatchScalar) {
  GadgetSpec spec;  // ngate / steane / k = 1
  spec.seed = 91;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
  const auto word = analysis::make_frame_oracle(spec.gadget, built, prog);
  const auto model = noise::NoiseModel::paper_model(1e-2);
  frame::FrameBatch batch(prog);
  batch.run_stochastic(model, spec.seed, 0, 64);

  // cbits_word vs lane_cbits.
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(prog.num_gadget_cbits()); ++slot) {
    const std::uint64_t w = batch.cbits_word(slot);
    for (unsigned l = 0; l < 64; ++l)
      EXPECT_EQ((w >> l) & 1, batch.lane_cbits(l)[slot] ? 1u : 0u)
          << "slot " << slot << " lane " << l;
  }

  // The word verdict equals the exact per-lane replay...
  const std::uint64_t verdict = word(batch);
  const auto generic =
      analysis::make_generic_frame_oracle(built.ex, prog);
  EXPECT_EQ(verdict, generic(batch));

  // ...and its packed-popcount majority component agrees with a scalar
  // majority over the unpacked out-register bits (the reference run puts
  // |1>_L through the gate, so lane l's copied bit on out qubit q is the
  // reference value XOR the lane's X-frame bit; a failed majority is
  // sufficient for a failure verdict).
  TabBackend ref(prog.num_qubits(), Rng(spec.seed));
  {
    circuit::execute(built.ex.prep, ref);
    circuit::execute(built.ex.gadget, ref);
  }
  std::size_t majority_failures = 0;
  for (unsigned l = 0; l < 64; ++l) {
    std::size_t ones = 0;
    const PauliString f = batch.lane_frame(l);
    for (auto q : built.ngate_out) {
      bool v = ref.tableau().deterministic_z_value(q);
      if (f.x_bit(q)) v = !v;
      if (v) ++ones;
    }
    if (2 * ones <= built.ngate_out.size()) {
      ++majority_failures;
      EXPECT_EQ((verdict >> l) & 1, 1u) << "lane " << l;
    }
  }
  // p = 1e-2 over 64 lanes flips enough copies that the majority clause
  // is actually exercised.
  EXPECT_GT(majority_failures, 0u);
}

// --- scheduling-invariance and resume --------------------------------------

// jobs = 1 / 4 / 0 (hardware) and the per-trial driver all fold the same
// bytes.
TEST(FrameEquiv, JobsByteIdentity) {
  GadgetSpec spec;  // ngate / steane / k = 1
  spec.seed = 123;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  const auto model = noise::NoiseModel::paper_model(2e-3);
  const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
  const auto oracle = analysis::make_frame_oracle(spec.gadget, built, prog);
  const std::uint64_t kTrials = 1024;
  const auto serial =
      frame::run_trials(prog, model, kTrials, spec.seed, oracle, 1);
  const auto par4 =
      frame::run_trials(prog, model, kTrials, spec.seed, oracle, 4);
  const auto hw =
      frame::run_trials(prog, model, kTrials, spec.seed, oracle, 0);
  const auto trials =
      per_trial_counter(built.ex, model, kTrials, spec.seed, 4);
  expect_byte_identical(serial, par4, "jobs=4");
  expect_byte_identical(serial, hw, "jobs=0");
  expect_byte_identical(trials, serial, "per-trial vs frames");
}

// A run stopped mid-flight and resumed from its checkpoint folds to the
// same bytes as an uninterrupted run — across engines and jobs values.
TEST(FrameEquiv, CheckpointResumeByteIdentity) {
  GadgetSpec spec;  // ngate / steane / k = 1
  spec.seed = 321;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  const auto model = noise::NoiseModel::paper_model(2e-3);
  const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
  const auto oracle = analysis::make_frame_oracle(spec.gadget, built, prog);
  const std::uint64_t kTrials = 600;

  const auto full =
      frame::run_trials(prog, model, kTrials, spec.seed, oracle, 1);

  std::atomic<bool> stop{false};
  noise::McResumableOptions first;
  first.block = 128;
  first.on_block = [&stop](const noise::McProgress& pr) {
    if (pr.next_index >= 128) stop.store(true);
  };
  first.stop = &stop;
  const auto r1 = frame::run_trials_resumable(prog, model, kTrials,
                                              spec.seed, oracle, first);
  ASSERT_FALSE(r1.complete);
  ASSERT_LT(r1.next_index, kTrials);
  ASSERT_GT(r1.next_index, 0u);

  noise::McResumableOptions second;
  second.start_index = r1.next_index;
  second.initial = r1.counter;
  second.jobs = 3;
  const auto r2 = frame::run_trials_resumable(prog, model, kTrials,
                                              spec.seed, oracle, second);
  ASSERT_TRUE(r2.complete);
  EXPECT_EQ(r2.next_index, kTrials);
  expect_byte_identical(full, r2.counter, "stopped+resumed vs full");

  // Cross-engine: the per-trial resumable driver folds the same bytes too.
  const auto& ex = built.ex;
  const auto per_trial = noise::run_trials_resumable(
      kTrials, spec.seed,
      [&ex, model](std::uint64_t, Rng& rng) {
        TabBackend backend(ex.num_qubits, rng.split());
        circuit::execute(ex.prep, backend);
        noise::StochasticInjector injector(model, rng.split());
        const auto r = circuit::execute(ex.gadget, backend, &injector);
        return ex.failed(backend, r);
      },
      noise::McResumableOptions{});
  expect_byte_identical(per_trial.counter, r2.counter,
                        "per-trial resumable vs frames resumed");
}

// --- planted-fault replay ---------------------------------------------------

// 64 independent fault sets replayed in ONE batch give the same verdicts
// as analysis::run_with_faults one set at a time (single faults and
// pairs, ngate and recovery).
TEST(FramePlanted, MultiLaneMatchesRunWithFaults) {
  std::uint64_t seed = 200;
  for (const std::string gadget : {"ngate", "recovery"}) {
    GadgetSpec spec;
    spec.gadget = gadget;
    spec.seed = ++seed;
    const BuiltGadget built = analysis::build_gadget_experiment(spec);
    const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
    const auto oracle =
        analysis::make_frame_oracle(gadget, built, prog);
    const auto faults = analysis::enumerate_single_faults(built.ex);
    ASSERT_GT(faults.size(), 64u);

    Rng rng(7);
    std::vector<std::vector<analysis::Fault>> sets;
    for (unsigned l = 0; l < 64; ++l) {
      std::vector<analysis::Fault> set = {
          faults[rng.below(faults.size())]};
      if (l % 2 == 1) {  // odd lanes carry a fault pair
        auto second = faults[rng.below(faults.size())];
        if (second.ordinal != set[0].ordinal) set.push_back(second);
      }
      sets.push_back(std::move(set));
    }
    std::vector<std::vector<frame::PlantedFault>> lanes;
    for (const auto& set : sets) {
      std::vector<frame::PlantedFault> lane;
      for (const auto& f : set)
        lane.push_back(frame::PlantedFault{f.ordinal, f.error});
      lanes.push_back(std::move(lane));
    }
    frame::FrameBatch batch(prog);
    batch.run_planted(lanes);
    const std::uint64_t verdict = oracle(batch);
    for (unsigned l = 0; l < 64; ++l) {
      EXPECT_EQ((verdict >> l) & 1,
                analysis::run_with_faults(built.ex, sets[l]) ? 1u : 0u)
          << gadget << " lane " << l;
    }
    // Planted lanes share the reference backend stream (compare by
    // drawing: equal states produce equal outputs).
    for (unsigned l = 0; l < 8; ++l) {
      Rng lane_rng = batch.lane_backend_rng(l);
      Rng ref_rng = prog.reference_rng_after();
      for (int d = 0; d < 4; ++d) EXPECT_EQ(lane_rng(), ref_rng());
    }
  }
}

// --- site runs --------------------------------------------------------------

// The tape holds one Site instruction per maximal run of consecutive fault
// sites, and a batch folds every pending fault of a run at its end.  A
// fault planted anywhere in a run — first or last site, just before or
// after a MeasRnd / ResetRnd / Cond* instruction, inside a run that spans
// Idle and X/Y/Z ops (which compile to no instruction) — must leave each
// lane in exactly the per-trial run_with_faults state: F |ref> equals the
// planted trial's final state (frames are compared as states, since a
// frame is only defined up to the reference's stabilizers) and the
// measurement records agree.  Every single fault and a fault pair on every
// pair of sites are checked, through both planted entry points.
TEST(FrameTape, SiteRunBoundaries) {
  const std::size_t n = 5;
  FaultExperiment ex;
  ex.num_qubits = n;
  ex.seed = 17;
  Circuit prep(n);
  prep.x(4);  // q4 = |1>: a classical control for the CNOT-if below
  ex.prep = prep;
  Circuit g(n);
  g.h(0);
  g.x(1);  // X/Y/Z and Idle compile to nothing: their sites extend a run
  g.idle(2);
  g.y(3);
  g.z(1);
  g.h(2);
  g.cnot(0, 1);
  const std::uint32_t c0 = g.measure_z(0);  // random: MeasRnd
  g.prep_z(2);                              // q2 in |+>: ResetRnd
  g.x_if(g.cbit_func(c0), 3);               // CondX
  g.cnot_if(g.cbit_func(c0), 4, 3);         // CondCnot, classical control
  g.s(1);
  g.idle(1);
  const std::uint32_t c1 = g.measure_z(3);  // deterministic: MeasDet
  g.z_if(g.cbit_func(c1), 1);               // CondZ
  g.measure_z(1);
  ex.gadget = g;
  ex.failed = [](TabBackend&, const circuit::ExecResult&) { return false; };

  const frame::FrameProgram prog = analysis::make_frame_program(ex);
  // Instructions of the non-site ops: everything but X/Y/Z/Idle (PrepX
  // would count two), plus the prep/gadget boundary.
  std::size_t op_instrs = 1;
  for (const Circuit* c : {&prep, &g})
    for (const auto& op : c->ops())
      if (op.kind != circuit::OpKind::X && op.kind != circuit::OpKind::Y &&
          op.kind != circuit::OpKind::Z && op.kind != circuit::OpKind::Idle)
        ++op_instrs;
  const std::size_t site_instrs = prog.num_instructions() - op_instrs;
  EXPECT_GT(site_instrs, 0u);
  EXPECT_LT(site_instrs, prog.num_sites()) << "no run of sites was merged";

  // Lanes: every single fault, then one fault pair per pair of sites.
  const auto singles = analysis::enumerate_single_faults(ex);
  std::vector<std::vector<analysis::Fault>> by_site(prog.num_sites());
  for (const auto& f : singles) by_site[f.ordinal].push_back(f);
  std::vector<std::vector<analysis::Fault>> sets;
  for (const auto& f : singles) sets.push_back({f});
  for (std::size_t a = 0; a < by_site.size(); ++a)
    for (std::size_t b = a + 1; b < by_site.size(); ++b)
      sets.push_back({by_site[a][b % by_site[a].size()],
                      by_site[b][a % by_site[b].size()]});

  for (std::size_t first = 0; first < sets.size(); first += 64) {
    const auto count =
        static_cast<unsigned>(std::min<std::size_t>(64, sets.size() - first));
    std::vector<std::vector<frame::PlantedFault>> lanes(count);
    std::vector<frame::FrameBatch::LaneFault> local;
    for (unsigned l = 0; l < count; ++l) {
      for (const auto& f : sets[first + l]) {
        lanes[l].push_back(frame::PlantedFault{f.ordinal, f.error});
        // Site-local form, listed lane-major: the batch sorts by site.
        noise::SiteError e;
        const auto& qs = ex.gadget.plan().fault_sites()[f.ordinal].qubits;
        for (std::size_t i = 0; i < qs.size(); ++i)
          e.set(i, f.error.get(qs[i]));
        local.push_back(frame::FrameBatch::LaneFault{
            static_cast<std::uint32_t>(f.ordinal), l, e});
      }
    }
    frame::FrameBatch batch(prog);
    batch.run_planted(lanes);
    frame::FrameBatch sites_batch(prog);
    sites_batch.run_planted_sites(count, local);
    for (std::size_t q = 0; q < n; ++q) {
      EXPECT_EQ(batch.fx(q), sites_batch.fx(q)) << "q" << q;
      EXPECT_EQ(batch.fz(q), sites_batch.fz(q)) << "q" << q;
    }
    for (unsigned l = 0; l < count; ++l) {
      const auto& set = sets[first + l];
      TabBackend trial(n, Rng(ex.seed));
      circuit::execute(ex.prep, trial);
      circuit::PlantedInjector injector;
      for (const auto& f : set) injector.plant(f.ordinal, f.error);
      const auto r = circuit::execute(ex.gadget, trial, &injector);
      stab::Tableau lane_state = prog.reference_tableau();
      lane_state.apply_pauli(batch.lane_frame(l));
      std::string label = "set " + std::to_string(first + l) + ":";
      for (const auto& f : set)
        label += " " + std::to_string(f.ordinal) + "/" + f.error.to_string();
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(
            lane_state.state_is_stabilized_by(trial.tableau().stabilizer(i)))
            << label << " stabilizer " << i;
      EXPECT_EQ(batch.lane_cbits(l), r.cbits) << label;
      EXPECT_EQ(sites_batch.lane_cbits(l), r.cbits) << label;
    }
  }
}

// --- differential-layer self-tests -----------------------------------------

// The planted CNOT-swap bug visibly corrupts propagation: the differential
// layer is capable of catching a real frame bug.
TEST(FrameBug, CnotSwappedDiverges) {
  Circuit prep(2);
  Circuit g(2);
  g.x(0);  // site 0: injection point on the control
  g.cnot(0, 1);
  FaultExperiment ex;
  ex.num_qubits = 2;
  ex.prep = prep;
  ex.gadget = g;
  ex.seed = 1;

  frame::FrameProgram good = analysis::make_frame_program(ex);
  frame::FrameProgram bad = analysis::make_frame_program(ex);
  bad.set_planted_bug(frame::FrameBug::CnotSwapped);
  ASSERT_EQ(bad.planted_bug(), frame::FrameBug::CnotSwapped);

  const std::vector<std::vector<frame::PlantedFault>> lanes = {
      {frame::PlantedFault{0, PauliString::single(2, 0, Pauli::X)}}};
  frame::FrameBatch gb(good);
  gb.run_planted(lanes);
  frame::FrameBatch bb(bad);
  bb.run_planted(lanes);

  // Correct rule: X on the control copies onto the target.
  EXPECT_TRUE(gb.lane_frame(0).x_bit(0));
  EXPECT_TRUE(gb.lane_frame(0).x_bit(1));
  // Swapped rule: the X stays on the control only.
  EXPECT_TRUE(bb.lane_frame(0).x_bit(0));
  EXPECT_FALSE(bb.lane_frame(0).x_bit(1));
}

// A classically-controlled S whose control deviates while the target is
// not classical throws FrameUnsupported — and only when a lane actually
// deviates.
TEST(FrameBug, UnsupportedDeviationThrows) {
  Circuit prep(2);
  prep.h(0);  // target in |+>: not classical
  Circuit g(2);
  g.x(1);         // site 0: injection point on the control
  g.cs(1, 0);     // control |1> classical in the reference -> lowered
  FaultExperiment ex;
  ex.num_qubits = 2;
  ex.prep = prep;
  ex.gadget = g;
  ex.seed = 1;
  const frame::FrameProgram prog = analysis::make_frame_program(ex);

  // No deviation: fine.  Z-type deviation: absorbed.  X-type deviation on
  // the control with a non-classical target: unsupported.
  frame::FrameBatch clean(prog);
  EXPECT_NO_THROW(clean.run_planted({{}}));
  frame::FrameBatch zdev(prog);
  EXPECT_NO_THROW(zdev.run_planted(
      {{frame::PlantedFault{0, PauliString::single(2, 1, Pauli::Z)}}}));
  frame::FrameBatch xdev(prog);
  EXPECT_THROW(xdev.run_planted({{frame::PlantedFault{
                   0, PauliString::single(2, 1, Pauli::X)}}}),
               frame::FrameUnsupported);
}

}  // namespace
}  // namespace eqc
