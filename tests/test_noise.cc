// Tests for the noise module: channel statistics, per-site-kind scaling,
// and Monte-Carlo driver reproducibility.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "common/assert.h"
#include "common/rng.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"

namespace eqc::noise {
namespace {

using circuit::Circuit;
using circuit::TabBackend;

TEST(NoiseModel, ProbabilityPerKind) {
  NoiseModel m;
  m.p = 0.01;
  m.idle_scale = 0.5;
  m.measure_scale = 2.0;
  m.prep_scale = 0.0;
  using Kind = circuit::FaultSite::Kind;
  EXPECT_DOUBLE_EQ(m.probability_for(Kind::GateOutput), 0.01);
  EXPECT_DOUBLE_EQ(m.probability_for(Kind::Idle), 0.005);
  EXPECT_DOUBLE_EQ(m.probability_for(Kind::MeasureInput), 0.02);
  EXPECT_DOUBLE_EQ(m.probability_for(Kind::PrepOutput), 0.0);
  EXPECT_DOUBLE_EQ(m.probability_for(Kind::Input), 0.01);
}

TEST(NoiseModel, Factories) {
  EXPECT_EQ(NoiseModel::depolarizing(0.1).channel, Channel::Depolarizing);
  EXPECT_EQ(NoiseModel::bit_flip(0.1).channel, Channel::BitFlip);
  EXPECT_EQ(NoiseModel::phase_flip(0.1).channel, Channel::PhaseFlip);
  EXPECT_EQ(NoiseModel::paper_model(0.1).channel, Channel::SingleQubitPauli);
}

TEST(SampleError, SingleQubitPauliIsAlwaysWeightOne) {
  Rng rng(11);
  std::map<std::string, int> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto e = sample_error(Channel::SingleQubitPauli, {0, 1, 2}, 3, rng);
    EXPECT_EQ(e.weight(), 1u);
    seen[e.to_string()]++;
  }
  // 3 qubits x 3 Paulis = 9 weight-1 errors, roughly uniform.
  EXPECT_EQ(seen.size(), 9u);
  for (const auto& [key, count] : seen) {
    EXPECT_GT(count, 3000 / 9 / 2) << key;
    EXPECT_LT(count, 3000 / 9 * 2) << key;
  }
}

TEST(SampleError, DepolarizingThreeQubitsCovers63) {
  Rng rng(13);
  std::set<std::string> seen;
  for (int i = 0; i < 20000; ++i)
    seen.insert(
        sample_error(Channel::Depolarizing, {0, 1, 2}, 3, rng).to_string());
  EXPECT_EQ(seen.size(), 63u);
}

TEST(SampleError, PhaseFlipNeverTouchesX) {
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const auto e = sample_error(Channel::PhaseFlip, {0, 1}, 2, rng);
    for (std::size_t q = 0; q < 2; ++q) EXPECT_FALSE(e.x_bit(q));
    EXPECT_GE(e.weight(), 1u);
  }
}

TEST(SampleError, BitFlipNeverTouchesZ) {
  Rng rng(19);
  for (int i = 0; i < 500; ++i) {
    const auto e = sample_error(Channel::BitFlip, {0, 1}, 2, rng);
    for (std::size_t q = 0; q < 2; ++q) EXPECT_FALSE(e.z_bit(q));
  }
}

TEST(StochasticInjector, RespectsKindScales) {
  // Idle noise disabled: a circuit of idles never accumulates errors.
  Circuit c(1);
  for (int i = 0; i < 400; ++i) c.idle(0);
  NoiseModel m = NoiseModel::depolarizing(0.5);
  m.idle_scale = 0.0;
  StochasticInjector inj(m, Rng(3));
  TabBackend b(1, Rng(2));
  circuit::execute(c, b, &inj);
  EXPECT_EQ(inj.errors_injected(), 0u);
}

TEST(StochasticInjector, MeasurementErrorsFlipOutcomes) {
  // p(measure) = 1 with bit-flip noise: a |0> qubit always reads 1.
  Circuit c(1);
  const auto slot = c.measure_z(0);
  NoiseModel m = NoiseModel::bit_flip(1.0);
  for (int i = 0; i < 20; ++i) {
    StochasticInjector inj(m, Rng(100 + i));
    TabBackend b(1, Rng(2));
    const auto result = circuit::execute(c, b, &inj);
    EXPECT_TRUE(result.cbits[slot]);
  }
}

// --- sparse fault sampler (noise stream v2) ---------------------------------

using Kind = circuit::FaultSite::Kind;

struct ToySite {
  Kind kind;
  std::vector<std::uint32_t> qubits;
};

// A site sequence cycling through every kind and arity 1..3.
std::vector<ToySite> mixed_sites(std::size_t n) {
  static constexpr Kind kKinds[5] = {Kind::Input, Kind::PrepOutput,
                                     Kind::GateOutput, Kind::MeasureInput,
                                     Kind::Idle};
  std::vector<ToySite> sites;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> qs;
    for (std::uint32_t a = 0; a <= i % 3; ++a) qs.push_back(a);
    sites.push_back(ToySite{kKinds[i % 5], qs});
  }
  return sites;
}

// Every kind fires at its own p * scale — the thinning path against the
// largest per-kind probability — within a 4-sigma Wilson interval.
TEST(FaultSampler, PerKindFiringFrequencyMatchesScaledP) {
  NoiseModel m = NoiseModel::paper_model(0.02);
  m.input_scale = 0.0;
  m.prep_scale = 0.5;
  m.gate_scale = 1.0;
  m.measure_scale = 3.0;  // p_max = 0.06
  m.idle_scale = 0.1;
  const FaultSampler sampler(m);
  EXPECT_DOUBLE_EQ(sampler.p_max(), 0.06);
  const auto sites = mixed_sites(500);
  std::uint64_t fired[5] = {0, 0, 0, 0, 0};
  std::uint64_t seen[5] = {0, 0, 0, 0, 0};
  const int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(derive_stream_seed(77, t));
    std::uint64_t draws = 0;
    std::size_t last = 0;
    bool first = true;
    sampler.sample(sites, rng, draws, [&](std::size_t i, SiteError e) {
      EXPECT_TRUE(first || i > last);  // increasing site order
      first = false;
      last = i;
      ++fired[static_cast<int>(sites[i].kind)];
      // Single-qubit errors on one of the site's qubits.
      EXPECT_EQ(__builtin_popcount(e.x | e.z), 1);
      EXPECT_LT(e.x | e.z, 1 << sites[i].qubits.size());
    });
  }
  for (const auto& s : sites) seen[static_cast<int>(s.kind)] += kTrials;
  for (int k = 0; k < 5; ++k) {
    const double want = m.probability_for(static_cast<Kind>(k));
    const auto iv = wilson_interval(fired[k], seen[k], 4.0);
    EXPECT_LE(iv.low, want) << "kind " << k;
    EXPECT_GE(iv.high, want) << "kind " << k;
  }
  EXPECT_EQ(fired[static_cast<int>(Kind::Input)], 0u);
}

TEST(FaultSampler, ZeroProbabilityMakesNoDraws) {
  const FaultSampler sampler(NoiseModel::paper_model(0.0));
  const auto sites = mixed_sites(300);
  Rng rng(5);
  const Rng before = rng;
  std::uint64_t draws = 0;
  int fired = 0;
  sampler.sample(sites, rng, draws, [&](std::size_t, SiteError) { ++fired; });
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(draws, 0u);
  Rng untouched = before;
  EXPECT_EQ(rng(), untouched());  // the stream did not advance

  Circuit c(2);
  for (int i = 0; i < 50; ++i) c.h(0).cnot(0, 1);
  StochasticInjector inj(NoiseModel::paper_model(0.0), Rng(1));
  TabBackend b(2, Rng(2));
  circuit::execute(c, b, &inj);
  EXPECT_EQ(inj.draws(), 0u);
  EXPECT_EQ(inj.errors_injected(), 0u);
}

// p * scale >= 1 fires at every site of that kind, with no gap draws; the
// other kinds are thinned against p_max = 1.
TEST(FaultSampler, CertainSitesFireEverywhere) {
  NoiseModel m = NoiseModel::bit_flip(0.5);
  m.gate_scale = 4.0;  // clamps to 1
  m.idle_scale = 0.0;
  const FaultSampler sampler(m);
  EXPECT_DOUBLE_EQ(sampler.p_max(), 1.0);
  Rng rng(9);
  std::uint64_t draws = 0;
  EXPECT_EQ(sampler.gap(rng, draws), 0u);
  EXPECT_EQ(draws, 0u);

  const auto sites = mixed_sites(250);
  std::vector<int> fired(sites.size(), 0);
  sampler.sample(sites, rng, draws,
                 [&](std::size_t i, SiteError) { ++fired[i]; });
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (sites[i].kind == Kind::GateOutput) {
      EXPECT_EQ(fired[i], 1) << i;
    } else if (sites[i].kind == Kind::Idle) {
      EXPECT_EQ(fired[i], 0) << i;
    }
  }
}

// A vanishing p cannot overflow the gap: it saturates at kMaxGap and the
// sampler simply sees no fault.
TEST(FaultSampler, TinyProbabilityCannotOverflowTheGap) {
  for (double p : {1e-300, 4.9e-324, 1e-18}) {
    const FaultSampler sampler(NoiseModel::depolarizing(p));
    for (std::uint64_t s = 0; s < 200; ++s) {
      Rng rng(s);
      std::uint64_t draws = 0;
      const std::uint64_t g = sampler.gap(rng, draws);
      EXPECT_LE(g, FaultSampler::kMaxGap) << p;
      EXPECT_EQ(draws, 1u);
    }
    Rng rng(3);
    std::uint64_t draws = 0;
    int fired = 0;
    sampler.sample(mixed_sites(1000), rng, draws,
                   [&](std::size_t, SiteError) { ++fired; });
    EXPECT_EQ(fired, 0) << p;
    EXPECT_EQ(draws, 1u) << p;  // one gap overshoots every site
  }
  EXPECT_THROW((void)FaultSampler(NoiseModel::depolarizing(std::nan(""))),
               ContractViolation);
}

// Logs every injected Pauli as "<site ordinal>:<pauli>".
struct RecordingBackend : TabBackend {
  using TabBackend::TabBackend;
  std::size_t site = 0;
  std::vector<std::string> applied;
  void apply_pauli(const pauli::PauliString& p) override {
    applied.push_back(std::to_string(site) + ":" + p.to_string());
    TabBackend::apply_pauli(p);
  }
};

// Tells the RecordingBackend which site the wrapped injector is visiting.
struct TaggingInjector final : circuit::FaultInjector {
  TaggingInjector(StochasticInjector& inner, RecordingBackend& backend)
      : inner(inner), backend(backend) {}
  void visit(const circuit::FaultSite& site, circuit::Backend& b) override {
    backend.site = site.ordinal;
    inner.visit(site, b);
  }
  StochasticInjector& inner;
  RecordingBackend& backend;
};

// The injector (one countdown per visit) and the sampler's skip-ahead walk
// over the same site list consume the stream identically: same faults,
// same draw count, same stream position — the v2 contract both Monte-Carlo
// engines rely on.
TEST(FaultSampler, InjectorAndSkipAheadWalkAgree) {
  Circuit c(3);
  // Computational-basis states only, so the CCX controls stay classical
  // (lowerable by the tableau backend) whatever errors strike.
  for (int i = 0; i < 40; ++i) {
    c.x(0).cnot(0, 1).ccx(0, 1, 2);
    c.measure_z(2);
    c.prep_z(2);
  }
  const auto sites = circuit::enumerate_fault_sites(c);
  NoiseModel m = NoiseModel::biased_z(0.04, 0.3);
  m.gate_scale = 0.5;
  m.measure_scale = 2.0;
  const FaultSampler sampler(m);
  std::size_t total = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng walk_rng(seed);
    std::uint64_t walk_draws = 0;
    std::vector<std::string> walked;
    sampler.sample(sites, walk_rng, walk_draws,
                   [&](std::size_t i, SiteError e) {
                     walked.push_back(std::to_string(i) + ":" +
                                      e.on(sites[i].qubits, 3).to_string());
                   });

    RecordingBackend backend(3, Rng(1));
    StochasticInjector inj(m, Rng(seed));
    TaggingInjector tag(inj, backend);
    circuit::execute(c, backend, &tag);
    EXPECT_EQ(backend.applied, walked) << seed;
    EXPECT_EQ(inj.errors_injected(), walked.size()) << seed;
    EXPECT_EQ(inj.draws(), walk_draws) << seed;
    total += walked.size();
  }
  EXPECT_GT(total, 20u);  // non-vacuous
}

TEST(MonteCarlo, ReproducibleAcrossRuns) {
  auto trial = [](Rng& rng) { return rng.bernoulli(0.37); };
  const auto a = run_trials(500, 99, trial);
  const auto b = run_trials(500, 99, trial);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_NEAR(a.rate(), 0.37, 0.08);
}

TEST(MonteCarlo, DifferentSeedsDiffer) {
  auto trial = [](Rng& rng) { return rng.bernoulli(0.5); };
  const auto a = run_trials(200, 1, trial);
  const auto b = run_trials(200, 2, trial);
  EXPECT_NE(a.failures, b.failures);  // overwhelmingly likely
}

TEST(MonteCarlo, UntilStopsAtFailureBudget) {
  auto trial = [](Rng&) { return true; };  // always fails
  const auto c = run_trials_until(100000, 7, 3, trial);
  EXPECT_EQ(c.failures, 7u);
  EXPECT_EQ(c.trials, 7u);
  EXPECT_TRUE(c.stopped_early);
}

TEST(MonteCarlo, UntilRunsOutOfTrials) {
  auto trial = [](Rng&) { return false; };
  const auto c = run_trials_until(50, 3, 3, trial);
  EXPECT_EQ(c.trials, 50u);
  EXPECT_EQ(c.failures, 0u);
  EXPECT_FALSE(c.stopped_early);
}

// The CI determinism gate: a worker pool must not change any reported
// number.  Per-trial streams are counter-split from (seed, index), and
// shard counters merge by order-free sums, so every jobs value produces a
// byte-identical FailureCounter (compared via the deterministic JSON dump).
TEST(MonteCarlo, ParallelByteIdenticalToSerial) {
  auto trial = [](Rng& rng) {
    // Consume a varying amount of the stream so trials are not trivially
    // symmetric under reordering.
    const int draws = 1 + static_cast<int>(rng.below(5));
    bool fail = false;
    for (int i = 0; i < draws; ++i) fail = rng.bernoulli(0.23);
    return fail;
  };
  const auto serial = run_trials(1000, 77, trial, 1);
  for (unsigned jobs : {2u, 8u}) {
    const auto parallel = run_trials(1000, 77, trial, jobs);
    EXPECT_EQ(serial.to_json_value().dump(), parallel.to_json_value().dump())
        << "jobs=" << jobs;
  }
}

TEST(MonteCarlo, UntilParallelMatchesSerial) {
  // Early stopping must also be jobs-invariant: the parallel driver
  // speculates ahead but commits outcomes in index order.
  auto trial = [](Rng& rng) { return rng.bernoulli(0.05); };
  const auto serial = run_trials_until(5000, 11, 123, trial, 1);
  for (unsigned jobs : {2u, 8u}) {
    const auto parallel = run_trials_until(5000, 11, 123, trial, jobs);
    EXPECT_EQ(serial.to_json_value().dump(), parallel.to_json_value().dump())
        << "jobs=" << jobs;
  }
}

// Regression for the sequential-master-RNG bug: trial i's outcome is a pure
// function of (seed, i) — invariant to how many trials run and how many
// workers run them.
TEST(MonteCarlo, TrialOutcomeInvariantToTrialCountAndJobs) {
  auto outcome_map = [](std::uint64_t trials, unsigned jobs) {
    std::vector<int> out(static_cast<std::size_t>(trials), -1);
    std::mutex mu;
    run_trials_indexed(
        trials, 5,
        [&](std::uint64_t i, Rng& rng) {
          const bool fail = rng.bernoulli(0.4);
          std::lock_guard<std::mutex> lock(mu);
          out[static_cast<std::size_t>(i)] = fail ? 1 : 0;
          return fail;
        },
        jobs);
    return out;
  };
  const auto base = outcome_map(64, 1);
  const auto longer = outcome_map(256, 1);
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_EQ(base[i], longer[i]) << "trial " << i
                                  << " changed with the trial count";
  for (unsigned jobs : {2u, 8u}) {
    const auto par = outcome_map(256, jobs);
    EXPECT_EQ(longer, par) << "jobs=" << jobs;
  }
}

TEST(MonteCarlo, TrialValuesOrderedAndJobsInvariant) {
  auto trial = [](std::uint64_t i, Rng& rng) {
    return static_cast<double>(i) + rng.uniform();
  };
  const auto serial = run_trial_values(100, 9, trial, 1);
  ASSERT_EQ(serial.size(), 100u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GE(serial[i], static_cast<double>(i));
    EXPECT_LT(serial[i], static_cast<double>(i) + 1.0);
  }
  EXPECT_EQ(serial, run_trial_values(100, 9, trial, 4));
}

// Property: injected error count over a known number of sites follows the
// expected binomial mean for every channel.
class ChannelRate : public ::testing::TestWithParam<Channel> {};

TEST_P(ChannelRate, MatchesExpectedMean) {
  Circuit c(2);
  for (int i = 0; i < 300; ++i) c.cnot(0, 1);
  NoiseModel m;
  m.p = 0.05;
  m.channel = GetParam();
  std::size_t total = 0;
  const int reps = 30;
  for (int r = 0; r < reps; ++r) {
    StochasticInjector inj(m, Rng(1000 + r));
    TabBackend b(2, Rng(2));
    circuit::execute(c, b, &inj);
    total += inj.errors_injected();
  }
  const double mean = double(total) / reps;
  EXPECT_NEAR(mean, 300 * 0.05, 4.0);
}

INSTANTIATE_TEST_SUITE_P(AllChannels, ChannelRate,
                         ::testing::Values(Channel::Depolarizing,
                                           Channel::BitFlip,
                                           Channel::PhaseFlip,
                                           Channel::SingleQubitPauli));

// --- resumable trial driver -------------------------------------------------

namespace {

// A cheap deterministic per-index trial: pure function of (seed, index).
bool toy_trial(std::uint64_t, Rng& rng) { return rng.uniform() < 0.125; }

}  // namespace

TEST(MonteCarloResumable, MatchesRunTrialsForAnyJobsValue) {
  const std::uint64_t trials = 5000, seed = 17;
  const auto reference =
      run_trials_indexed(trials, seed, toy_trial, /*jobs=*/1);
  for (unsigned jobs : {1u, 3u}) {
    McResumableOptions opt;
    opt.jobs = jobs;
    const auto result = run_trials_resumable(trials, seed, toy_trial, opt);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.next_index, trials);
    EXPECT_EQ(result.counter.trials, reference.trials);
    EXPECT_EQ(result.counter.failures, reference.failures);
  }
}

TEST(MonteCarloResumable, StopTokenFlushesAResumablePoint) {
  const std::uint64_t trials = 5000, seed = 17;
  const auto reference = run_trials_indexed(trials, seed, toy_trial, 1);

  std::atomic<bool> stop{false};
  McResumableOptions opt;
  opt.jobs = 2;
  opt.block = 256;
  opt.stop = &stop;
  std::uint64_t blocks_seen = 0;
  opt.on_block = [&](const McProgress& p) {
    ++blocks_seen;
    if (p.next_index >= 1024) stop.store(true);
  };
  const auto partial = run_trials_resumable(trials, seed, toy_trial, opt);
  EXPECT_FALSE(partial.complete);
  EXPECT_LT(partial.next_index, trials);
  EXPECT_EQ(partial.counter.trials, partial.next_index);
  EXPECT_GT(blocks_seen, 0u);

  // Resume from exactly the stopping point -> identical final counter.
  McResumableOptions resume;
  resume.jobs = 3;
  resume.start_index = partial.next_index;
  resume.initial = partial.counter;
  const auto resumed = run_trials_resumable(trials, seed, toy_trial, resume);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.counter.trials, reference.trials);
  EXPECT_EQ(resumed.counter.failures, reference.failures);
}

TEST(MonteCarloResumable, ResumeIsByteIdenticalAcrossAnySplitPoint) {
  const std::uint64_t trials = 600, seed = 5;
  const auto reference = run_trials_indexed(trials, seed, toy_trial, 1);
  for (std::uint64_t split : {std::uint64_t{1}, std::uint64_t{137},
                              std::uint64_t{599}, std::uint64_t{600}}) {
    McResumableOptions first;
    first.block = 64;
    std::atomic<bool> stop{false};
    first.stop = &stop;
    first.on_block = [&](const McProgress& p) {
      if (p.next_index >= split) stop.store(true);
    };
    const auto head = run_trials_resumable(trials, seed, toy_trial, first);

    McResumableOptions rest;
    rest.start_index = head.next_index;
    rest.initial = head.counter;
    const auto tail = run_trials_resumable(trials, seed, toy_trial, rest);
    EXPECT_TRUE(tail.complete);
    EXPECT_EQ(tail.counter.to_json_value().dump(),
              reference.to_json_value().dump())
        << "split at " << split;
  }
}

TEST(MonteCarloResumable, PreSetStopRunsNothing) {
  std::atomic<bool> stop{true};
  McResumableOptions opt;
  opt.stop = &stop;
  opt.start_index = 40;
  FailureCounter initial;
  initial.trials = 40;
  initial.failures = 3;
  opt.initial = initial;
  const auto result = run_trials_resumable(1000, 1, toy_trial, opt);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.next_index, 40u);
  EXPECT_EQ(result.counter.trials, 40u);
  EXPECT_EQ(result.counter.failures, 3u);
}

TEST(MonteCarloResumable, OnBlockSeesMonotoneCheckpoints) {
  McResumableOptions opt;
  opt.jobs = 2;
  opt.block = 100;
  std::uint64_t last = 0;
  opt.on_block = [&last](const McProgress& p) {
    EXPECT_GT(p.next_index, last);
    EXPECT_EQ(p.counter.trials, p.next_index);
    last = p.next_index;
  };
  const auto result = run_trials_resumable(950, 9, toy_trial, opt);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(last, 950u);
}

}  // namespace
}  // namespace eqc::noise
