#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <unordered_set>

#include "analysis/campaign.h"
#include "analysis/frame_oracle.h"
#include "circuit/tab_backend.h"
#include "common/json.h"
#include "common/parallel.h"
#include "noise/monte_carlo.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Gadget set_up(const std::string& gadget, SetupTimes& times) {
  Gadget g;
  auto t0 = Clock::now();
  {
    obs::Span span("experiments.build");
    analysis::GadgetSpec spec;  // steane / k = 1 / paper noise
    spec.gadget = gadget;
    g.built = analysis::build_gadget_experiment(spec);
  }
  times.build_s = seconds_since(t0);
  t0 = Clock::now();
  {
    obs::Span span("fault_enum.enumerate");
    g.faults = analysis::enumerate_single_faults(g.built.ex);
  }
  times.enumerate_s = seconds_since(t0);
  t0 = Clock::now();
  {
    obs::Span span("frame.compile");
    g.prog.emplace(analysis::make_frame_program(g.built.ex));
  }
  times.compile_s = seconds_since(t0);
  t0 = Clock::now();
  {
    obs::Span span("frame_oracle.build");
    g.word_oracle = analysis::make_frame_oracle(gadget, g.built, *g.prog);
  }
  times.oracle_s = seconds_since(t0);
  return g;
}

std::function<bool(std::uint64_t, Rng&)> trial_fn(
    const analysis::FaultExperiment& ex, const noise::NoiseModel& model,
    std::atomic<std::uint64_t>* errors) {
  return [&ex, model, errors](std::uint64_t, Rng& rng) {
    obs::Span trial("trial");
    circuit::TabBackend backend(ex.num_qubits, rng.split());
    {
      obs::Span span("circuit.prep");
      circuit::execute(ex.prep, backend);
    }
    noise::StochasticInjector injector(model, rng.split());
    circuit::ExecResult result;
    {
      obs::Span span("circuit.gadget");
      result = circuit::execute(ex.gadget, backend, &injector);
    }
    if (errors != nullptr)
      errors->fetch_add(injector.errors_injected(), std::memory_order_relaxed);
    obs::Span span("oracle.failed");
    return ex.failed(backend, result);
  };
}

FailureCounter run_trials(const analysis::FaultExperiment& ex,
                          const noise::NoiseModel& model, std::uint64_t trials,
                          std::uint64_t seed, unsigned jobs,
                          std::uint64_t* errors) {
  std::atomic<std::uint64_t> injected{0};
  const auto counter = noise::run_trials_indexed(
      trials, seed, trial_fn(ex, model, &injected), jobs);
  if (errors != nullptr) *errors += injected.load();
  return counter;
}

FailureCounter run_frame_batches(const Gadget& g,
                                 const noise::NoiseModel& model,
                                 std::uint64_t trials, std::uint64_t seed,
                                 unsigned jobs) {
  constexpr unsigned kLanes = frame::FrameBatch::kLanes;
  const std::uint64_t tiles = (trials + kLanes - 1) / kLanes;
  std::vector<std::uint64_t> words(static_cast<std::size_t>(tiles), 0);
  const unsigned workers = parallel::resolve_jobs(jobs);
  const unsigned shards = static_cast<unsigned>(
      std::min<std::uint64_t>(tiles, std::uint64_t{workers}));
  parallel::for_each_shard(shards, workers, [&](unsigned w) {
    frame::FrameBatch batch(*g.prog);
    for (std::uint64_t t = w; t < tiles; t += shards) {
      obs::Span span("frame.batch");
      const std::uint64_t first = t * kLanes;
      const unsigned lanes = static_cast<unsigned>(
          std::min<std::uint64_t>(kLanes, trials - first));
      {
        obs::Span s("frame.run_stochastic");
        batch.run_stochastic(model, seed, first, lanes);
      }
      obs::Span s("frame_oracle.word");
      words[static_cast<std::size_t>(t)] =
          g.word_oracle(batch) & batch.active_mask();
    }
  });
  FailureCounter counter;
  for (std::uint64_t i = 0; i < trials; ++i)
    counter.add(((words[static_cast<std::size_t>(i / kLanes)] >> (i % kLanes)) &
                 1) != 0);
  return counter;
}

void run_tape(const Gadget& g, std::uint64_t batches, unsigned jobs) {
  const unsigned workers = parallel::resolve_jobs(jobs);
  const unsigned shards = static_cast<unsigned>(
      std::min<std::uint64_t>(batches, std::uint64_t{workers}));
  const std::vector<std::vector<frame::PlantedFault>> empty(
      frame::FrameBatch::kLanes);
  parallel::for_each_shard(shards, workers, [&](unsigned w) {
    frame::FrameBatch batch(*g.prog);
    for (std::uint64_t t = w; t < batches; t += shards) {
      obs::Span span("frame.tape");
      batch.run_planted(empty);
    }
  });
}

std::vector<analysis::Fault> sample_single_faults(
    const std::vector<analysis::Fault>& universe, std::uint64_t budget,
    std::uint64_t sample_seed) {
  const std::uint64_t n = universe.size();
  if (budget >= n) return universe;  // run_campaign goes exhaustive
  Rng rng(sample_seed);
  std::unordered_set<std::uint64_t> seen;
  std::vector<analysis::Fault> out;
  out.reserve(static_cast<std::size_t>(budget));
  const std::uint64_t max_attempts = 64 * budget + 1024;
  for (std::uint64_t a = 0; a < max_attempts && out.size() < budget; ++a) {
    const std::uint64_t rank = rng.below(n);
    if (!seen.insert(rank).second) continue;
    out.push_back(universe[analysis::combination_unrank(rank, n, 1)[0]]);
  }
  return out;
}

ItemCounts run_campaign_items(const Gadget& g, std::uint64_t budget,
                              std::uint64_t sample_seed, unsigned jobs) {
  const analysis::FaultExperiment& ex = g.built.ex;
  std::vector<analysis::Fault> universe;
  {
    obs::Span span("fault_enum.enumerate");
    universe = analysis::enumerate_single_faults(ex);
  }
  std::optional<frame::FrameProgram> prog;
  {
    obs::Span span("frame.compile");
    prog.emplace(ex.num_qubits, ex.prep, ex.gadget, ex.seed);
  }
  frame::BatchOracle oracle;
  {
    obs::Span span("frame_oracle.build");
    oracle = analysis::make_generic_frame_oracle(ex, *prog);
  }
  const auto items = sample_single_faults(universe, budget, sample_seed);

  std::atomic<std::uint64_t> malignant{0};
  const unsigned workers = parallel::resolve_jobs(jobs);
  const unsigned shards = static_cast<unsigned>(
      std::min<std::size_t>(items.size(), std::size_t{workers}));
  parallel::for_each_shard(shards, workers, [&](unsigned w) {
    for (std::size_t i = w; i < items.size(); i += shards) {
      obs::Span span("campaign.item");
      std::vector<std::vector<frame::PlantedFault>> lanes(1);
      lanes[0].push_back(frame::PlantedFault{items[i].ordinal, items[i].error});
      frame::FrameBatch batch(*prog);
      {
        obs::Span s("frame.run_planted");
        batch.run_planted(lanes);
      }
      obs::Span s("frame_oracle.generic");
      if ((oracle(batch) & 1) != 0)
        malignant.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return ItemCounts{items.size(), malignant.load()};
}

std::map<std::string, SpanProfile> profile_trace(
    const std::string& trace_json) {
  struct Event {
    std::string name;
    double ts;
    double dur;
    double child_us = 0.0;
  };
  std::map<std::uint64_t, std::vector<Event>> by_thread;
  const json::Value doc = json::Value::parse(trace_json);
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    by_thread[e.at("tid").as_u64()].push_back(
        Event{e.at("name").as_string(), e.at("ts").as_double(),
              e.at("dur").as_double()});
  }

  std::map<std::string, SpanProfile> out;
  for (auto& [tid, events] : by_thread) {
    // Parents start no later than their children and last at least as
    // long, so (start asc, duration desc) puts each parent first.
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& ev = events[i];
      while (!open.empty() &&
             events[open.back()].ts + events[open.back()].dur <= ev.ts)
        open.pop_back();
      if (!open.empty()) events[open.back()].child_us += ev.dur;
      open.push_back(i);
    }
    for (const Event& ev : events) {
      SpanProfile& p = out[ev.name];
      p.dur_us.push_back(ev.dur);
      p.total_us += ev.dur;
      p.self_us += ev.dur - ev.child_us;
    }
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
