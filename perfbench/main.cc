// eqc benchmark program: runs one named workload for a fixed time, checks
// its outputs, and prints every metric by name with its unit.
//
//   eqc_perfbench --workload mc-frames-sec5 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  A detail file with the build stamp, every check and the
// per-span profile goes to --out.  perfbench/README.md documents the
// workloads and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.h"
#include "common/json.h"
#include "common/rng.h"
#include "noise/monte_carlo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "layers.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Kind { FrameMc, TrialMc, Campaign };

/// Failures in a large reference run of the workload's model (pinned; see
/// README.md for how to regenerate them with --reference-trials).
struct Reference {
  std::uint64_t failures = 0;
  std::uint64_t trials = 0;
};

struct Workload {
  const char* name;
  Kind kind;
  const char* gadget;    ///< GadgetSpec::gadget (Steane, k = 1, paper noise)
  double p;              ///< paper_model(p) for MC trials and frame batches
  std::size_t qubits;    ///< expected sizes, checked after set-up
  std::size_t sites;
  std::size_t faults;
  std::uint64_t chunk;   ///< items per timed chunk
  unsigned traced_chunks;  ///< timed chunks re-run in the traced pass
  Reference ref;         ///< MC workloads only
};

// Chunks last 0.3-1 s here, so a 30 s run yields dozens of chunk rates to
// take the median of.  The traced chunk counts give each p99 metric at
// least 1000 samples (8 x 128 frame batches, 8192 gadget executions) while
// keeping the trace near 40k events.

constexpr Workload kWorkloads[] = {
    {"mc-frames-sec5", Kind::FrameMc, "recovery", 1e-5, 78, 36297, 113355,
     8192, 8, {7928, 4000000}},
    {"mc-trials-ngate", Kind::TrialMc, "ngate", 1e-3, 22, 555, 2007, 8192, 1,
     {283273, 40000000}},
    {"campaign-sec5-k1", Kind::Campaign, "recovery", 1e-5, 78, 36297, 113355,
     4096, 2, {}},
};

/// Set-ups per run: the first builds the workload's gadget, the rest are
/// timed repeats spread over the timed section.
constexpr std::size_t kSetupReps = 24;
/// Trace-pass sizes for the layers a workload does not drive itself.
constexpr std::uint64_t kProbeTrials = 128;
constexpr std::uint64_t kProbeBatches = 32;
constexpr std::uint64_t kTapeBatches = 256;
constexpr std::uint64_t kProbeItems = 1024;
/// Reference-run seed (--reference-trials).
constexpr std::uint64_t kReferenceSeed = 0x5EC5;
/// Stream indices under the workload seed: 0 = warm-up, 1.. = timed
/// chunks, kProbeStream = trace-pass probes.
constexpr std::uint64_t kProbeStream = ~std::uint64_t{0};

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::uint64_t reference_trials = 0;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "eqc_perfbench: error: %s\n"
               "usage: eqc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--commit SHA]\n"
               "       eqc_perfbench --workload NAME --reference-trials N\n"
               "workloads: mc-frames-sec5 mc-trials-ngate campaign-sec5-k1\n",
               msg.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        for (const auto& w : kWorkloads)
          if (v == w.name) o.w = &w;
        if (o.w == nullptr) usage("unknown workload '" + v + "'");
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--out") {
        o.out_dir = v;
      } else if (a == "--commit") {
        o.commit = v;
      } else if (a == "--reference-trials") {
        o.reference_trials = std::stoull(v);
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + a);
    }
  }
  if (o.w == nullptr) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Build stamp.  Timings from a Debug, unoptimized or sanitizer build are
/// not comparable and are marked invalid.
json::Value stamp(const Options& o, unsigned jobs) {
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  bool optimized = false;
#ifdef __OPTIMIZE__
  optimized = true;
#endif
  const std::string build_type = EQC_BENCH_BUILD_TYPE;
  json::Object s;
  s.emplace_back("nproc", json::Value(std::thread::hardware_concurrency()));
  s.emplace_back("jobs", json::Value(jobs));
  s.emplace_back("compiler", json::Value(EQC_BENCH_COMPILER));
  s.emplace_back("build_type", json::Value(build_type));
  s.emplace_back("sanitizer", json::Value(sanitized));
  s.emplace_back("commit", json::Value(o.commit));
  s.emplace_back("valid",
                 json::Value(optimized && !sanitized && build_type != "Debug"));
  return json::Value(std::move(s));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Items attempted, items lost to exceptions plus failed output checks,
/// and the check log.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  json::Array checks;

  void check(const std::string& name, bool ok, const std::string& detail) {
    json::Object c;
    c.emplace_back("name", json::Value(name));
    c.emplace_back("ok", json::Value(ok));
    c.emplace_back("detail", json::Value(detail));
    checks.emplace_back(std::move(c));
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "eqc_perfbench: check failed: %s (%s)\n",
                   name.c_str(), detail.c_str());
    }
  }
};

struct Chunk {
  std::uint64_t items = 0;
  std::uint64_t failures = 0;  ///< logical failures / malignant sets
  double wall_s = 0.0;
  bool ok = false;             ///< ran without throwing
};

class Runner {
 public:
  Runner(const Options& o, unsigned jobs)
      : o_(o), w_(*o.w), jobs_(jobs),
        model_(noise::NoiseModel::paper_model(o.w->p)) {}

  int run();
  FailureCounter reference();

 private:
  void set_up_gadget();
  /// One more timed set-up, discarded (setup_s is a median over them).
  void repeat_set_up();
  Chunk run_chunk(std::uint64_t stream, bool traced);
  void check_frames_vs_trials();
  void check_rate(const FailureCounter& total);
  void trace_pass(const std::vector<Chunk>& timed, double items_per_s,
                  json::Object& metrics, json::Object& detail);
  std::uint64_t chunk_seed(std::uint64_t stream) const {
    return derive_stream_seed(o_.seed, stream);
  }

  const Options& o_;
  const Workload& w_;
  unsigned jobs_;
  noise::NoiseModel model_;
  Gadget g_;
  std::vector<SetupTimes> setups_;
  Tally tally_;
  std::uint64_t traced_errors_ = 0;  ///< errors injected in traced trials
};

void Runner::set_up_gadget() {
  SetupTimes t;
  g_ = set_up(w_.gadget, t);
  setups_.push_back(t);
  const std::size_t qubits = g_.built.ex.num_qubits;
  const std::size_t sites = g_.prog->num_sites();
  tally_.check("gadget size",
               qubits == w_.qubits && sites == w_.sites &&
                   g_.faults.size() == w_.faults,
               std::to_string(qubits) + " qubits, " + std::to_string(sites) +
                   " sites, " + std::to_string(g_.faults.size()) + " faults");
}

void Runner::repeat_set_up() {
  SetupTimes t;
  set_up(w_.gadget, t);
  setups_.push_back(t);
}

Chunk Runner::run_chunk(std::uint64_t stream, bool traced) {
  const std::uint64_t seed = chunk_seed(stream);
  Chunk c;
  c.items = w_.chunk;
  tally_.attempted += w_.chunk;
  const auto t0 = Clock::now();
  try {
    switch (w_.kind) {
      case Kind::FrameMc:
        c.failures = traced ? run_frame_batches(g_, model_, w_.chunk, seed,
                                                jobs_)
                                  .failures
                            : frame::run_trials(*g_.prog, model_, w_.chunk,
                                                seed, g_.word_oracle, jobs_)
                                  .failures;
        break;
      case Kind::TrialMc:
        c.failures = run_trials(g_.built.ex, model_, w_.chunk, seed, jobs_,
                                traced ? &traced_errors_ : nullptr)
                         .failures;
        break;
      case Kind::Campaign:
        if (traced) {
          const auto counts = run_campaign_items(g_, w_.chunk, seed, jobs_);
          c.items = counts.tested;
          c.failures = counts.malignant;
        } else {
          analysis::CampaignConfig cfg;
          cfg.mode = analysis::CampaignMode::KFault;
          cfg.k = 1;
          cfg.budget = w_.chunk;
          cfg.jobs = jobs_;
          cfg.sample_seed = seed;
          cfg.shrink = false;
          cfg.engine = "frames";
          const auto rep = analysis::run_campaign(g_.built.ex, cfg);
          c.items = rep.sets_tested;
          c.failures = rep.malignant;
        }
        break;
    }
    c.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eqc_perfbench: chunk %llu threw: %s\n",
                 static_cast<unsigned long long>(stream), e.what());
    tally_.failed += w_.chunk;
  }
  c.wall_s = seconds_since(t0);
  return c;
}

/// The frame engine must reproduce the per-trial driver bit for bit: on a
/// check slice (the first 8 tiles of chunk 1, plus the first later tile
/// with a failing lane), the two counters must serialize identically.
void Runner::check_frames_vs_trials() {
  constexpr std::uint64_t kLanes = frame::FrameBatch::kLanes;
  const std::uint64_t seed = chunk_seed(1);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> slices = {
      {0, 8 * kLanes}};
  frame::FrameBatch batch(*g_.prog);
  for (std::uint64_t t = 8; t < 64 && (t + 1) * kLanes <= w_.chunk; ++t) {
    batch.run_stochastic(model_, seed, t * kLanes, kLanes);
    if (g_.word_oracle(batch) != 0) {
      slices.emplace_back(t * kLanes, (t + 1) * kLanes);
      break;
    }
  }
  for (const auto& [first, end] : slices) {
    tally_.attempted += end - first;
    noise::McResumableOptions opt;
    opt.jobs = jobs_;
    opt.start_index = first;
    const auto trials = noise::run_trials_resumable(
        end, seed, trial_fn(g_.built.ex, model_, nullptr), opt);
    const auto frames = frame::run_trials_resumable(*g_.prog, model_, end,
                                                    seed, g_.word_oracle, opt);
    const std::string a = trials.counter.to_json_value().dump();
    const std::string b = frames.counter.to_json_value().dump();
    tally_.check("frame counter == per-trial counter, trials [" +
                     std::to_string(first) + "," + std::to_string(end) + ")",
                 a == b, "trials " + a + " frames " + b);
  }
}

/// The run's failure rate must agree with the pinned reference run: their
/// Wilson intervals at z = 4 must overlap.  An RNG stream revision keeps
/// the rate, so it keeps passing this check.
void Runner::check_rate(const FailureCounter& total) {
  const auto run = wilson_interval(total.failures, total.trials, 4.0);
  const auto ref = wilson_interval(w_.ref.failures, w_.ref.trials, 4.0);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "run %llu/%llu [%.3g, %.3g] vs reference %llu/%llu "
                "[%.3g, %.3g]",
                static_cast<unsigned long long>(total.failures),
                static_cast<unsigned long long>(total.trials), run.low,
                run.high, static_cast<unsigned long long>(w_.ref.failures),
                static_cast<unsigned long long>(w_.ref.trials), ref.low,
                ref.high);
  tally_.check("failure rate inside the reference Wilson interval",
               run.low <= ref.high && ref.low <= run.high, buf);
}

json::Value metric(double value, const char* unit) {
  json::Object m;
  m.emplace_back("value", json::Value(value));
  m.emplace_back("unit", json::Value(unit));
  return json::Value(std::move(m));
}

int Runner::run() {
  std::error_code ec;
  std::filesystem::create_directories(o_.out_dir, ec);
  set_up_gadget();

  // Untimed warm-up: thread spin-up, first-touch allocation, caches.
  run_chunk(0, false);

  std::vector<Chunk> timed;
  const auto t0 = Clock::now();
  // The set-up repeats are spread evenly over the timed section, between
  // chunks, so their median samples the whole run rather than one moment.
  do {
    timed.push_back(run_chunk(timed.size() + 1, false));
    while (setups_.size() < kSetupReps &&
           seconds_since(t0) >= o_.seconds * static_cast<double>(
                                    setups_.size()) / kSetupReps)
      repeat_set_up();
  } while (seconds_since(t0) < o_.seconds);
  while (setups_.size() < kSetupReps) repeat_set_up();
  std::vector<double> setup_s;
  for (const auto& t : setups_) setup_s.push_back(t.total());

  std::vector<double> rates;
  FailureCounter total;
  for (const auto& c : timed) {
    if (!c.ok) continue;
    rates.push_back(static_cast<double>(c.items) / c.wall_s);
    total.trials += c.items;
    total.failures += c.failures;
  }
  const double items_per_s = median(rates);
  const double rss = peak_rss_mb();

  switch (w_.kind) {
    case Kind::FrameMc:
      check_frames_vs_trials();
      check_rate(total);
      break;
    case Kind::TrialMc:
      check_rate(total);
      break;
    case Kind::Campaign:
      tally_.check("campaign tested every requested set",
                   total.trials == timed.size() * w_.chunk,
                   std::to_string(total.trials) + " of " +
                       std::to_string(timed.size() * w_.chunk));
      tally_.check("no single fault is malignant", total.failures == 0,
                   std::to_string(total.failures) + " malignant");
      break;
  }

  json::Object metrics;
  json::Object detail;
  detail.emplace_back("workload", json::Value(w_.name));
  detail.emplace_back("seed", json::Value(o_.seed));
  detail.emplace_back("seconds", json::Value(o_.seconds));
  detail.emplace_back("stamp", stamp(o_, jobs_));
  detail.emplace_back("chunks", json::Value(timed.size()));
  detail.emplace_back("items", json::Value(total.trials));
  json::Array setup_reps(setup_s.begin(), setup_s.end());
  detail.emplace_back("setup_s_reps", json::Value(std::move(setup_reps)));
  json::Array chunk_rates(rates.begin(), rates.end());
  detail.emplace_back("chunk_rates", json::Value(std::move(chunk_rates)));
  detail.emplace_back("failures", json::Value(total.failures));
  if (o_.trace) {
    trace_pass(timed, items_per_s, metrics, detail);
  } else {
    metrics.emplace_back("setup_s", metric(median(setup_s), "s"));
    metrics.emplace_back("items_per_s", metric(items_per_s, "1/s"));
    metrics.emplace_back("peak_rss_mb", metric(rss, "MB"));
  }
  const bool correct = tally_.failed == 0;
  detail.emplace_back("checks", json::Value(std::move(tally_.checks)));
  detail.emplace_back("metrics", json::Value(metrics));

  const std::string stem = o_.out_dir + "/" + w_.name + "-seed" +
                           std::to_string(o_.seed) + "-trace" +
                           (o_.trace ? "1" : "0");
  std::ofstream(stem + ".json") << json::Value(std::move(detail)).dump()
                                << '\n';

  json::Object result;
  result.emplace_back("correct", json::Value(correct));
  result.emplace_back("attempted", json::Value(tally_.attempted));
  result.emplace_back("failed", json::Value(tally_.failed));
  result.emplace_back("metrics", json::Value(std::move(metrics)));
  std::printf("# stamp %s\n", stamp(o_, jobs_).dump().c_str());
  std::printf("%s\n", json::Value(std::move(result)).dump().c_str());
  return correct ? 0 : 1;
}

/// Re-runs the first timed chunks with the trace sink on, then probes the
/// layers this workload does not drive, and reads every per-layer metric
/// out of the trace.
void Runner::trace_pass(const std::vector<Chunk>& timed, double items_per_s,
                        json::Object& metrics, json::Object& detail) {
  obs::Counter& busy_us = obs::counter("parallel.busy_us", obs::Det::Runtime);
  obs::install_trace_sink();

  // Main traced section: same chunks, same seeds, spans on.
  const std::size_t k = std::min<std::size_t>(w_.traced_chunks, timed.size());
  const std::uint64_t busy0 = busy_us.value();
  double traced_wall = 0.0;
  std::uint64_t traced_items = 0;
  std::vector<double> traced_rates;
  for (std::size_t i = 0; i < k; ++i) {
    const Chunk c = run_chunk(i + 1, true);
    traced_wall += c.wall_s;
    traced_items += c.items;
    traced_rates.push_back(static_cast<double>(c.items) / c.wall_s);
    tally_.check("traced chunk " + std::to_string(i + 1) +
                     " folds to the untraced counts",
                 c.ok && timed[i].ok && c.items == timed[i].items &&
                     c.failures == timed[i].failures,
                 std::to_string(c.failures) + "/" + std::to_string(c.items) +
                     " vs " + std::to_string(timed[i].failures) + "/" +
                     std::to_string(timed[i].items));
  }
  const double busy_frac =
      static_cast<double>(busy_us.value() - busy0) /
      (1e6 * static_cast<double>(jobs_) * traced_wall);
  const double overhead = 1.0 - median(traced_rates) / items_per_s;

  // Probes of the layers the workload does not drive itself, on the same
  // gadget and seed.  Their counts and timings fill the remaining metrics.
  const std::uint64_t probe_seed = chunk_seed(kProbeStream);
  std::uint64_t trials = w_.kind == Kind::TrialMc ? traced_items : 0;
  ItemCounts items;
  if (w_.kind == Kind::Campaign) {
    for (std::size_t i = 0; i < k; ++i) {
      items.tested += timed[i].items;
      items.malignant += timed[i].failures;
    }
  }
  try {
    if (w_.kind != Kind::TrialMc) {
      run_trials(g_.built.ex, model_, kProbeTrials, probe_seed, jobs_,
                 &traced_errors_);
      trials = kProbeTrials;
      tally_.attempted += kProbeTrials;
    }
    if (w_.kind != Kind::FrameMc) {
      const std::uint64_t n = kProbeBatches * frame::FrameBatch::kLanes;
      frame::run_trials(*g_.prog, model_, n, probe_seed, g_.word_oracle,
                        jobs_);
      run_frame_batches(g_, model_, n, probe_seed, jobs_);
      tally_.attempted += 2 * n;
    }
    run_tape(g_, kTapeBatches, jobs_);
    if (w_.kind != Kind::Campaign) {
      items = run_campaign_items(g_, kProbeItems, probe_seed, jobs_);
      tally_.attempted += items.tested;
      tally_.check("no single fault is malignant (probe)",
                   items.malignant == 0,
                   std::to_string(items.malignant) + " of " +
                       std::to_string(items.tested));
    }
  } catch (const std::exception& e) {
    tally_.check("layer probes ran", false, e.what());
  }

  const std::string trace = obs::trace_json();
  const std::string trace_path = o_.out_dir + "/trace-" + w_.name + "-seed" +
                                 std::to_string(o_.seed) + ".json";
  std::ofstream(trace_path) << trace << '\n';
  const auto prof = profile_trace(trace);
  auto p = [&](const char* name, double q) {
    const auto it = prof.find(name);
    return it == prof.end() ? 0.0 : quantile(it->second.dur_us, q);
  };
  auto share = [&](std::initializer_list<const char*> parts,
                   const char* whole) {
    double num = 0.0;
    for (const char* n : parts)
      if (prof.count(n)) num += prof.at(n).total_us;
    return prof.count(whole) ? num / prof.at(whole).total_us : 0.0;
  };

  std::vector<double> build, enumerate, compile, oracle;
  for (const auto& t : setups_) {
    build.push_back(t.build_s);
    enumerate.push_back(t.enumerate_s);
    compile.push_back(t.compile_s);
    oracle.push_back(t.oracle_s);
  }
  const double frame_trials = static_cast<double>(
      obs::counter("frames.trials", obs::Det::Stable).value());
  const double frame_batches = static_cast<double>(
      obs::counter("frames.batches", obs::Det::Runtime).value());

  const double sample_share =
      1.0 - p("frame.tape", 0.5) / p("frame.run_stochastic", 0.5);

  auto add = [&](const char* name, double v, const char* unit) {
    metrics.emplace_back(name, metric(v, unit));
  };
  add("experiments.build_s", median(build), "s");
  add("fault_enum.enumerate_s", median(enumerate), "s");
  add("frame.compile_s", median(compile), "s");
  add("frame_oracle.build_s", median(oracle), "s");
  add("frame.stochastic_us_per_batch.p50", p("frame.run_stochastic", 0.5),
      "us");
  add("frame.stochastic_us_per_batch.p99", p("frame.run_stochastic", 0.99),
      "us");
  add("frame.tape_us_per_batch.p50", p("frame.tape", 0.5), "us");
  add("noise.sample_share", sample_share, "fraction");
  add("frame.lanes_per_batch", frame_trials / frame_batches, "lanes");
  add("frame_oracle.word_us_per_batch.p50", p("frame_oracle.word", 0.5),
      "us");
  add("circuit.prep_us.p50", p("circuit.prep", 0.5), "us");
  add("circuit.gadget_us.p50", p("circuit.gadget", 0.5), "us");
  add("circuit.gadget_us.p99", p("circuit.gadget", 0.99), "us");
  add("oracle.failed_us.p50", p("oracle.failed", 0.5), "us");
  add("noise.errors_per_trial",
      static_cast<double>(traced_errors_) / static_cast<double>(trials),
      "errors");
  add("frame.planted_us_per_item.p50", p("frame.run_planted", 0.5), "us");
  add("frame_oracle.generic_us_per_lane.p50", p("frame_oracle.generic", 0.5),
      "us");
  add("campaign.sets_tested", static_cast<double>(items.tested), "count");
  add("campaign.malignant", static_cast<double>(items.malignant), "count");
  add("parallel.busy_frac", busy_frac, "fraction");
  add("obs.trace_overhead_frac", overhead, "fraction");
  add("error_frac",
      static_cast<double>(tally_.failed) /
          static_cast<double>(tally_.attempted),
      "fraction");

  // Where each workload's item time goes (README.md, "Traced run").
  json::Object shares;
  shares.emplace_back("sampling_per_frame_batch", json::Value(sample_share));
  shares.emplace_back(
      "gadget_and_failed_per_trial",
      json::Value(share({"circuit.gadget", "oracle.failed"}, "trial")));
  shares.emplace_back(
      "planted_and_generic_per_item",
      json::Value(share({"frame.run_planted", "frame_oracle.generic"},
                        "campaign.item")));
  detail.emplace_back("stress_shares", json::Value(std::move(shares)));
  json::Object profile;
  std::fprintf(stderr, "%-24s %8s %12s %12s %12s %12s\n", "span", "count",
               "p50_us", "p99_us", "total_ms", "self_ms");
  for (const auto& [name, sp] : prof) {
    json::Object o;
    o.emplace_back("count", json::Value(sp.dur_us.size()));
    o.emplace_back("p50_us", json::Value(quantile(sp.dur_us, 0.5)));
    o.emplace_back("p99_us", json::Value(quantile(sp.dur_us, 0.99)));
    o.emplace_back("total_ms", json::Value(sp.total_us / 1e3));
    o.emplace_back("self_ms", json::Value(sp.self_us / 1e3));
    profile.emplace_back(name, json::Value(std::move(o)));
    std::fprintf(stderr, "%-24s %8zu %12.2f %12.2f %12.2f %12.2f\n",
                 name.c_str(), sp.dur_us.size(), quantile(sp.dur_us, 0.5),
                 quantile(sp.dur_us, 0.99), sp.total_us / 1e3,
                 sp.self_us / 1e3);
  }
  detail.emplace_back("profile", json::Value(std::move(profile)));
  detail.emplace_back("trace_file", json::Value(trace_path));
}

FailureCounter Runner::reference() {
  SetupTimes t;
  g_ = set_up(w_.gadget, t);
  // Frame counters are byte-identical to the per-trial driver's, so the
  // frame engine serves as the reference for both MC workloads.
  return frame::run_trials(*g_.prog, model_, o_.reference_trials,
                           kReferenceSeed, g_.word_oracle, jobs_);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Runner runner(o, std::min(4u, nproc));
  try {
    if (o.reference_trials != 0) {
      if (o.w->kind == Kind::Campaign) usage("no reference for a campaign");
      const auto c = runner.reference();
      std::printf("%s reference: %llu failures in %llu trials (seed %llu)\n",
                  o.w->name, static_cast<unsigned long long>(c.failures),
                  static_cast<unsigned long long>(c.trials),
                  static_cast<unsigned long long>(kReferenceSeed));
      return 0;
    }
    return runner.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eqc_perfbench: error: %s\n", e.what());
    return 2;
  }
}
