// Calls into the library's public layers, each wrapped in an obs::Span.
//
// The benchmark measures every layer from outside: these helpers drive the
// same public functions a user of eqc calls (gadget builders, fault
// enumeration, the frame compiler and oracles, FrameBatch, the per-trial
// executor) and put a span around each call.  With no trace sink
// installed a span costs one relaxed atomic load, so the untraced timed
// sections run the same code at full speed; the traced pass installs the
// sink and reads per-layer durations and self times back out of the trace.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiments.h"
#include "analysis/fault_enum.h"
#include "common/stats.h"
#include "frame/driver.h"
#include "frame/frames.h"
#include "noise/model.h"

namespace perfbench {

using namespace eqc;

/// Wall time of each set-up step, in seconds.
struct SetupTimes {
  double build_s = 0.0;      ///< analysis::build_gadget_experiment
  double enumerate_s = 0.0;  ///< analysis::enumerate_single_faults
  double compile_s = 0.0;    ///< analysis::make_frame_program
  double oracle_s = 0.0;     ///< analysis::make_frame_oracle

  double total() const { return build_s + enumerate_s + compile_s + oracle_s; }
};

/// Everything a workload builds before its first item.
struct Gadget {
  analysis::BuiltGadget built;
  std::vector<analysis::Fault> faults;  ///< single-fault universe
  std::optional<frame::FrameProgram> prog;
  frame::BatchOracle word_oracle;  ///< 64-lane verdict (make_frame_oracle)
};

/// Builds the named gadget (Steane, k = 1, paper noise), its single-fault
/// universe, frame program and batch oracle, timing each step.
Gadget set_up(const std::string& gadget, SetupTimes& times);

/// The canonical per-trial Monte-Carlo lambda: a TabBackend on the trial's
/// first split stream runs prep, a StochasticInjector on the second runs
/// the gadget, and ex.failed judges it.  Spans: "trial" around each trial,
/// with "circuit.prep", "circuit.gadget" and "oracle.failed" inside.  Adds
/// the injected error count to `*errors` when non-null.  `ex` and `errors`
/// must outlive the returned callable.
std::function<bool(std::uint64_t, Rng&)> trial_fn(
    const analysis::FaultExperiment& ex, const noise::NoiseModel& model,
    std::atomic<std::uint64_t>* errors);

/// Per-trial TabBackend Monte Carlo: trial_fn through
/// noise::run_trials_indexed.  Adds the injected error count to `*errors`
/// when given.
FailureCounter run_trials(const analysis::FaultExperiment& ex,
                          const noise::NoiseModel& model, std::uint64_t trials,
                          std::uint64_t seed, unsigned jobs,
                          std::uint64_t* errors = nullptr);

/// Frame-engine Monte Carlo driven batch by batch with the tiling of
/// frame::run_trials (trial i of `seed` runs in lane i % 64 of tile i / 64,
/// each worker reusing one FrameBatch).  Spans: "frame.batch" around each
/// tile, with "frame.run_stochastic" and "frame_oracle.word" inside.
/// Returns the folded counter, which must equal frame::run_trials'.
FailureCounter run_frame_batches(const Gadget& g,
                                 const noise::NoiseModel& model,
                                 std::uint64_t trials, std::uint64_t seed,
                                 unsigned jobs);

/// The tape alone: `batches` runs of FrameBatch::run_planted with 64 empty
/// lanes (no sampling, no faults).  Span: "frame.tape".
void run_tape(const Gadget& g, std::uint64_t batches, unsigned jobs);

/// The single-fault sets a budgeted k = 1 KFault campaign tests under
/// `sample_seed`: `budget` distinct uniform draws from the universe, in
/// analysis::run_campaign's sampling order.
std::vector<analysis::Fault> sample_single_faults(
    const std::vector<analysis::Fault>& universe, std::uint64_t budget,
    std::uint64_t sample_seed);

struct ItemCounts {
  std::uint64_t tested = 0;
  std::uint64_t malignant = 0;
};

/// One budgeted k = 1 campaign evaluated the way run_campaign's frames
/// engine does it: enumerate the universe, compile the program, build the
/// generic oracle, then one planted lane per fault set.  Spans:
/// "fault_enum.enumerate", "frame.compile", "frame_oracle.build", and per
/// item "campaign.item" with "frame.run_planted" and
/// "frame_oracle.generic" inside.
ItemCounts run_campaign_items(const Gadget& g, std::uint64_t budget,
                              std::uint64_t sample_seed, unsigned jobs);

/// Durations of one span name in a trace, and its self time (duration
/// minus the time its direct child spans on the same thread cover).
struct SpanProfile {
  std::vector<double> dur_us;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Reads a Chrome trace-event document (obs::trace_json()) into per-name
/// profiles.
std::map<std::string, SpanProfile> profile_trace(const std::string& trace_json);

/// The q-quantile (0 <= q <= 1) of `v` by linear interpolation; 0 when
/// empty.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
