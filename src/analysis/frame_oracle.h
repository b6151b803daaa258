// Frame-engine adapters for the named gadget experiments.
//
// make_frame_program compiles a FaultExperiment's (prep, gadget) pair
// against its reference execution.  The verdict side lives on the
// experiment's failure oracle: ex.failed.frame_factory() is an optional
// factory that, given the compiled program, returns a word-level failure
// predicate reproducing ex.failed for all 64 lanes at once (assigning a
// new predicate to ex.failed drops it).  build_gadget_experiment
// installs word_frame_oracle_factory, the closed form both gadget
// families admit: a trial state is F |ref>, so the majority vote reads FX
// bits of the output register, and perfect_correct's verdict reduces to
// the lane's Z-type syndrome (XOR-folded FX words) plus the parity of the
// min-weight correction, looked up from a table precomputed off the
// CssCode.  When a build-time soundness check fails (reference block not
// in the codespace, non-classical outputs), the factory returns the
// generic per-lane oracle instead, which replays ex.failed on a
// frame-adjusted copy of the reference tableau — still bit-exact, just
// not word-parallel.  Experiments without a factory (hand-built ones)
// always get the generic oracle.
//
// Consumers: run_mc (the one Monte-Carlo entry point for named gadgets:
// matrix cells, serve MC jobs, eqc_faultscan --mc) calls make_frame_oracle;
// the campaign's frames engine calls the factory directly, 64 planted
// fault sets per batch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "analysis/experiments.h"
#include "frame/driver.h"
#include "frame/frames.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"

namespace eqc::analysis {

/// Compiles the experiment's circuits against the reference execution at
/// the experiment seed (so planted-fault replay also matches
/// run_with_faults).
frame::FrameProgram make_frame_program(const FaultExperiment& ex);

/// Word-level (or, on fallback, per-lane) batch failure oracle
/// reproducing `built.ex.failed` bit for bit:
/// built.ex.failed.frame_factory()(prog).
/// `gadget` is the GadgetSpec::gadget name the experiment was built from.
/// The returned callable owns copies of everything it needs; `built` and
/// `prog` need not outlive it.
frame::BatchOracle make_frame_oracle(const std::string& gadget,
                                     const BuiltGadget& built,
                                     const frame::FrameProgram& prog);

/// The FailureOracle::frame_factory of a named gadget (set by
/// build_gadget_experiment): the closed form behind its soundness gates,
/// the generic oracle when a gate fails.  The N-gate verdict is chosen
/// when `built.ngate_out` is non-empty, the recovery verdict otherwise.
std::function<frame::BatchOracle(const frame::FrameProgram&)>
word_frame_oracle_factory(const BuiltGadget& built);

/// The always-applicable fallback: per lane, copy the reference tableau,
/// apply the lane frame, and run `ex.failed` on a TabBackend seeded with
/// the lane's post-run RNG state.  Exact for any predicate; used directly
/// by tests to cross-check the word oracle.
frame::BatchOracle make_generic_frame_oracle(const FaultExperiment& ex,
                                             const frame::FrameProgram& prog);

/// True iff `oracle` is a make_generic_frame_oracle result (so each lane
/// it judges costs one tableau replay).
bool is_generic_frame_oracle(const frame::BatchOracle& oracle);

/// Monte Carlo of a named gadget on the frame engine: compiles the frame
/// program, builds the word oracle and runs frame::run_trials_resumable.
/// The counter is byte-identical to the per-trial driver's for the same
/// (trials, seed) (the FrameEquiv tests pin this).  There is no per-trial
/// fallback: a frame::FrameUnsupported propagates to the caller.
noise::McRunResult run_mc(const std::string& gadget, const BuiltGadget& built,
                          const noise::NoiseModel& model, std::uint64_t trials,
                          std::uint64_t seed,
                          const noise::McResumableOptions& opt = {});

}  // namespace eqc::analysis
