// Named gadget fault experiments — the library's standard analysis targets
// (the Fig. 1 N gate and the Sec. 5 recovery variants) built from a small
// declarative spec, so every consumer (eqc_faultscan, the eqc_serve job
// server, tests, benches) constructs byte-identical experiments from the
// same description — plus the Fig. 3 / Fig. 4 builders the tests and
// benches count through run_campaign.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/fault_enum.h"
#include "codes/css_code.h"
#include "noise/model.h"

namespace eqc::analysis {

/// The (code, repetition k, noise axis) point a gadget experiment is
/// instantiated at.  All fields are scalars so specs serialize naturally —
/// the same property that makes campaign / MC job specs journal-able.
struct Scenario {
  /// CSS code name: "steane" | "rm15" (codes::find_code names).
  std::string code = "steane";
  /// Repetition parameter k; gadgets use 2k+1 classical copies / recovery
  /// rounds (k = 1 is the paper's 3-round majority vote; k = 0 degrades to
  /// a single unvoted round).
  int repetition_k = 1;
  /// Noise axis: "paper" (single-qubit uniform Pauli), "correlated"
  /// (full-depolarizing multi-qubit site faults), "biased-z" (dephasing
  /// dominated, the Z-only enumeration limit).
  std::string noise = "paper";

  /// The odd repetition count 2k+1 the gadget builders consume.
  int reps() const { return 2 * repetition_k + 1; }
};

/// True iff `name` is a noise axis Scenario understands.
bool is_known_noise(const std::string& name);

/// Resolves the scenario's code; throws ContractViolation when unknown.
const codes::CssCode& scenario_code(const Scenario& s);

/// Deterministic-enumeration fault model for the scenario's noise axis.
FaultModel scenario_fault_model(const Scenario& s);

/// Stochastic (Monte-Carlo) noise model at physical error rate `p` for the
/// scenario's noise axis.
noise::NoiseModel scenario_noise_model(const Scenario& s, double p);

/// Declarative description of a gadget fault experiment.
struct GadgetSpec {
  /// "ngate" | "recovery" | "recovery-measured"
  std::string gadget = "ngate";
  Scenario scenario;        ///< code / repetition / noise point
  bool syndrome = true;     ///< N-gate parity check (ablation switch)
  std::uint64_t seed = 1;   ///< experiment RNG seed
};

struct BuiltGadget {
  FaultExperiment ex;
  /// Data/source block, for codespace tripwires.
  codes::CodeBlock main_block;
  /// The code the experiment was instantiated with (registry singleton;
  /// valid for the program's lifetime).
  const codes::CssCode* code = nullptr;
  /// Preferred tripwire probe ordinals (round boundaries); empty = every
  /// site.
  std::vector<std::size_t> probe_after;
  /// N gate only: the classical output register the majority predicate
  /// reads (empty for other gadgets).  Exposed so precomputed failure
  /// oracles (frame engine) can reproduce ex.failed without re-deriving
  /// the layout.
  std::vector<std::uint32_t> ngate_out;
};

/// True for the gadget names build_gadget_experiment accepts.
bool is_known_gadget(const std::string& name);

/// Builds the named experiment.  Throws ContractViolation on an unknown
/// gadget name, code name, or noise axis.
BuiltGadget build_gadget_experiment(const GadgetSpec& spec);

// --- Fig. 3 and Fig. 4 on the tableau ---------------------------------------
//
// The coded T and Toffoli gadgets (Steane code, paper noise) on input
// branches that keep every classically controlled gate's control classical,
// so the whole gadget runs on the tableau and the frame engine.  A branch
// index picks the basis-state inputs bit by bit.  Each builder runs the
// branch once fault-free and captures the readout the failure predicate
// compares against: every output block is perfectly corrected and its
// logical Z and X expectations must equal the fault-free run's, so a
// Z-basis output is checked through Z_L and an X-basis one through X_L.
// These are analysis targets for tests and benches, not named gadgets.

/// Input branches of build_tgate_experiment: data x special in Z basis.
inline constexpr unsigned kTgateBranches = 4;

/// The Fig. 3 gadget on `branch`: bit 0 puts the data block in |1>_L,
/// bit 1 puts the special block (a Z-basis stand-in for |psi_0>, whose
/// preparation needs a physical T) in |1>_L.  The output is the data block.
FaultExperiment build_tgate_experiment(unsigned branch, int repetitions = 3,
                                       std::uint64_t seed = 1);

/// Input branches of build_toffoli_experiment: x, y in Z basis, z in X basis.
inline constexpr unsigned kToffoliBranches = 8;

/// The Fig. 4 gadget on `branch`: bit 0 puts x in |1>_L, bit 1 puts y in
/// |1>_L, bit 2 puts z in |->_L (else |+>_L), so the three deferred
/// measurements are deterministic.  The resource blocks hold |0>_L|0>_L|+>_L
/// in place of |AND>, which keeps every CCZ/CCX lowering's pivot classical.
/// The outputs are a, b (Z basis) and c (X basis).
FaultExperiment build_toffoli_experiment(unsigned branch, int repetitions = 3,
                                         std::uint64_t seed = 1);

}  // namespace eqc::analysis
