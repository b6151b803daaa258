// Fault experiments and the single-fault universe — the vocabulary of the
// paper's evaluation methodology: "The threshold can easily be calculated
// by counting the potential places for two errors."
//
// A FaultExperiment is a gadget circuit with a noiseless preparation
// prefix, plus a failure oracle.  This header defines which faults a site
// can carry (FaultModel, enumerate_single_faults) and the per-trial
// reference executor (run_with_faults).  Counting itself — the single-fault
// check, malignant pairs, the p^k coefficient and pseudo-threshold — is
// analysis::run_campaign (campaign.h), the one engine that enumerates and
// judges fault sets.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "common/rng.h"
#include "frame/driver.h"

namespace eqc::analysis {

/// Which errors one fault location can produce.
enum class FaultModel {
  /// One Pauli on ONE qubit of the site — the paper's counting model
  /// ("probability p of an error per gate, per input bit, per delay line").
  SingleQubit,
  /// Any non-identity Pauli on the site's qubit set (correlated multi-qubit
  /// gate faults).  Strictly stronger; see EXPERIMENTS.md for where the two
  /// models diverge.
  FullDepolarizing,
  /// One Z on ONE qubit of the site — the enumeration counterpart of the
  /// dephasing-dominated noise::Channel::BiasedZ (the bias-1 limit).
  SingleQubitZ,
};

struct FaultExperiment {
  std::size_t num_qubits = 0;
  circuit::Circuit prep{1};    ///< run noiselessly before the gadget
  circuit::Circuit gadget{1};  ///< every site here is a fault location
  /// Judges a completed run; true = logical failure.
  std::function<bool(circuit::TabBackend&, const circuit::ExecResult&)>
      failed;
  std::uint64_t seed = 1;  ///< RNG seed used identically for every run
  FaultModel model = FaultModel::SingleQubit;
  /// Optional frame-engine oracle factory: given the program compiled from
  /// (prep, gadget, seed), returns a 64-lane verdict word that reproduces
  /// `failed` bit for bit.  build_gadget_experiment sets the closed form of
  /// frame_oracle.h; unset, the campaign judges lanes with
  /// make_generic_frame_oracle (a tableau replay per lane).
  std::function<frame::BatchOracle(const frame::FrameProgram&)> frame_oracle;
};

/// A concrete fault: a Pauli at one site of the gadget.
struct Fault {
  std::size_t ordinal;
  pauli::PauliString error;
};

/// All single faults of the gadget: every non-identity Pauli on every
/// qubit-subset pattern of every site (weight-1 patterns for multi-qubit
/// sites are included via the full Pauli set on the site's qubits).
std::vector<Fault> enumerate_single_faults(const FaultExperiment& ex);

/// Executes prep (noiselessly) then gadget with `faults` planted; returns
/// the oracle's verdict.
bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults);

}  // namespace eqc::analysis
