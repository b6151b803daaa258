// Exhaustive / sampled fault enumeration — the paper's own evaluation
// methodology mechanized: "The threshold can easily be calculated by
// counting the potential places for two errors."
//
// A FaultExperiment is a gadget circuit with a noiseless preparation
// prefix, plus a failure oracle.  The engine:
//  * verifies that NO single fault (any Pauli at any site) fails the
//    oracle (the fault-tolerance property), and
//  * counts malignant fault *pairs*, giving the leading p^2 coefficient of
//    the logical failure rate and a pseudo-threshold estimate.
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

struct SingleFaultReport {
  std::size_t num_sites = 0;
  std::size_t faults_tested = 0;
  std::size_t failures = 0;
  std::vector<Fault> failing;  ///< empty iff the gadget is 1-fault tolerant
};

struct PairReport {
  std::size_t num_sites = 0;
  std::size_t single_faults = 0;  ///< size of the single-fault universe
  std::uint64_t pairs_tested = 0;
  std::uint64_t malignant = 0;
  bool exhaustive = false;

  /// Fraction of tested pairs that are malignant.
  double malignant_fraction() const {
    return pairs_tested == 0 ? 0.0
                             : static_cast<double>(malignant) /
                                   static_cast<double>(pairs_tested);
  }
  /// Leading coefficient A of P_fail ~ A p^2 under the independent
  /// depolarizing model (each site errs with probability p, uniform Pauli).
  double p_squared_coefficient() const;
  /// Pseudo-threshold: the p where A p^2 = p, i.e. 1/A.
  double pseudo_threshold() const;
};

/// All single faults of the gadget: every non-identity Pauli on every
/// qubit-subset pattern of every site (weight-1 patterns for multi-qubit
/// sites are included via the full Pauli set on the site's qubits).
std::vector<Fault> enumerate_single_faults(const FaultExperiment& ex);

/// Runs every single fault; the gadget is fault tolerant iff
/// report.failures == 0.
SingleFaultReport run_single_faults(const FaultExperiment& ex);

/// Runs `budget` single faults sampled uniformly from the universe (or all
/// of them when the universe is smaller).  For quick scans of very large
/// gadgets; a clean exhaustive run is still the gold standard.
SingleFaultReport run_single_faults_sampled(const FaultExperiment& ex,
                                            std::uint64_t budget,
                                            std::uint64_t sample_seed = 17);

/// Tests fault pairs.  If the total number of unordered pairs is at most
/// `budget`, tests all of them (exhaustive); otherwise samples `budget`
/// DISTINCT uniform random pairs (duplicates are rejected, and the draw is
/// capped at the number of distinct different-site pairs, so a budget near
/// the universe size does not bias malignant_fraction()).
PairReport run_fault_pairs(const FaultExperiment& ex, std::uint64_t budget,
                           std::uint64_t sample_seed = 99);

/// Executes prep (noiselessly) then gadget with `faults` planted; returns
/// the oracle's verdict.
bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults);

}  // namespace eqc::analysis
