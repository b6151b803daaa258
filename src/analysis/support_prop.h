// Conservative error-support propagation ("analysis of error propagation",
// paper Sec. 2 end / Sec. 4).
//
// For circuits too large to simulate (the full-code Fig. 4 Toffoli spans 6
// encoded blocks plus ancillas), we over-approximate: each qubit carries
// two corruption flags (possible X component, possible Z component) and
// every gate propagates them by the worst case of its conjugation action.
// Classical (repetition-basis) qubits ignore Z corruption entirely — the
// paper's central observation that phase errors on the classical section
// are harmless, and that phase errors cannot flow from a control to a
// target.
//
// Because propagation never cancels (the Hamming-syndrome correction inside
// N1 cannot be modelled at this level), single-fault and pair counts are
// UPPER bounds on the true malignant counts: a gadget that passes here is
// fault tolerant; thresholds derived here are conservative.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/execute.h"

namespace eqc::analysis {

/// A named group of qubits with an error-tolerance budget.
struct BlockSpec {
  std::string name;
  std::vector<std::uint32_t> qubits;
  bool classical = false;  ///< Z corruption ignored
  int tolerance = 1;       ///< max corrupted qubits the code can absorb
};

/// Per-qubit corruption state after propagation.
struct SupportState {
  std::vector<bool> x;  ///< possible bit-error component
  std::vector<bool> z;  ///< possible phase-error component
};

struct SupportFault {
  std::size_t ordinal;  ///< gadget fault-site ordinal
  bool with_x = true;   ///< corrupt the X component at the site
  bool with_z = true;   ///< corrupt the Z component
};

/// Propagates the given faults through the circuit; returns final state.
SupportState propagate_supports(const circuit::Circuit& circuit,
                                const std::vector<SupportFault>& faults,
                                const std::vector<bool>& classical_qubits);

struct BlockDamage {
  std::string name;
  int corrupted = 0;
  int tolerance = 1;
  bool exceeded() const { return corrupted > tolerance; }
};

/// Evaluates block damage from a final support state.
std::vector<BlockDamage> assess_blocks(const SupportState& state,
                                       const std::vector<BlockSpec>& blocks);

struct SupportCountReport {
  std::size_t num_sites = 0;
  std::size_t single_fault_violations = 0;  ///< 0 => 1-fault tolerant (bound)
  std::uint64_t pairs_tested = 0;
  std::uint64_t malignant_bound = 0;  ///< pairs that may exceed a tolerance
  bool exhaustive = false;

  double malignant_fraction() const {
    return pairs_tested == 0 ? 0.0
                             : double(malignant_bound) / double(pairs_tested);
  }
  double p_squared_coefficient() const {
    const double l = static_cast<double>(num_sites);
    return 0.5 * l * (l - 1.0) * malignant_fraction();
  }
  double pseudo_threshold() const {
    const double a = p_squared_coefficient();
    return a <= 0.0 ? 1.0 : 1.0 / a;
  }
};

/// Single-fault scan + pair counting at the support level.
/// `classical_qubits` marks the repetition-basis registers.
/// `site_filter` (optional) restricts the fault universe, e.g. to exclude
/// subcircuits already verified exactly at the circuit level.
SupportCountReport analyze_supports(
    const circuit::Circuit& circuit, const std::vector<BlockSpec>& blocks,
    const std::vector<bool>& classical_qubits, std::uint64_t pair_budget,
    std::uint64_t sample_seed = 7,
    const std::function<bool(const circuit::FaultSite&)>& site_filter =
        nullptr);

}  // namespace eqc::analysis
