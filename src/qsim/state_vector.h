// Dense state-vector simulator.
//
// Qubit q corresponds to bit q of the basis-state index (qubit 0 is the
// least significant bit).  Practical up to ~24 qubits on a laptop-class
// machine; the fault-tolerance experiments in this repository use <= 20.
//
// The simulator supports "internal" measurement (eqc::qsim::StateVector::
// measure) which physically models collapse; whether a protocol is *allowed*
// to observe the outcome is a property of the layer above (the ensemble
// machine hides outcomes; the measurement-free protocols never call it).
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "pauli/pauli_string.h"

namespace eqc::qsim {

/// Outcome probabilities this close to 0 or 1 count as exactly 0 or 1.
/// Rounding leaves a few ulps on a deterministic outcome, and how many
/// depends on the summation order, hence on the qubit labelling; snapping
/// makes every labelling agree that the outcome is deterministic, so it
/// draws nothing from the RNG stream.
inline constexpr double kDeterministicTol = 1e-12;

/// `p` snapped to exactly 0 or 1 within kDeterministicTol, else unchanged.
inline double snap_probability(double p) {
  if (p <= kDeterministicTol) return 0.0;
  if (p >= 1.0 - kDeterministicTol) return 1.0;
  return p;
}

class StateVector {
 public:
  /// |0...0> on `num_qubits` qubits.
  explicit StateVector(std::size_t num_qubits);

  /// Takes ownership of raw amplitudes (size must be a power of two).
  static StateVector from_amplitudes(std::vector<cplx> amplitudes);

  std::size_t num_qubits() const { return n_; }
  std::uint64_t dim() const { return std::uint64_t{1} << n_; }
  cplx amplitude(std::uint64_t basis_state) const;
  const std::vector<cplx>& amplitudes() const { return amp_; }

  // --- Unitary evolution -------------------------------------------------
  /// Generic single-qubit gate.  Diagonal and anti-diagonal matrices are
  /// detected (exact-zero off/on-diagonal entries, which all library gate
  /// constructors and their products preserve) and dispatched to the
  /// specialized kernels below, skipping the generic complex multiply.
  void apply1(std::size_t q, const Mat2& u);
  /// diag(d0, d1) on qubit q; when d0 == 1 only the upper half-space is
  /// touched (covers Z, S, Sdg, T, Tdg and their products).
  void apply_diag1(std::size_t q, cplx d0, cplx d1);
  /// Anti-diagonal [[0, a01], [a10, 0]] on qubit q (covers X, Y and
  /// products of either with diagonal gates).
  void apply_antidiag1(std::size_t q, cplx a01, cplx a10);
  /// Hadamard on qubit q (dedicated kernel: one real scale, no complex
  /// matrix product).
  void apply_h(std::size_t q);
  /// Pauli X on qubit q (pure amplitude swap).
  void apply_x(std::size_t q);
  /// 2-qubit gate; `high` indexes the more significant qubit of the 4x4
  /// matrix's 2-bit row index (row = 2*bit(high) + bit(low)).
  void apply2(std::size_t high, std::size_t low, const Mat4& u);
  /// U on `target`, controlled on every qubit in `controls` being |1>.
  void apply_controlled(const std::vector<std::size_t>& controls,
                        std::size_t target, const Mat2& u);
  void apply_cnot(std::size_t control, std::size_t target);
  void apply_cz(std::size_t a, std::size_t b);
  void apply_swap(std::size_t a, std::size_t b);
  /// Exact Pauli application including the operator's i^k phase.
  void apply_pauli(const pauli::PauliString& p);

  /// Applies the permutation |x> -> |pi(x)> over all basis states.
  /// `pi` must be a bijection on [0, dim); verified in debug paths by the
  /// caller (tests cover the library-provided permutations).
  void apply_permutation(const std::function<std::uint64_t(std::uint64_t)>& pi);

  /// Phase oracle: |x> -> -|x> for every x with predicate(x) true.
  void apply_phase_oracle(const std::function<bool(std::uint64_t)>& predicate);

  // --- Measurement and readout -------------------------------------------
  /// Probability that qubit q reads 1.
  double prob_one(std::size_t q) const;
  /// <Z_q> = P(0) - P(1).
  double expectation_z(std::size_t q) const;
  /// Projective Z measurement with collapse; returns the outcome.  The
  /// outcome is drawn from snap_probability(prob_one(q)), so a
  /// deterministic outcome consumes no randomness.
  bool measure(std::size_t q, Rng& rng);
  /// Forced-outcome collapse: projects qubit q onto `outcome` and
  /// renormalizes, returning the pre-projection probability of that outcome.
  /// Throws when the outcome has (numerically) zero probability.  This is
  /// the primitive that lets a differential oracle replay another backend's
  /// measurement record on a state vector without sharing an RNG stream.
  double project_z(std::size_t q, bool outcome);
  /// Discard-and-replace: measures q (outcome unobserved) and re-prepares
  /// |0>.  Physically equivalent to swapping in a fresh ancilla when the old
  /// qubit is never used again.
  void reset(std::size_t q, Rng& rng);

  // --- Analysis helpers ---------------------------------------------------
  double norm() const;
  void normalize();
  /// <this|other>.
  cplx inner_product(const StateVector& other) const;
  /// |<this|other>|^2.
  double fidelity(const StateVector& other) const;
  /// Reduced density matrix on `qubits` (row-major, dim 2^k x 2^k, k <= 12).
  /// qubits[0] is the least significant bit of the reduced index.
  std::vector<cplx> reduced_density_matrix(
      const std::vector<std::size_t>& qubits) const;
  /// <phi| rho_qubits |phi> where |phi> is a pure state on `qubits`.
  double subsystem_fidelity(const std::vector<std::size_t>& qubits,
                            const std::vector<cplx>& phi) const;

 private:
  std::size_t n_;
  std::vector<cplx> amp_;
  /// Reused full-dimension scratch for the out-of-place kernels
  /// (apply_pauli / apply_permutation): its capacity survives across calls
  /// so steady-state evolution allocates nothing.  StateVector is not
  /// internally synchronized; concurrent use of one instance — const or
  /// not — requires external locking (the parallel Monte-Carlo drivers use
  /// one StateVector per trial).
  mutable std::vector<cplx> scratch_;
  /// Reused index tables for reduced_density_matrix.
  mutable std::vector<std::uint64_t> kept_index_;
  mutable std::vector<std::uint64_t> env_index_;
};

}  // namespace eqc::qsim
