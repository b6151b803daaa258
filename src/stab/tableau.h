// Aaronson-Gottesman (CHP) stabilizer tableau simulator.
//
// Simulates Clifford circuits (H, S, S+, CNOT, CZ, SWAP, Paulis) plus
// Z-basis and Pauli-observable measurement, scaling to thousands of qubits.
// This is the engine behind the per-trial fault-injection Monte Carlo, the
// frame compiler's reference pass and every equivalence oracle: every
// circuit in the paper's Figures 1 and Section 5, and the Clifford skeleton
// of Figures 2-4, runs here.
//
// Rows follow the CHP paper: rows 0..n-1 are destabilizers, rows n..2n-1
// stabilizers; a row's (x,z) = (1,1) denotes Y, and r holds the +/- sign.
//
// Layout (qubit-major bit-planes, as in Stim, arXiv:2103.02202).  The 2n
// rows are bit positions: row r is bit r % 64 of word r / 64 of a column of
// W = ceil(2n / 64) words.  Each qubit q owns an X column and a Z column
// (adjacent, 2W words), and the signs of all rows form one more W-word
// column; everything lives in one flat allocation.  CHP's scratch row is
// not stored: deterministic outcomes are computed without materializing
// the product row.
//
// Cost per op (W = 1 for n <= 32, 3 at the 78-qubit Sec. 5 gadget):
//  * H, S, Sdg, X, Y, Z, CNOT, CZ, SWAP: O(W) word ops on one or two
//    columns — every row updated 64 at a time.
//  * apply_pauli(p): O(weight(p) * W).
//  * Random measurement (measure, measure_pauli): the pivot row is
//    multiplied into all anticommuting rows at once, column by column,
//    with the phases summed in bit-sliced mod-4 counters: O(n * W).
//  * Deterministic outcome / expectation_pauli / state_is_stabilized_by:
//    the product of the selected stabilizer rows is formed per column with
//    a prefix-parity sign count: O(n * W), no per-row PauliString.
//  * stabilizer(i) / destabilizer(i): O(n) bit gathers (introspection).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "pauli/pauli_string.h"

namespace eqc::stab {

class Tableau {
 public:
  /// |0...0> on `num_qubits` qubits.
  explicit Tableau(std::size_t num_qubits);

  std::size_t num_qubits() const { return n_; }

  // --- Clifford gates ------------------------------------------------------
  void h(std::size_t q);
  void s(std::size_t q);
  void sdg(std::size_t q);
  void x(std::size_t q);
  void y(std::size_t q);
  void z(std::size_t q);
  void cnot(std::size_t control, std::size_t target);
  void cz(std::size_t a, std::size_t b);
  void swap(std::size_t a, std::size_t b);

  /// Applies a Pauli operator (error injection). Phases of `p` only affect
  /// the state's global phase, which a tableau does not track.
  void apply_pauli(const pauli::PauliString& p);

  // --- Measurement ----------------------------------------------------------
  /// Projective Z measurement with collapse.
  bool measure(std::size_t q, Rng& rng);
  /// True iff a Z measurement of q would have a deterministic outcome.
  bool is_deterministic_z(std::size_t q) const;
  /// Outcome of a deterministic Z measurement (precondition: deterministic).
  bool deterministic_z_value(std::size_t q) const;
  /// <Z_q>: +1/-1 when deterministic, else 0.
  double expectation_z(std::size_t q) const;
  /// Collapse q to |0> (measure, flip if needed); outcome discarded.
  void reset(std::size_t q, Rng& rng);

  /// Measures an arbitrary Hermitian Pauli observable `p` (phase must be
  /// i^0 or i^2).  Returns m such that the post-measurement state is
  /// stabilized by (-1)^m * p.  Used by verification oracles to read
  /// syndromes and logical operators directly.
  bool measure_pauli(const pauli::PauliString& p, Rng& rng);
  /// <P>: +1/-1 when P (or -P) stabilizes the state, else 0.
  double expectation_pauli(const pauli::PauliString& p) const;

  // --- Introspection (used by tests and the code library) ------------------
  /// Stabilizer generator i (0 <= i < n), sign folded into phase (0 or 2).
  pauli::PauliString stabilizer(std::size_t i) const;
  pauli::PauliString destabilizer(std::size_t i) const;
  /// True iff `p` (with its sign; i^1/i^3 phases are rejected) stabilizes
  /// the current state.
  bool state_is_stabilized_by(const pauli::PauliString& p) const;
  /// Validates the internal symplectic invariants; throws on corruption.
  void check_invariants() const;

  /// Index i (0 <= i < n) of the first stabilizer generator anticommuting
  /// with Z_q (an X or Y at q) — the pivot row measure() would collapse —
  /// or n when none exists (Z_q deterministic).  Lets a caller capture
  /// stabilizer(i) *before* a random measurement rewrites it.
  std::size_t z_measure_pivot(std::size_t q) const;

 private:
  /// The product of a set of rows, multiplied in ascending row order:
  /// i^phase * prod_q X_q^{x_q} Z_q^{z_q} (PauliString's convention).
  struct RowProduct {
    int phase = 0;
    std::size_t num_y = 0;  ///< qubits with x_q = z_q = 1
  };

  std::uint64_t* xcol(std::size_t q) { return bits_.data() + 2 * q * w_; }
  std::uint64_t* zcol(std::size_t q) { return xcol(q) + w_; }
  std::uint64_t* signs() { return bits_.data() + 2 * n_ * w_; }
  const std::uint64_t* xcol(std::size_t q) const {
    return bits_.data() + 2 * q * w_;
  }
  const std::uint64_t* zcol(std::size_t q) const { return xcol(q) + w_; }
  const std::uint64_t* signs() const { return bits_.data() + 2 * n_ * w_; }

  /// Word `w` of the mask of rows in [lo, hi).
  std::uint64_t row_range_word(std::size_t w, std::size_t lo,
                               std::size_t hi) const;
  /// First row >= lo set in `mask`, or 2n when none.
  std::size_t first_row(const std::uint64_t* mask, std::size_t lo) const;
  /// out = rows anticommuting with p (p's qubit count must be n).
  void anticommuting_rows(const pauli::PauliString& p,
                          std::uint64_t* out) const;
  /// out = the stabilizer rows n + i for destabilizer rows i set in `m`.
  void destab_to_stab_rows(const std::uint64_t* m, std::uint64_t* out) const;
  /// Product of the rows in `mask`.  When `out_x` is non-null, writes its
  /// X / Z bits to out_x / out_z (PauliString word layout).
  RowProduct multiply_rows(const std::uint64_t* mask, std::uint64_t* out_x,
                           std::uint64_t* out_z) const;
  /// multiply_rows for columns of kW words (0 = w_, known at run time).
  template <std::size_t kW>
  RowProduct multiply_rows_w(const std::uint64_t* mask, std::uint64_t* out_x,
                             std::uint64_t* out_z) const;
  /// For p commuting with every stabilizer (`anti` = its anticommuting
  /// rows): +1 if p is in the stabilizer group, -1 if -p is, else 0.
  int stabilizer_sign(const pauli::PauliString& p,
                      const std::uint64_t* anti) const;
  /// row h *= row p for every row h in `mask` (p not in mask), with CHP's
  /// exact sign rule for each.
  void multiply_into_rows(const std::uint64_t* mask, std::size_t p);
  /// Row `dst` := row `src`; row `src` := the identity with sign 0.
  void move_row(std::size_t dst, std::size_t src);
  /// Sign bit of the deterministic Z_q outcome (precondition: deterministic).
  bool deterministic_sign(std::size_t q) const;
  pauli::PauliString row_to_pauli(std::size_t row) const;

  std::size_t n_;
  std::size_t w_;  // words per column: ceil(2n / 64)
  // n (X column, Z column) pairs, then the sign column.
  std::vector<std::uint64_t> bits_;
};

}  // namespace eqc::stab
