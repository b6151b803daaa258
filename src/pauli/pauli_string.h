// n-qubit Pauli operators with exact phase tracking, plus their conjugation
// through the Clifford gates used everywhere in the fault-tolerance
// constructions (error propagation: how a fault at one location spreads).
//
// Representation: P = i^phase * prod_q X_q^{x_q} Z_q^{z_q}, with the X part
// written to the left of the Z part on every qubit.  Under this convention
//   (x=1,z=0) -> X,  (x=0,z=1) -> Z,  (x=1,z=1) -> XZ = -iY.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace eqc::pauli {

/// Single-qubit Pauli label.
enum class Pauli : std::uint8_t { I = 0, X = 1, Y = 2, Z = 3 };

char to_char(Pauli p);

/// An n-qubit Pauli operator with an i^k global phase.
class PauliString {
 public:
  PauliString() = default;
  explicit PauliString(std::size_t num_qubits);

  /// Parse from e.g. "XIZY" (qubit 0 first). Throws on bad characters.
  static PauliString from_string(const std::string& labels);

  /// Weight-1 operator: `p` on `qubit`, identity elsewhere.
  static PauliString single(std::size_t num_qubits, std::size_t qubit, Pauli p);

  std::size_t num_qubits() const { return n_; }

  Pauli get(std::size_t qubit) const;
  void set(std::size_t qubit, Pauli p);

  bool x_bit(std::size_t qubit) const;
  bool z_bit(std::size_t qubit) const;
  /// Packed bits: qubit q is bit q % 64 of word q / 64 (unused bits 0).
  const std::vector<std::uint64_t>& x_words() const { return x_; }
  const std::vector<std::uint64_t>& z_words() const { return z_; }
  void set_bits(std::size_t qubit, bool x, bool z);

  /// Phase exponent k in i^k (0..3).
  int phase() const { return phase_; }
  void set_phase(int k) { phase_ = ((k % 4) + 4) % 4; }

  /// True iff the operator is Hermitian (overall sign +-1 once the i
  /// factors of the stored Y = i XZ qubits are accounted for).
  bool is_hermitian() const;
  /// Number of qubits with both x and z bits set (label Y).
  std::size_t count_y() const;

  /// Number of qubits acted on non-trivially.
  std::size_t weight() const;
  /// Indices of qubits acted on non-trivially.
  std::vector<std::size_t> support() const;
  bool is_identity() const;  ///< identity up to phase

  /// True iff this commutes with other (phases are irrelevant).
  bool commutes_with(const PauliString& other) const;

  /// In-place multiplication: *this = *this * other (phase-exact).
  void multiply_by(const PauliString& other);

  // --- Conjugation by Clifford gates: P -> U P U^dagger (phase-exact). ---
  void conjugate_h(std::size_t q);
  void conjugate_s(std::size_t q);      ///< S = diag(1, i)
  void conjugate_sdg(std::size_t q);    ///< S^dagger
  void conjugate_x(std::size_t q);
  void conjugate_y(std::size_t q);
  void conjugate_z(std::size_t q);
  void conjugate_cnot(std::size_t control, std::size_t target);
  void conjugate_cz(std::size_t a, std::size_t b);
  void conjugate_swap(std::size_t a, std::size_t b);

  /// Uniformly random non-identity single-qubit Pauli placed on `qubit`.
  static PauliString random_single(std::size_t num_qubits, std::size_t qubit,
                                   Rng& rng);

  /// Uniformly random n-qubit Pauli label string (phase 0; may be identity).
  static PauliString random(std::size_t num_qubits, Rng& rng);

  std::string to_string() const;  ///< labels only, e.g. "XIZY"

  friend bool operator==(const PauliString& a, const PauliString& b);

 private:
  std::size_t word(std::size_t qubit) const { return qubit >> 6; }
  std::uint64_t bit(std::size_t qubit) const { return 1ULL << (qubit & 63); }

  std::size_t n_ = 0;
  std::vector<std::uint64_t> x_;
  std::vector<std::uint64_t> z_;
  int phase_ = 0;  // exponent of i
};

}  // namespace eqc::pauli
