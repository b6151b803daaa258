// Stabilizer-tableau implementation of the Backend interface.
//
// Non-Clifford handling:
//  * T / Tdg throw — they are never needed in the circuits this backend runs.
//  * CCX / CCZ are *lowered*: if at least one participating control is in a
//    deterministic Z-basis state (the "classical ancilla" regime of the
//    paper) the gate reduces to identity or CNOT/CZ, which are Clifford.
//    This is not a hack: the paper's Sec. 5 observation is precisely that
//    classical-basis controls make these gates classical reversible logic.
#pragma once

#include "circuit/backend.h"
#include "stab/tableau.h"

namespace eqc::circuit {

// Not `final`: src/testing fuzzes the backend pair by subclassing this with
// deliberately wrong gate implementations (planted bugs) and checking that
// the differential oracle flags them.
class TabBackend : public Backend {
 public:
  TabBackend(std::size_t num_qubits, Rng rng)
      : tab_(num_qubits), rng_(rng) {}
  TabBackend(const TabBackend&) = delete;
  TabBackend& operator=(const TabBackend&) = delete;
  /// Adds this backend's work to the Stable `tableau.gates`,
  /// `tableau.measurements_random` and `tableau.measurements_deterministic`
  /// counters — once per backend (trial), never per op.
  ~TabBackend() override;

  stab::Tableau& tableau() { return tab_; }
  const stab::Tableau& tableau() const { return tab_; }

  std::size_t num_qubits() const override { return tab_.num_qubits(); }

  void prep_z(std::size_t q) override { reset(q); }
  void prep_x(std::size_t q) override {
    reset(q);
    gate().h(q);
  }
  void h(std::size_t q) override { gate().h(q); }
  void x(std::size_t q) override { gate().x(q); }
  void y(std::size_t q) override { gate().y(q); }
  void z(std::size_t q) override { gate().z(q); }
  void s(std::size_t q) override { gate().s(q); }
  void sdg(std::size_t q) override { gate().sdg(q); }
  [[noreturn]] void t(std::size_t q) override;
  [[noreturn]] void tdg(std::size_t q) override;
  void cnot(std::size_t c, std::size_t t) override { gate().cnot(c, t); }
  void cz(std::size_t a, std::size_t b) override { gate().cz(a, b); }
  void cs(std::size_t c, std::size_t t) override;
  void csdg(std::size_t c, std::size_t t) override;
  void swap(std::size_t a, std::size_t b) override { gate().swap(a, b); }
  void ccx(std::size_t c0, std::size_t c1, std::size_t t) override;
  void ccz(std::size_t a, std::size_t b, std::size_t c) override;

  bool measure_z(std::size_t q) override {
    count_measurement(q);
    return tab_.measure(q, rng_);
  }
  double expectation_z(std::size_t q) const override {
    return tab_.expectation_z(q);
  }
  void apply_pauli(const pauli::PauliString& p) override {
    tab_.apply_pauli(p);
  }
  Rng& rng() override { return rng_; }

 private:
  /// The tableau, after counting one gate on it.
  stab::Tableau& gate() {
    ++gates_;
    return tab_;
  }
  void count_measurement(std::size_t q) {
    ++(tab_.is_deterministic_z(q) ? measurements_det_ : measurements_random_);
  }
  void reset(std::size_t q) {
    count_measurement(q);
    tab_.reset(q, rng_);
  }

  stab::Tableau tab_;
  Rng rng_;
  std::uint64_t gates_ = 0;
  std::uint64_t measurements_random_ = 0;
  std::uint64_t measurements_det_ = 0;
};

}  // namespace eqc::circuit
