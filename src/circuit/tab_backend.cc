#include "circuit/tab_backend.h"

#include "common/assert.h"
#include "obs/metrics.h"

namespace eqc::circuit {

TabBackend::~TabBackend() {
  static obs::Counter& gates = obs::counter("tableau.gates");
  static obs::Counter& random = obs::counter("tableau.measurements_random");
  static obs::Counter& det =
      obs::counter("tableau.measurements_deterministic");
  gates.add(gates_);
  random.add(measurements_random_);
  det.add(measurements_det_);
}

void TabBackend::t(std::size_t) {
  throw ContractViolation("TabBackend: T gate is not Clifford");
}
void TabBackend::tdg(std::size_t) {
  throw ContractViolation("TabBackend: Tdg gate is not Clifford");
}

void TabBackend::cs(std::size_t c, std::size_t t) {
  // Lowered when the control is classical (the classical-ancilla regime).
  if (tab_.is_deterministic_z(c)) {
    if (tab_.deterministic_z_value(c)) gate().s(t);
    return;
  }
  throw ContractViolation(
      "TabBackend: controlled-S with non-classical control is not Clifford");
}

void TabBackend::csdg(std::size_t c, std::size_t t) {
  if (tab_.is_deterministic_z(c)) {
    if (tab_.deterministic_z_value(c)) gate().sdg(t);
    return;
  }
  throw ContractViolation(
      "TabBackend: controlled-Sdg with non-classical control is not Clifford");
}

void TabBackend::ccx(std::size_t c0, std::size_t c1, std::size_t t) {
  // Lower using whichever control is classical (deterministic Z value).
  if (tab_.is_deterministic_z(c0)) {
    if (tab_.deterministic_z_value(c0)) gate().cnot(c1, t);
    return;
  }
  if (tab_.is_deterministic_z(c1)) {
    if (tab_.deterministic_z_value(c1)) gate().cnot(c0, t);
    return;
  }
  throw ContractViolation(
      "TabBackend: CCX with both controls non-classical cannot be lowered");
}

void TabBackend::ccz(std::size_t a, std::size_t b, std::size_t c) {
  // CCZ is symmetric: any deterministic participant lowers it.
  const std::size_t qs[3] = {a, b, c};
  for (int i = 0; i < 3; ++i) {
    if (tab_.is_deterministic_z(qs[i])) {
      if (tab_.deterministic_z_value(qs[i]))
        gate().cz(qs[(i + 1) % 3], qs[(i + 2) % 3]);
      return;
    }
  }
  throw ContractViolation(
      "TabBackend: CCZ with no classical participant cannot be lowered");
}

}  // namespace eqc::circuit
