#include "circuit/circuit.h"

#include <sstream>

#include "common/assert.h"

namespace eqc::circuit {

Circuit::Circuit(std::size_t num_qubits) : num_qubits_(num_qubits) {
  EQC_EXPECTS(num_qubits > 0);
}

void Circuit::check_qubit(std::uint32_t q) const {
  EQC_EXPECTS(q < num_qubits_);
}

Circuit& Circuit::push(OpKind kind, std::uint32_t q0, std::uint32_t q1,
                       std::uint32_t q2, std::uint32_t carg) {
  Op op;
  op.kind = kind;
  op.q = {q0, q1, q2};
  op.carg = carg;
  const int a = arity(kind);
  for (int i = 0; i < a; ++i) {
    EQC_EXPECTS(op.q[i] != kNoOperand);
    check_qubit(op.q[i]);
    for (int j = 0; j < i; ++j) EQC_EXPECTS(op.q[i] != op.q[j]);
  }
  ops_.push_back(op);
  plan_.clear();
  return *this;
}

Circuit& Circuit::prep_z(std::uint32_t q) { return push(OpKind::PrepZ, q); }
Circuit& Circuit::prep_x(std::uint32_t q) { return push(OpKind::PrepX, q); }
Circuit& Circuit::h(std::uint32_t q) { return push(OpKind::H, q); }
Circuit& Circuit::x(std::uint32_t q) { return push(OpKind::X, q); }
Circuit& Circuit::y(std::uint32_t q) { return push(OpKind::Y, q); }
Circuit& Circuit::z(std::uint32_t q) { return push(OpKind::Z, q); }
Circuit& Circuit::s(std::uint32_t q) { return push(OpKind::S, q); }
Circuit& Circuit::sdg(std::uint32_t q) { return push(OpKind::Sdg, q); }
Circuit& Circuit::t(std::uint32_t q) { return push(OpKind::T, q); }
Circuit& Circuit::tdg(std::uint32_t q) { return push(OpKind::Tdg, q); }
Circuit& Circuit::cnot(std::uint32_t c, std::uint32_t t) {
  return push(OpKind::CNOT, c, t);
}
Circuit& Circuit::cz(std::uint32_t a, std::uint32_t b) {
  return push(OpKind::CZ, a, b);
}
Circuit& Circuit::cs(std::uint32_t c, std::uint32_t t) {
  return push(OpKind::CS, c, t);
}
Circuit& Circuit::csdg(std::uint32_t c, std::uint32_t t) {
  return push(OpKind::CSdg, c, t);
}
Circuit& Circuit::swap(std::uint32_t a, std::uint32_t b) {
  return push(OpKind::Swap, a, b);
}
Circuit& Circuit::ccx(std::uint32_t c0, std::uint32_t c1, std::uint32_t t) {
  return push(OpKind::CCX, c0, c1, t);
}
Circuit& Circuit::ccz(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return push(OpKind::CCZ, a, b, c);
}
Circuit& Circuit::idle(std::uint32_t q) { return push(OpKind::Idle, q); }

std::uint32_t Circuit::measure_z(std::uint32_t q) {
  const auto slot = static_cast<std::uint32_t>(num_cbits_++);
  push(OpKind::MeasureZ, q, kNoOperand, kNoOperand, slot);
  return slot;
}

std::uint32_t Circuit::add_classical_func(ClassicalFunc f) {
  EQC_EXPECTS(f != nullptr);
  funcs_.push_back(std::move(f));
  return static_cast<std::uint32_t>(funcs_.size() - 1);
}

std::uint32_t Circuit::cbit_func(std::uint32_t slot) {
  return add_classical_func(
      [slot](const std::vector<bool>& bits) { return bits.at(slot); });
}

Circuit& Circuit::x_if(std::uint32_t f, std::uint32_t q) {
  EQC_EXPECTS(f < funcs_.size());
  return push(OpKind::XIfC, q, kNoOperand, kNoOperand, f);
}
Circuit& Circuit::z_if(std::uint32_t f, std::uint32_t q) {
  EQC_EXPECTS(f < funcs_.size());
  return push(OpKind::ZIfC, q, kNoOperand, kNoOperand, f);
}
Circuit& Circuit::s_if(std::uint32_t f, std::uint32_t q) {
  EQC_EXPECTS(f < funcs_.size());
  return push(OpKind::SIfC, q, kNoOperand, kNoOperand, f);
}
Circuit& Circuit::sdg_if(std::uint32_t f, std::uint32_t q) {
  EQC_EXPECTS(f < funcs_.size());
  return push(OpKind::SdgIfC, q, kNoOperand, kNoOperand, f);
}
Circuit& Circuit::cnot_if(std::uint32_t f, std::uint32_t c, std::uint32_t t) {
  EQC_EXPECTS(f < funcs_.size());
  return push(OpKind::CNOTIfC, c, t, kNoOperand, f);
}
Circuit& Circuit::cz_if(std::uint32_t f, std::uint32_t a, std::uint32_t b) {
  EQC_EXPECTS(f < funcs_.size());
  return push(OpKind::CZIfC, a, b, kNoOperand, f);
}

Circuit& Circuit::append(const Circuit& other) {
  EQC_EXPECTS(other.num_qubits_ == num_qubits_);
  const auto cbit_base = static_cast<std::uint32_t>(num_cbits_);
  const auto func_base = static_cast<std::uint32_t>(funcs_.size());
  for (const auto& f : other.funcs_) {
    // Re-base: the imported condition sees the imported measurement slots.
    funcs_.push_back([f, cbit_base](const std::vector<bool>& bits) {
      std::vector<bool> shifted(bits.begin() + cbit_base, bits.end());
      return f(shifted);
    });
  }
  for (Op op : other.ops_) {
    if (op.kind == OpKind::MeasureZ)
      op.carg += cbit_base;
    else if (is_classically_controlled(op.kind))
      op.carg += func_base;
    ops_.push_back(op);
  }
  num_cbits_ += other.num_cbits_;
  plan_.clear();
  return *this;
}

Circuit inverse(const Circuit& c) {
  Circuit inv(c.num_qubits());
  const auto& ops = c.ops();
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    const Op& op = *it;
    switch (op.kind) {
      case OpKind::H: inv.h(op.q[0]); break;
      case OpKind::X: inv.x(op.q[0]); break;
      case OpKind::Y: inv.y(op.q[0]); break;
      case OpKind::Z: inv.z(op.q[0]); break;
      case OpKind::S: inv.sdg(op.q[0]); break;
      case OpKind::Sdg: inv.s(op.q[0]); break;
      case OpKind::T: inv.tdg(op.q[0]); break;
      case OpKind::Tdg: inv.t(op.q[0]); break;
      case OpKind::CNOT: inv.cnot(op.q[0], op.q[1]); break;
      case OpKind::CZ: inv.cz(op.q[0], op.q[1]); break;
      case OpKind::CS: inv.csdg(op.q[0], op.q[1]); break;
      case OpKind::CSdg: inv.cs(op.q[0], op.q[1]); break;
      case OpKind::Swap: inv.swap(op.q[0], op.q[1]); break;
      case OpKind::CCX: inv.ccx(op.q[0], op.q[1], op.q[2]); break;
      case OpKind::CCZ: inv.ccz(op.q[0], op.q[1], op.q[2]); break;
      default:
        throw ContractViolation(
            "inverse(): circuit contains a non-unitary op: " +
            std::string(name(op.kind)));
    }
  }
  return inv;
}

std::string Circuit::to_string() const {
  std::ostringstream os;
  for (const Op& op : ops_) {
    os << name(op.kind);
    for (int i = 0; i < arity(op.kind); ++i) os << ' ' << op.q[i];
    if (op.carg != kNoOperand) os << " c" << op.carg;
    os << '\n';
  }
  return os.str();
}

}  // namespace eqc::circuit
