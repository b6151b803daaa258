// Circuit container + fluent builder.
//
// A Circuit owns a fixed-width qubit register, an op list, the classical
// bits written by measurements, and the classical condition functions used
// by the measurement-based baseline protocols.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "circuit/op.h"

namespace eqc::circuit {

class Circuit;
class ExecPlan;

namespace detail {

/// A Circuit's memoised execution plan: built at most once per revision,
/// under a mutex, then read lock-free; copies share the immutable plan.
class PlanSlot {
 public:
  PlanSlot() = default;
  PlanSlot(const PlanSlot& other);
  PlanSlot(PlanSlot&& other) noexcept;
  PlanSlot& operator=(const PlanSlot& other);
  PlanSlot& operator=(PlanSlot&& other) noexcept;

  const ExecPlan& get(const Circuit& c) const;
  std::shared_ptr<const ExecPlan> shared(const Circuit& c) const;
  void clear();

 private:
  std::shared_ptr<const ExecPlan> current() const;
  void set(std::shared_ptr<const ExecPlan> plan);

  mutable std::mutex mu_;
  mutable std::shared_ptr<const ExecPlan> plan_;
  mutable std::atomic<const ExecPlan*> fast_{nullptr};  // == plan_.get()
};

}  // namespace detail

/// Classical predicate over the measured bits.
using ClassicalFunc = std::function<bool(const std::vector<bool>&)>;

class Circuit {
 public:
  explicit Circuit(std::size_t num_qubits);

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t num_cbits() const { return num_cbits_; }
  const std::vector<Op>& ops() const { return ops_; }
  const std::vector<ClassicalFunc>& classical_funcs() const { return funcs_; }

  // --- Builder (each returns *this for chaining). -------------------------
  Circuit& prep_z(std::uint32_t q);
  Circuit& prep_x(std::uint32_t q);
  Circuit& h(std::uint32_t q);
  Circuit& x(std::uint32_t q);
  Circuit& y(std::uint32_t q);
  Circuit& z(std::uint32_t q);
  Circuit& s(std::uint32_t q);
  Circuit& sdg(std::uint32_t q);
  Circuit& t(std::uint32_t q);
  Circuit& tdg(std::uint32_t q);
  Circuit& cnot(std::uint32_t control, std::uint32_t target);
  Circuit& cz(std::uint32_t a, std::uint32_t b);
  Circuit& cs(std::uint32_t control, std::uint32_t target);
  Circuit& csdg(std::uint32_t control, std::uint32_t target);
  Circuit& swap(std::uint32_t a, std::uint32_t b);
  Circuit& ccx(std::uint32_t c0, std::uint32_t c1, std::uint32_t target);
  Circuit& ccz(std::uint32_t a, std::uint32_t b, std::uint32_t c);
  Circuit& idle(std::uint32_t q);
  /// Allocates a classical slot, returns its index.
  std::uint32_t measure_z(std::uint32_t q);

  /// Registers a classical condition; returns its id for the *_if ops.
  std::uint32_t add_classical_func(ClassicalFunc f);
  /// Condition that is simply "classical bit `slot` is 1".
  std::uint32_t cbit_func(std::uint32_t slot);

  Circuit& x_if(std::uint32_t func_id, std::uint32_t q);
  Circuit& z_if(std::uint32_t func_id, std::uint32_t q);
  Circuit& s_if(std::uint32_t func_id, std::uint32_t q);
  Circuit& sdg_if(std::uint32_t func_id, std::uint32_t q);
  Circuit& cnot_if(std::uint32_t func_id, std::uint32_t control,
                   std::uint32_t target);
  Circuit& cz_if(std::uint32_t func_id, std::uint32_t a, std::uint32_t b);

  /// Appends all ops of `other` (same register width required); classical
  /// slots and functions of `other` are re-based onto this circuit.
  Circuit& append(const Circuit& other);

  /// Total op count (= gate fault locations, before idle/input locations).
  std::size_t size() const { return ops_.size(); }

  /// Multi-line human-readable dump (debugging aid).
  std::string to_string() const;

  /// The execution plan of the current op list (circuit/plan.h): built on
  /// first use — exactly once per revision, also when many threads execute
  /// the circuit at once — and dropped by every mutation.  The reference
  /// is valid until the circuit is next modified or destroyed.
  const ExecPlan& plan() const;
  /// The same plan with shared ownership (outlives the circuit).
  std::shared_ptr<const ExecPlan> shared_plan() const;

 private:
  Circuit& push(OpKind kind, std::uint32_t q0 = kNoOperand,
                std::uint32_t q1 = kNoOperand, std::uint32_t q2 = kNoOperand,
                std::uint32_t carg = kNoOperand);
  void check_qubit(std::uint32_t q) const;

  std::size_t num_qubits_;
  std::size_t num_cbits_ = 0;
  std::vector<Op> ops_;
  std::vector<ClassicalFunc> funcs_;
  detail::PlanSlot plan_;
};

/// The inverse of a purely unitary circuit: each gate replaced by its
/// adjoint, in reverse order.  Throws ContractViolation on preparations,
/// measurements, idles, or classically controlled ops (not invertible /
/// not unitary).  `c` followed by `inverse(c)` is the identity channel.
Circuit inverse(const Circuit& c);

}  // namespace eqc::circuit
