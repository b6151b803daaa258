#include "circuit/plan.h"

#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "common/assert.h"
#include "obs/metrics.h"

namespace eqc::circuit {

namespace {

FaultSite::Kind site_kind(OpKind k) {
  switch (k) {
    case OpKind::PrepZ:
    case OpKind::PrepX:
      return FaultSite::Kind::PrepOutput;
    case OpKind::MeasureZ:
      return FaultSite::Kind::MeasureInput;
    case OpKind::Idle:
      return FaultSite::Kind::Idle;
    default:
      return FaultSite::Kind::GateOutput;
  }
}

SiteQubits op_qubits(const Op& op) {
  SiteQubits qs;
  for (int k = 0; k < arity(op.kind); ++k) qs.push_back(op.q[k]);
  return qs;
}

obs::Counter& plans_built_counter() {
  static obs::Counter& c =
      obs::counter("circuit.plans_built", obs::Det::Stable);
  return c;
}

}  // namespace

SiteQubits::SiteQubits(std::initializer_list<std::uint32_t> qubits) {
  for (std::uint32_t q : qubits) push_back(q);
}

void SiteQubits::push_back(std::uint32_t q) {
  EQC_EXPECTS(size_ < q_.size());
  q_[size_++] = q;
}

ExecPlan::ExecPlan(const Circuit& circuit) {
  const Schedule sched = schedule(circuit);
  const auto& ops = circuit.ops();
  EQC_EXPECTS(ops.size() < kSiteStep);

  auto add_site = [&](FaultSite::Kind kind, std::size_t moment,
                      std::size_t op_index, SiteQubits qubits) {
    const std::size_t index = sites_.size();
    EQC_EXPECTS(index < kSiteStep);
    // Input sites are numbered from 0; the rest from 0 after the prefix.
    const std::size_t ordinal =
        kind == FaultSite::Kind::Input ? index : index - num_inputs_;
    sites_.push_back(FaultSite{kind, ordinal, moment, op_index, qubits});
    steps_.push_back(kSiteStep | static_cast<std::uint32_t>(index));
  };

  const std::size_t kNever = ~std::size_t{0};
  for (std::uint32_t q = 0; q < circuit.num_qubits(); ++q)
    if (sched.first_use[q] != kNever)
      add_site(FaultSite::Kind::Input, 0, FaultSite::kNoOp, {q});
  num_inputs_ = sites_.size();

  for (std::size_t t = 0; t < sched.moments.size(); ++t) {
    for (std::size_t idx : sched.moments[t]) {
      const Op& op = ops[idx];
      const auto step = static_cast<std::uint32_t>(idx);
      if (op.kind == OpKind::MeasureZ) {
        // Fault strikes before the readout (models readout error).
        add_site(FaultSite::Kind::MeasureInput, t, idx, op_qubits(op));
        steps_.push_back(step);
      } else {
        steps_.push_back(step);
        add_site(site_kind(op.kind), t, idx, op_qubits(op));
      }
    }
    for (std::uint32_t q : sched.idle[t])
      add_site(FaultSite::Kind::Idle, t, FaultSite::kNoOp, {q});
  }
  plans_built_counter().add(1);
}

// --- Circuit's memoised plan -------------------------------------------------

namespace detail {

PlanSlot::PlanSlot(const PlanSlot& other) { set(other.current()); }

PlanSlot::PlanSlot(PlanSlot&& other) noexcept {
  set(other.current());
  other.clear();
}

PlanSlot& PlanSlot::operator=(const PlanSlot& other) {
  if (this != &other) set(other.current());
  return *this;
}

PlanSlot& PlanSlot::operator=(PlanSlot&& other) noexcept {
  if (this != &other) {
    set(other.current());
    other.clear();
  }
  return *this;
}

std::shared_ptr<const ExecPlan> PlanSlot::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

void PlanSlot::set(std::shared_ptr<const ExecPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
  fast_.store(plan_.get(), std::memory_order_release);
}

void PlanSlot::clear() {
  // Mutations never race with const use, and fast_ == plan_.get() always,
  // so an unplanned circuit skips the lock (builders push op by op).
  if (fast_.load(std::memory_order_relaxed) != nullptr) set(nullptr);
}

const ExecPlan& PlanSlot::get(const Circuit& c) const {
  if (const ExecPlan* p = fast_.load(std::memory_order_acquire)) return *p;
  return *shared(c);
}

std::shared_ptr<const ExecPlan> PlanSlot::shared(const Circuit& c) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_ == nullptr) {
    plan_ = std::make_shared<const ExecPlan>(c);
    fast_.store(plan_.get(), std::memory_order_release);
  }
  return plan_;
}

}  // namespace detail

const ExecPlan& Circuit::plan() const { return plan_.get(*this); }

std::shared_ptr<const ExecPlan> Circuit::shared_plan() const {
  return plan_.shared(*this);
}

}  // namespace eqc::circuit
