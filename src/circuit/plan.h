// The execution plan: a circuit's ASAP schedule flattened, once, into the
// executor's deterministic visit order.
//
// The order is: one Input fault site per used qubit (a prefix the executor
// skips unless ExecOptions::include_input_sites), then moment by moment
// every op followed by its fault site (a MeasureZ's site comes first: the
// fault strikes before the readout), then the moment's idle ("delay
// line") sites.  execute(), enumerate_fault_sites() and the frame
// compiler all walk this one list, so the order is written down once, and
// a trial pays no scheduling and no per-site allocation: the FaultSites
// the injector sees are prebuilt here.
//
// A Circuit builds its plan lazily on first use and keeps it until the
// next mutation (Circuit::plan()); the plan itself is immutable and shared
// by copies of the circuit.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace eqc::circuit {

class Circuit;

/// The 1-3 qubits a fault site may act on, stored inline.
class SiteQubits {
 public:
  SiteQubits() = default;
  SiteQubits(std::initializer_list<std::uint32_t> qubits);

  std::size_t size() const { return size_; }
  std::uint32_t operator[](std::size_t i) const { return q_[i]; }
  const std::uint32_t* data() const { return q_.data(); }
  const std::uint32_t* begin() const { return q_.data(); }
  const std::uint32_t* end() const { return q_.data() + size_; }
  void push_back(std::uint32_t q);

  friend bool operator==(const SiteQubits& a, const SiteQubits& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::array<std::uint32_t, 3> q_{};
  std::uint8_t size_ = 0;
};

struct FaultSite {
  enum class Kind : std::uint8_t {
    Input,         ///< error on an input qubit before the circuit starts
    PrepOutput,    ///< error after an ancilla (re-)preparation
    GateOutput,    ///< error after a unitary gate
    MeasureInput,  ///< error right before a measurement
    Idle,          ///< storage error on a waiting qubit ("delay line")
  };

  Kind kind;
  std::size_t ordinal;  ///< position in the deterministic visitation order
  std::size_t moment;
  std::size_t op_index;  ///< index into circuit.ops(); kNoOp for Input/Idle
  SiteQubits qubits;     ///< qubits the fault may act on

  static constexpr std::size_t kNoOp = ~std::size_t{0};
};

class ExecPlan {
 public:
  /// Flattens `circuit`'s schedule; counts one Stable `circuit.plans_built`.
  explicit ExecPlan(const Circuit& circuit);

  /// The fault sites visited without input sites, in order; element i has
  /// ordinal i.
  std::span<const FaultSite> fault_sites() const {
    return std::span<const FaultSite>(sites_).subspan(num_inputs_);
  }

  /// Calls on_op(op_index) and on_site(const FaultSite&) in visit order.
  /// With include_input_sites the Input prefix is visited too and every
  /// site's ordinal counts it.
  template <class OnOp, class OnSite>
  void visit(bool include_input_sites, OnOp&& on_op, OnSite&& on_site) const {
    for (std::size_t i = include_input_sites ? 0 : num_inputs_;
         i < steps_.size(); ++i) {
      const std::uint32_t s = steps_[i];
      if ((s & kSiteStep) == 0) {
        on_op(static_cast<std::size_t>(s));
      } else if (!include_input_sites) {
        on_site(sites_[s & ~kSiteStep]);
      } else {
        FaultSite site = sites_[s & ~kSiteStep];
        site.ordinal = s & ~kSiteStep;
        on_site(site);
      }
    }
  }

 private:
  static constexpr std::uint32_t kSiteStep = std::uint32_t{1} << 31;

  std::vector<FaultSite> sites_;  // Input prefix, then the rest
  std::size_t num_inputs_ = 0;
  // Op index, or kSiteStep | site index; the first num_inputs_ steps are
  // the Input sites.
  std::vector<std::uint32_t> steps_;
};

}  // namespace eqc::circuit
