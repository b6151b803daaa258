// Fault experiments and the single-fault universe — the vocabulary of the
// paper's evaluation methodology: "The threshold can easily be calculated
// by counting the potential places for two errors."
//
// A FaultExperiment is a gadget circuit with a noiseless preparation
// prefix, plus a failure oracle.  This header defines which faults a site
// can carry (FaultModel), the single-fault universe as a compact index
// (SingleFaultIndex: fault i decodes on demand to its site and site-local
// pattern, so counting never has to hold the universe as full-width
// PauliStrings), its materialized form (enumerate_single_faults) and the
// per-trial reference executor (run_with_faults).  Counting itself — the
// single-fault check, malignant pairs, the p^k coefficient and
// pseudo-threshold — is analysis::run_campaign (campaign.h), the one engine
// that enumerates and judges fault sets.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "common/rng.h"
#include "frame/driver.h"
#include "noise/model.h"

namespace eqc::analysis {

/// Which errors one fault location can produce.
enum class FaultModel {
  /// One Pauli on ONE qubit of the site — the paper's counting model
  /// ("probability p of an error per gate, per input bit, per delay line").
  SingleQubit,
  /// Any non-identity Pauli on the site's qubit set (correlated multi-qubit
  /// gate faults).  Strictly stronger; see EXPERIMENTS.md for where the two
  /// models diverge.
  FullDepolarizing,
  /// One Z on ONE qubit of the site — the enumeration counterpart of the
  /// dephasing-dominated noise::Channel::BiasedZ (the bias-1 limit).
  SingleQubitZ,
};

/// A FaultExperiment's failure oracle: the per-trial predicate (true =
/// logical failure), plus an optional frame-engine factory that, given the
/// program compiled from (prep, gadget, seed), returns a 64-lane verdict
/// word reproducing the predicate bit for bit.  The two travel together:
/// assigning a new predicate (a lambda, a std::function, nullptr) drops
/// the factory, so an overridden predicate is never judged by the old
/// closed form.  Without a factory the campaign judges lanes with
/// make_generic_frame_oracle (a tableau replay per lane).
class FailureOracle {
 public:
  using Predicate =
      std::function<bool(circuit::TabBackend&, const circuit::ExecResult&)>;
  using FrameFactory =
      std::function<frame::BatchOracle(const frame::FrameProgram&)>;

  FailureOracle() = default;
  /// A bare predicate (or nullptr): no frame factory.
  template <class F>
    requires std::constructible_from<Predicate, F> &&
             (!std::same_as<std::remove_cvref_t<F>, FailureOracle>)
  FailureOracle(F&& predicate)  // NOLINT: implicit by design
      : predicate_(std::forward<F>(predicate)) {}

  bool operator()(circuit::TabBackend& backend,
                  const circuit::ExecResult& result) const {
    return predicate_(backend, result);
  }
  explicit operator bool() const { return static_cast<bool>(predicate_); }
  friend bool operator==(const FailureOracle& f, std::nullptr_t) {
    return !f.predicate_;
  }

  /// The word-oracle factory paired with this predicate; empty when none.
  const FrameFactory& frame_factory() const { return frame_factory_; }
  /// Pairs the current predicate with a factory that reproduces it.
  void set_frame_factory(FrameFactory factory) {
    frame_factory_ = std::move(factory);
  }

 private:
  Predicate predicate_;
  FrameFactory frame_factory_;
};

struct FaultExperiment {
  std::size_t num_qubits = 0;
  circuit::Circuit prep{1};    ///< run noiselessly before the gadget
  circuit::Circuit gadget{1};  ///< every site here is a fault location
  /// Judges a completed run; true = logical failure.  build_gadget_experiment
  /// pairs it with the closed-form frame oracle of frame_oracle.h.
  FailureOracle failed;
  std::uint64_t seed = 1;  ///< RNG seed used identically for every run
  FaultModel model = FaultModel::SingleQubit;
};

/// A concrete fault: a Pauli at one site of the gadget.
struct Fault {
  std::size_t ordinal;
  pauli::PauliString error;
};

/// A fault in site-local form: `error` acts on the qubits of gadget site
/// `ordinal` (bit i of error.x / error.z = the site's i-th qubit).
struct LocalFault {
  std::uint32_t ordinal = 0;
  noise::SiteError error;
};

/// The single-fault universe of an experiment as an index: a per-site
/// first-fault offset and a fault -> site map.  Fault i is pattern
/// i - first(site) of its site, in the FaultModel's pattern order:
///
///   SingleQubit       qubit j / 3 of the site, Pauli X, Y, Z by j % 3;
///   SingleQubitZ      Z on qubit j of the site;
///   FullDepolarizing  code j + 1 in base 4, digit i = the Pauli
///                     (I, X, Y, Z) on the site's i-th qubit.
///
/// Sites come in executor order, so one site's faults are contiguous.
/// Decoding is O(1) and allocation-free except for materialize(), which
/// builds the full-width Fault.  Holds the gadget's execution plan, so it stays
/// valid when the experiment changes or goes away.
class SingleFaultIndex {
 public:
  explicit SingleFaultIndex(const FaultExperiment& ex);

  std::uint64_t size() const { return site_of_.size(); }
  /// Site ordinal of fault i.
  std::uint32_t ordinal(std::uint64_t i) const { return site_of_[i]; }
  /// Fault i in site-local form.
  LocalFault local(std::uint64_t i) const;
  /// A site-local fault on this gadget as a full-width Fault;
  /// materialize(local(i)) == enumerate_single_faults(ex)[i].
  Fault materialize(const LocalFault& f) const;
  /// Faults per site, in site order.
  std::vector<std::uint64_t> site_multiplicities() const;

 private:
  std::shared_ptr<const circuit::ExecPlan> plan_;
  std::span<const circuit::FaultSite> sites_;
  std::size_t num_qubits_;
  FaultModel model_;
  std::vector<std::uint64_t> first_;    // per site, plus the total
  std::vector<std::uint32_t> site_of_;  // per fault
};

/// All single faults of the gadget, materialized: the decoded
/// SingleFaultIndex entries in index order (every non-identity pattern
/// the FaultModel allows on every site).
std::vector<Fault> enumerate_single_faults(const FaultExperiment& ex);

/// Executes prep (noiselessly) then gadget with `faults` planted; returns
/// the oracle's verdict.
bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults);

}  // namespace eqc::analysis
