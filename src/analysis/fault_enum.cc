#include "analysis/fault_enum.h"

#include "common/assert.h"

namespace eqc::analysis {

namespace {

using pauli::Pauli;

/// Number of faults the model allows on a site of `arity` qubits.
std::uint64_t faults_per_site(FaultModel model, std::size_t arity) {
  switch (model) {
    case FaultModel::SingleQubit:
      return 3 * arity;
    case FaultModel::SingleQubitZ:
      return arity;
    case FaultModel::FullDepolarizing:
      return (std::uint64_t{1} << (2 * arity)) - 1;
  }
  EQC_CHECK(false && "unknown FaultModel");
  return 0;
}

/// Pattern j of the model's faults on a site of `arity` qubits, in the
/// order SingleFaultIndex documents.
noise::SiteError site_pattern(FaultModel model, std::size_t arity,
                              std::uint64_t j) {
  noise::SiteError e;
  switch (model) {
    case FaultModel::SingleQubit: {
      static constexpr Pauli kLabels[3] = {Pauli::X, Pauli::Y, Pauli::Z};
      e.set(static_cast<std::size_t>(j / 3), kLabels[j % 3]);
      break;
    }
    case FaultModel::SingleQubitZ:
      e.set(static_cast<std::size_t>(j), Pauli::Z);
      break;
    case FaultModel::FullDepolarizing: {
      const std::uint64_t code = j + 1;  // skip the identity
      for (std::size_t q = 0; q < arity; ++q)
        e.set(q, static_cast<Pauli>((code >> (2 * q)) & 3));
      break;
    }
  }
  return e;
}

}  // namespace

SingleFaultIndex::SingleFaultIndex(const FaultExperiment& ex)
    : plan_(ex.gadget.shared_plan()),
      sites_(plan_->fault_sites()),
      num_qubits_(ex.num_qubits),
      model_(ex.model) {
  first_.reserve(sites_.size() + 1);
  std::uint64_t total = 0;
  for (const auto& site : sites_) {
    first_.push_back(total);
    total += faults_per_site(model_, site.qubits.size());
  }
  first_.push_back(total);
  site_of_.reserve(static_cast<std::size_t>(total));
  for (std::uint32_t s = 0; s < sites_.size(); ++s)
    site_of_.insert(site_of_.end(),
                    static_cast<std::size_t>(first_[s + 1] - first_[s]), s);
}

LocalFault SingleFaultIndex::local(std::uint64_t i) const {
  EQC_EXPECTS(i < size());
  const std::uint32_t s = site_of_[i];
  return LocalFault{s, site_pattern(model_, sites_[s].qubits.size(),
                                    i - first_[s])};
}

Fault SingleFaultIndex::materialize(const LocalFault& f) const {
  EQC_EXPECTS(f.ordinal < sites_.size());
  return Fault{f.ordinal, f.error.on(sites_[f.ordinal].qubits, num_qubits_)};
}

std::vector<std::uint64_t> SingleFaultIndex::site_multiplicities() const {
  std::vector<std::uint64_t> out(sites_.size());
  for (std::size_t s = 0; s < out.size(); ++s)
    out[s] = first_[s + 1] - first_[s];
  return out;
}

std::vector<Fault> enumerate_single_faults(const FaultExperiment& ex) {
  // The decoded index entries in order, walked site by site.
  const auto sites = ex.gadget.plan().fault_sites();
  std::size_t total = 0;
  for (const auto& site : sites)
    total += static_cast<std::size_t>(
        faults_per_site(ex.model, site.qubits.size()));
  std::vector<Fault> out;
  out.reserve(total);
  for (const auto& site : sites) {
    const std::size_t arity = site.qubits.size();
    for (std::uint64_t j = 0; j < faults_per_site(ex.model, arity); ++j)
      out.push_back(Fault{site.ordinal, site_pattern(ex.model, arity, j)
                                            .on(site.qubits, ex.num_qubits)});
  }
  return out;
}

bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults) {
  EQC_EXPECTS(ex.failed != nullptr);
  circuit::TabBackend backend(ex.num_qubits, Rng(ex.seed));
  circuit::execute(ex.prep, backend);
  circuit::PlantedInjector injector;
  for (const auto& f : faults) injector.plant(f.ordinal, f.error);
  const auto result = circuit::execute(ex.gadget, backend, &injector);
  // A plant whose ordinal was never visited (stale ordinal after a circuit
  // edit, ordinal beyond the site count) would silently test the WRONG
  // fault set; that must never pass as a verdict.
  EQC_ENSURES(injector.all_planted_visited());
  return ex.failed(backend, result);
}

}  // namespace eqc::analysis
