#include "analysis/fault_enum.h"

#include <algorithm>
#include <unordered_set>

#include "common/assert.h"

namespace eqc::analysis {

namespace {

using circuit::FaultSite;
using pauli::Pauli;
using pauli::PauliString;

void append_site_faults(const FaultSite& site, std::size_t num_qubits,
                        FaultModel model, std::vector<Fault>& out) {
  const std::size_t k = site.qubits.size();
  if (model == FaultModel::SingleQubit) {
    for (std::size_t i = 0; i < k; ++i)
      for (Pauli label : {Pauli::X, Pauli::Y, Pauli::Z})
        out.push_back(
            Fault{site.ordinal,
                  PauliString::single(num_qubits, site.qubits[i], label)});
    return;
  }
  if (model == FaultModel::SingleQubitZ) {
    for (std::size_t i = 0; i < k; ++i)
      out.push_back(
          Fault{site.ordinal,
                PauliString::single(num_qubits, site.qubits[i], Pauli::Z)});
    return;
  }
  // FullDepolarizing: all 4^k - 1 non-identity patterns.
  const std::uint64_t patterns = std::uint64_t{1} << (2 * k);
  for (std::uint64_t code = 1; code < patterns; ++code) {
    PauliString p(num_qubits);
    for (std::size_t i = 0; i < k; ++i) {
      const auto label = static_cast<Pauli>((code >> (2 * i)) & 3);
      if (label != Pauli::I) p.set(site.qubits[i], label);
    }
    out.push_back(Fault{site.ordinal, std::move(p)});
  }
}

}  // namespace

double PairReport::p_squared_coefficient() const {
  // P(exactly two sites err) ~ C(L,2) p^2; conditioned on two errors, the
  // Pauli at each site is uniform over its patterns, so the failure
  // probability is the malignant fraction over uniformly drawn pairs.
  const double l = static_cast<double>(num_sites);
  return 0.5 * l * (l - 1.0) * malignant_fraction();
}

double PairReport::pseudo_threshold() const {
  const double a = p_squared_coefficient();
  return a <= 0.0 ? 1.0 : 1.0 / a;
}

std::vector<Fault> enumerate_single_faults(const FaultExperiment& ex) {
  std::vector<Fault> out;
  for (const auto& site : ex.gadget.plan().fault_sites())
    append_site_faults(site, ex.num_qubits, ex.model, out);
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

SingleFaultReport run_single_faults(const FaultExperiment& ex) {
  SingleFaultReport report;
  report.num_sites = ex.gadget.plan().fault_sites().size();
  const auto faults = enumerate_single_faults(ex);
  for (const auto& fault : faults) {
    ++report.faults_tested;
    if (run_with_faults(ex, {fault})) {
      ++report.failures;
      report.failing.push_back(fault);
    }
  }
  return report;
}

SingleFaultReport run_single_faults_sampled(const FaultExperiment& ex,
                                            std::uint64_t budget,
                                            std::uint64_t sample_seed) {
  SingleFaultReport report;
  report.num_sites = ex.gadget.plan().fault_sites().size();
  const auto faults = enumerate_single_faults(ex);
  if (faults.size() <= budget) {
    for (const auto& fault : faults) {
      ++report.faults_tested;
      if (run_with_faults(ex, {fault})) {
        ++report.failures;
        report.failing.push_back(fault);
      }
    }
    return report;
  }
  Rng rng(sample_seed);
  for (std::uint64_t i = 0; i < budget; ++i) {
    const auto& fault = faults[rng.below(faults.size())];
    ++report.faults_tested;
    if (run_with_faults(ex, {fault})) {
      ++report.failures;
      report.failing.push_back(fault);
    }
  }
  return report;
}

PairReport run_fault_pairs(const FaultExperiment& ex, std::uint64_t budget,
                           std::uint64_t sample_seed) {
  PairReport report;
  const auto faults = enumerate_single_faults(ex);
  report.num_sites = ex.gadget.plan().fault_sites().size();
  report.single_faults = faults.size();

  const std::uint64_t n = faults.size();
  const std::uint64_t total_pairs = n * (n - 1) / 2;

  if (total_pairs <= budget) {
    report.exhaustive = true;
    for (std::uint64_t i = 0; i < n; ++i) {
      for (std::uint64_t j = i + 1; j < n; ++j) {
        if (faults[i].ordinal == faults[j].ordinal) continue;  // same site
        ++report.pairs_tested;
        if (run_with_faults(ex, {faults[i], faults[j]})) ++report.malignant;
      }
    }
    return report;
  }

  // Sampled branch: draw DISTINCT unordered pairs.  Sampling with
  // replacement would count repeated pairs more than once, biasing
  // malignant_fraction() whenever the budget is a sizable fraction of the
  // universe, so duplicates are rejected via a seen-set.  The number of
  // distinct valid pairs (different ordinals) caps the draw: faults at the
  // same site are contiguous in enumeration order, so the per-ordinal
  // multiplicities give the same-site pair count exactly.
  std::uint64_t same_site_pairs = 0;
  for (std::uint64_t i = 0; i < n;) {
    std::uint64_t j = i;
    while (j < n && faults[j].ordinal == faults[i].ordinal) ++j;
    const std::uint64_t m = j - i;
    same_site_pairs += m * (m - 1) / 2;
    i = j;
  }
  const std::uint64_t valid_pairs = total_pairs - same_site_pairs;
  const std::uint64_t target = std::min(budget, valid_pairs);

  Rng rng(sample_seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(target));
  // The rejection loop is coupon-collecting when target ~ valid_pairs;
  // the attempt cap keeps the worst case bounded (and the run is then
  // reported as the number of pairs actually tested).
  const std::uint64_t max_attempts = 64 * target + 1024;
  for (std::uint64_t attempt = 0;
       attempt < max_attempts && report.pairs_tested < target; ++attempt) {
    std::uint64_t i = rng.below(n);
    std::uint64_t j = rng.below(n);
    if (i == j || faults[i].ordinal == faults[j].ordinal) continue;
    if (i > j) std::swap(i, j);
    if (!seen.insert(i * n + j).second) continue;  // duplicate pair
    ++report.pairs_tested;
    if (run_with_faults(ex, {faults[i], faults[j]})) ++report.malignant;
  }
  report.exhaustive = report.pairs_tested == valid_pairs;
  return report;
}

}  // namespace eqc::analysis
