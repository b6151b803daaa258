// Tests for fault enumeration (counted through the campaign engine) and
// the support-propagation analyzer.
#include <gtest/gtest.h>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "analysis/support_prop.h"
#include "codes/css_code.h"
#include "common/assert.h"

namespace eqc::analysis {
namespace {

using circuit::Circuit;

const codes::CssCode& steane() { return codes::steane_code(); }

// The Fig. 1 N-gate fault experiment on |1>_L at `reps` = 2k+1
// repetitions: fail if the majority-decoded classical copy is wrong or the
// quantum source is not correctable.
FaultExperiment make_ngate_experiment(int reps = 3,
                                      const char* noise = "paper") {
  GadgetSpec spec;
  spec.scenario.repetition_k = (reps - 1) / 2;
  spec.scenario.noise = noise;
  return build_gadget_experiment(spec).ex;
}

// A counting campaign over size-k fault sets (budget 0 = exhaustive).
CampaignReport count_fault_sets(const FaultExperiment& ex, std::size_t k,
                                std::uint64_t budget) {
  return run_campaign(ex,
                      {.k = k, .budget = budget, .jobs = 2, .shrink = false});
}

TEST(FaultEnum, NGateIsSingleFaultTolerantInThePaperModel) {
  const auto report = count_fault_sets(make_ngate_experiment(), 1, 0);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_GT(report.sets_tested, 400u);
  EXPECT_EQ(report.malignant, 0u)
      << "first failing ordinal: "
      << (report.malignant_sets.empty()
              ? 0
              : report.malignant_sets[0].faults[0].ordinal);
}

TEST(FaultEnum, SingleRepetitionIsNotFaultTolerant) {
  // Ablation: with one repetition (no majority), single faults break the
  // classical copy.
  const auto report = count_fault_sets(make_ngate_experiment(1), 1, 0);
  EXPECT_GT(report.malignant, 0u);
}

TEST(FaultEnum, CorrelatedGateFaultsExposeTheMajorityFanOut) {
  // Under the stronger correlated-fault model, a single CCX fault can flip
  // two of the three repetition copies at once and defeat the majority —
  // a model subtlety the paper's per-location counting does not cover.
  const auto report =
      count_fault_sets(make_ngate_experiment(3, "correlated"), 1, 0);
  EXPECT_GT(report.malignant, 0u);
}

TEST(FaultEnum, SampledScanCoversTheUniverseWhenSmall) {
  // A budget larger than the universe runs the exhaustive sweep.
  const auto ex = make_ngate_experiment(1);
  const auto full = count_fault_sets(ex, 1, 0);
  const auto budgeted = count_fault_sets(ex, 1, 1u << 30);
  EXPECT_TRUE(budgeted.exhaustive);
  EXPECT_EQ(budgeted.to_json(), full.to_json());
}

TEST(FaultEnum, SampledScanRespectsBudget) {
  const auto report = count_fault_sets(make_ngate_experiment(), 1, 100);
  EXPECT_FALSE(report.exhaustive);
  EXPECT_EQ(report.sets_tested, 100u);
  EXPECT_EQ(report.malignant, 0u);
}

TEST(FaultEnum, PairEnumerationFindsMalignantPairs) {
  const auto report = count_fault_sets(make_ngate_experiment(), 2, 4000);
  EXPECT_EQ(report.sets_tested, 4000u);
  EXPECT_GT(report.malignant, 0u);  // two faults can defeat distance 3
  const double l = static_cast<double>(report.num_sites);
  const double a = 0.5 * l * (l - 1.0) * report.malignant_fraction();
  EXPECT_DOUBLE_EQ(report.p_k_coefficient(), a);
  EXPECT_DOUBLE_EQ(report.pseudo_threshold(), 1.0 / a);
  EXPECT_LT(report.pseudo_threshold(), 1.0);
  EXPECT_GT(report.pseudo_threshold(), 0.0);

  // The report math on hand-set counts: A = C(L, k) * fraction and
  // p* = A^(-1/(k-1)); chaos reports carry no coefficient.
  CampaignReport r;
  r.num_sites = 100;
  r.sets_tested = 1000;
  r.malignant = 10;
  r.k = 2;
  EXPECT_DOUBLE_EQ(r.malignant_fraction(), 0.01);
  EXPECT_DOUBLE_EQ(r.p_k_coefficient(), 0.5 * 100 * 99 * 0.01);
  EXPECT_DOUBLE_EQ(r.pseudo_threshold(), 1.0 / (0.5 * 100 * 99 * 0.01));
  r.k = 3;
  EXPECT_DOUBLE_EQ(r.p_k_coefficient(), 161700 * 0.01);
  EXPECT_DOUBLE_EQ(r.pseudo_threshold(), 1.0 / std::sqrt(1617.0));
  r.k = 1;
  EXPECT_DOUBLE_EQ(r.pseudo_threshold(), 1.0);
  r.mode = CampaignMode::Chaos;
  EXPECT_DOUBLE_EQ(r.p_k_coefficient(), 0.0);
}

TEST(FaultEnum, RunWithFaultsRejectsAnUnvisitedPlant) {
  // A plant whose ordinal never occurs in the gadget would silently test
  // the WRONG (weaker) fault set; the executor must refuse instead.
  const auto ex = make_ngate_experiment();
  const auto sites = circuit::enumerate_fault_sites(ex.gadget);
  std::vector<Fault> faults = {
      Fault{sites.size() + 17,
            pauli::PauliString::single(ex.num_qubits, 0, pauli::Pauli::X)}};
  EXPECT_THROW((void)run_with_faults(ex, faults), ContractViolation);
}

TEST(FaultEnum, RunWithFaultsAppliesExactlyThePlantedErrors) {
  // A planted logical X flips the copied value: the oracle sees it.
  const auto ex = make_ngate_experiment();
  // Find a gadget site on a source-block qubit (input to the gadget).
  const auto sites = circuit::enumerate_fault_sites(ex.gadget);
  // Build a weight-2 X error on source qubits 0 and 1 at one site...
  // (two X faults at different sites defeat the Hamming check).
  std::vector<Fault> faults;
  int planted = 0;
  for (const auto& site : sites) {
    if (planted == 2) break;
    if (site.qubits.size() == 1 && site.qubits[0] < 7 &&
        site.qubits[0] == static_cast<std::uint32_t>(planted)) {
      faults.push_back(Fault{
          site.ordinal, pauli::PauliString::single(ex.num_qubits,
                                                   site.qubits[0],
                                                   pauli::Pauli::X)});
      ++planted;
    }
  }
  if (planted == 2) {
    EXPECT_TRUE(run_with_faults(ex, faults));
  }
}

// The index decodes every fault of the universe to the pattern order
// written out below — the order campaign ranks, reports and checkpoints
// depend on — for both gadget families under all three fault models, and
// enumerate_single_faults (the materialized universe) agrees entry by
// entry.
TEST(FaultEnum, IndexDecodesTheSingleFaultUniverse) {
  using pauli::Pauli;
  using pauli::PauliString;
  for (const char* gadget : {"ngate", "recovery"}) {
    for (const char* noise : {"paper", "correlated", "biased-z"}) {
      GadgetSpec spec;
      spec.gadget = gadget;
      spec.scenario.noise = noise;
      const FaultExperiment ex = build_gadget_experiment(spec).ex;
      const std::size_t n = ex.num_qubits;
      const SingleFaultIndex index(ex);
      const std::vector<Fault> all = enumerate_single_faults(ex);
      ASSERT_EQ(all.size(), index.size()) << gadget << "/" << noise;

      std::uint64_t i = 0;
      auto expect_next = [&](std::size_t ordinal, const PauliString& want) {
        ASSERT_LT(i, index.size()) << gadget << "/" << noise;
        const Fault got = index.materialize(index.local(i));
        EXPECT_EQ(got.ordinal, ordinal) << gadget << "/" << noise << " " << i;
        EXPECT_EQ(got.error, want) << gadget << "/" << noise << " " << i;
        EXPECT_EQ(index.ordinal(i), ordinal);
        EXPECT_EQ(all[i].ordinal, ordinal);
        EXPECT_EQ(all[i].error, want);
        ++i;
      };
      std::vector<std::uint64_t> multiplicities;
      for (const auto& site : ex.gadget.plan().fault_sites()) {
        const std::uint64_t before = i;
        const std::size_t k = site.qubits.size();
        if (ex.model == FaultModel::SingleQubit) {
          for (std::size_t q = 0; q < k; ++q)
            for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z})
              expect_next(site.ordinal,
                          PauliString::single(n, site.qubits[q], p));
        } else if (ex.model == FaultModel::SingleQubitZ) {
          for (std::size_t q = 0; q < k; ++q)
            expect_next(site.ordinal,
                        PauliString::single(n, site.qubits[q], Pauli::Z));
        } else {
          for (std::uint64_t code = 1; code < (std::uint64_t{1} << (2 * k));
               ++code) {
            PauliString p(n);
            for (std::size_t q = 0; q < k; ++q)
              p.set(site.qubits[q], static_cast<Pauli>((code >> (2 * q)) & 3));
            expect_next(site.ordinal, p);
          }
        }
        if (::testing::Test::HasFatalFailure()) return;
        multiplicities.push_back(i - before);
      }
      EXPECT_EQ(i, index.size());
      EXPECT_EQ(index.site_multiplicities(), multiplicities);
    }
  }
}

// --- Support propagation ---------------------------------------------------

TEST(SupportProp, CnotPropagatesForwardXBackwardZ) {
  Circuit c(2);
  c.h(0);  // site 0 on qubit 0
  c.cnot(0, 1);
  const std::vector<bool> classical(2, false);
  // X fault on qubit 0 after H: spreads to qubit 1 through the CNOT.
  auto st = propagate_supports(c, {SupportFault{0, true, false}}, classical);
  EXPECT_TRUE(st.x[0]);
  EXPECT_TRUE(st.x[1]);
  EXPECT_FALSE(st.z[0]);
  EXPECT_FALSE(st.z[1]);
  // Z fault stays on the control.
  st = propagate_supports(c, {SupportFault{0, false, true}}, classical);
  EXPECT_TRUE(st.z[0]);
  EXPECT_FALSE(st.z[1]);
  EXPECT_FALSE(st.x[1]);
}

TEST(SupportProp, ZTargetFlowsToControl) {
  Circuit c(2);
  c.cnot(0, 1);  // site 0
  c.idle(1);     // site 1: fault on the target after the CNOT
  c.cnot(0, 1);  // second CNOT propagates Z(target) -> control
  const std::vector<bool> classical(2, false);
  auto st = propagate_supports(c, {SupportFault{1, false, true}}, classical);
  EXPECT_TRUE(st.z[0]);
  EXPECT_TRUE(st.z[1]);
}

TEST(SupportProp, ClassicalQubitsScrubPhaseCorruption) {
  Circuit c(2);
  c.cnot(0, 1);
  c.idle(1);
  c.cnot(0, 1);
  std::vector<bool> classical(2, false);
  classical[1] = true;  // the target is a classical ancilla
  auto st = propagate_supports(c, {SupportFault{1, false, true}}, classical);
  EXPECT_FALSE(st.z[0]);  // phase error died on the classical bit
  EXPECT_FALSE(st.z[1]);
}

TEST(SupportProp, PrepClearsCorruption) {
  Circuit c(1);
  c.h(0);       // site 0
  c.prep_z(0);  // fresh qubit afterwards
  const std::vector<bool> classical(1, false);
  auto st = propagate_supports(c, {SupportFault{0, true, true}}, classical);
  EXPECT_FALSE(st.x[0]);
  EXPECT_FALSE(st.z[0]);
}

TEST(SupportProp, HSwapsComponents) {
  Circuit c(1);
  c.idle(0);  // site 0
  c.h(0);
  const std::vector<bool> classical(1, false);
  auto st = propagate_supports(c, {SupportFault{0, true, false}}, classical);
  EXPECT_FALSE(st.x[0]);
  EXPECT_TRUE(st.z[0]);
}

TEST(SupportProp, TransversalCnotKeepsBlocksWithinTolerance) {
  // Two 7-qubit blocks coupled transversally: any single fault corrupts at
  // most one qubit per block.
  Circuit c(14);
  const auto a = codes::CodeBlock::contiguous(0, 7);
  const auto b = codes::CodeBlock::contiguous(7, 7);
  steane().append_logical_cnot(c, a, b);
  std::vector<BlockSpec> blocks = {
      {"a", {a.q.begin(), a.q.end()}, false, 1},
      {"b", {b.q.begin(), b.q.end()}, false, 1},
  };
  const auto report = analyze_supports(c, blocks,
                                       std::vector<bool>(14, false), 1u << 20);
  EXPECT_EQ(report.single_fault_violations, 0u);
  EXPECT_TRUE(report.exhaustive);
}

TEST(SupportProp, IntraBlockCouplingViolatesImmediately) {
  // A CNOT inside one block lets a single fault corrupt two block qubits:
  // the analyzer must flag it.
  Circuit c(7);
  c.cnot(0, 1);
  c.cnot(0, 2);
  const auto a = codes::CodeBlock::contiguous(0, 7);
  std::vector<BlockSpec> blocks = {{"a", {a.q.begin(), a.q.end()}, false, 1}};
  const auto report =
      analyze_supports(c, blocks, std::vector<bool>(7, false), 1u << 20);
  EXPECT_GT(report.single_fault_violations, 0u);
}

TEST(SupportProp, ClassicalBlockIgnoresZDamage) {
  // Z-only damage on a classical register never counts.
  Circuit c(3);
  c.h(0);  // site 0: a single-qubit site on qubit 0
  c.cz(0, 1);
  c.cz(0, 2);
  std::vector<bool> classical = {false, true, true};
  std::vector<BlockSpec> blocks = {{"cl", {1, 2}, true, 0}};
  // X fault on qubit 0 alone sends only Z onto qubits 1 and 2.
  auto st = propagate_supports(c, {SupportFault{0, true, false}}, classical);
  const auto damage = assess_blocks(st, blocks);
  EXPECT_EQ(damage[0].corrupted, 0);
  EXPECT_FALSE(damage[0].exceeded());
}

TEST(SupportProp, SiteFilterRestrictsUniverse) {
  Circuit c(2);
  c.h(0).h(1).cnot(0, 1);
  std::vector<BlockSpec> blocks = {{"all", {0, 1}, false, 2}};
  const auto all = analyze_supports(c, blocks, std::vector<bool>(2, false),
                                    1u << 20);
  const auto filtered = analyze_supports(
      c, blocks, std::vector<bool>(2, false), 1u << 20, 7,
      [](const circuit::FaultSite& s) { return s.moment == 0; });
  EXPECT_LT(filtered.num_sites, all.num_sites);
}

}  // namespace
}  // namespace eqc::analysis
