// Tests for fault enumeration, counted through the campaign engine.
#include <gtest/gtest.h>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
#include "common/assert.h"
#include "common/rng.h"
#include "pauli/pauli_string.h"

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

// --- Transversality, judged on the exact engine ----------------------------

// Two Steane blocks |+>_L|0>_L joined by a transversal logical CNOT into a
// logical Bell pair; with `fan_out`, a CNOT inside the first block and its
// inverse follow (the identity when fault-free).  After perfect correction
// the Bell stabilizers Z_L Z_L and X_L X_L must read +1, so a logical error
// on either block alone fails.  Faults are fully depolarizing: a CNOT site
// may put any two-qubit Pauli on its operands.
FaultExperiment bell_pair_experiment(bool fan_out) {
  const auto a = codes::CodeBlock::contiguous(0, 7);
  const auto b = codes::CodeBlock::contiguous(7, 7);
  FaultExperiment ex;
  ex.num_qubits = 14;
  ex.model = FaultModel::FullDepolarizing;
  ex.prep = Circuit(14);
  steane().append_encode_plus(ex.prep, a);
  steane().append_encode_zero(ex.prep, b);
  ex.gadget = Circuit(14);
  steane().append_logical_cnot(ex.gadget, a, b);
  if (fan_out) {
    ex.gadget.cnot(a.q[0], a.q[1]);
    ex.gadget.cnot(a.q[0], a.q[1]);
  }
  pauli::PauliString zz = steane().logical_z_op(14, a);
  zz.multiply_by(steane().logical_z_op(14, b));
  pauli::PauliString xx = steane().logical_x_op(14, a);
  xx.multiply_by(steane().logical_x_op(14, b));
  ex.failed = [a, b, zz, xx](circuit::TabBackend& be,
                             const circuit::ExecResult&) {
    Rng rng(3);
    steane().perfect_correct(be.tableau(), a, rng);
    steane().perfect_correct(be.tableau(), b, rng);
    return be.tableau().expectation_pauli(zz) != 1.0 ||
           be.tableau().expectation_pauli(xx) != 1.0;
  };
  return ex;
}

// Bit-wise coupling keeps every single fault to one qubit per block, so
// no single fault anywhere in a transversal logical CNOT is malignant.
TEST(FaultEnum, TransversalCnotSingleFaultsAreBenign) {
  const auto report = count_fault_sets(bell_pair_experiment(false), 1, 0);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_GT(report.sets_tested, 0u);
  EXPECT_EQ(report.malignant, 0u);
}

// A CNOT inside one block spreads one fault over two of its qubits, which
// the code cannot absorb: the fan-out has malignant single faults.
TEST(FaultEnum, IntraBlockFanOutHasMalignantSingleFaults) {
  const auto report = count_fault_sets(bell_pair_experiment(true), 1, 0);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_GT(report.malignant, 0u);
}

}  // namespace
}  // namespace eqc::analysis
