// Tests for the classical Hamming code, reversible-logic gadgets, and the
// Steane [[7,1,3]] code (encoding, logical gates, stabilizers, decoding)
// through the CssCode API.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/sv_backend.h"
#include "circuit/tab_backend.h"
#include "codes/classical_logic.h"
#include "codes/css_code.h"
#include "codes/hamming.h"
#include "common/assert.h"
#include "common/rng.h"
#include "qsim/gates.h"

namespace eqc::codes {
namespace {

using circuit::Circuit;
using circuit::SvBackend;
using circuit::TabBackend;
using pauli::Pauli;
using pauli::PauliString;

const CssCode& steane() { return steane_code(); }

qsim::StateVector steane_state(cplx alpha, cplx beta) {
  return qsim::StateVector::from_amplitudes(
      steane().encoded_amplitudes(alpha, beta));
}

TEST(Hamming, SixteenCodewords) {
  EXPECT_EQ(Hamming74::codewords().size(), 16u);
}

TEST(Hamming, MinimumDistanceThree) {
  int min_weight = 7;
  for (unsigned w : Hamming74::codewords())
    if (w != 0) min_weight = std::min(min_weight, std::popcount(w));
  EXPECT_EQ(min_weight, 3);
}

TEST(Hamming, SyndromePointsAtErrorPosition) {
  for (unsigned cw : Hamming74::codewords()) {
    EXPECT_EQ(Hamming74::syndrome(cw), 0u);
    for (int pos = 0; pos < 7; ++pos) {
      const unsigned corrupted = cw ^ (1u << pos);
      EXPECT_EQ(Hamming74::error_position(Hamming74::syndrome(corrupted)), pos);
      EXPECT_EQ(Hamming74::correct(corrupted), cw);
    }
  }
}

TEST(Hamming, DualCodeIsEvenWeightSubcode) {
  const auto dual = Hamming74::dual_codewords();
  EXPECT_EQ(dual.size(), 8u);
  for (unsigned w : dual) {
    EXPECT_TRUE(Hamming74::is_codeword(w));  // C2 subset of C1
    EXPECT_EQ(std::popcount(w) % 2, 0);
    // Dual property: orthogonal to every codeword.
    for (unsigned c : Hamming74::codewords())
      EXPECT_EQ(std::popcount(w & c) % 2, 0);
  }
}

TEST(Hamming, AllOnesIsCodewordOutsideDual) {
  EXPECT_TRUE(Hamming74::is_codeword(0x7F));
  for (unsigned w : Hamming74::dual_codewords()) EXPECT_NE(w, 0x7Fu);
}

TEST(Majority, OddVotes) {
  EXPECT_FALSE(majority({false, false, true}));
  EXPECT_TRUE(majority({true, false, true}));
  EXPECT_TRUE(majority({true, true, true, false, false}));
  EXPECT_THROW(majority({true, false}), ContractViolation);
}

TEST(ClassicalLogic, Majority3TruthTable) {
  for (unsigned in = 0; in < 8; ++in) {
    Circuit c(4);
    for (int b = 0; b < 3; ++b)
      if (in & (1u << b)) c.x(b);
    const std::uint32_t targets[1] = {3};
    append_majority3(c, 0, 1, 2, targets);
    TabBackend backend(4, Rng(1));
    execute(c, backend);
    const bool expect_maj = std::popcount(in) >= 2;
    EXPECT_EQ(backend.tableau().deterministic_z_value(3), expect_maj)
        << "input " << in;
  }
}

TEST(ClassicalLogic, Majority3FanOutToMany) {
  Circuit c(8);
  c.x(0).x(2);
  const std::uint32_t targets[5] = {3, 4, 5, 6, 7};
  append_majority3(c, 0, 1, 2, targets);
  TabBackend backend(8, Rng(1));
  execute(c, backend);
  for (int t = 3; t < 8; ++t)
    EXPECT_TRUE(backend.tableau().deterministic_z_value(t));
}

TEST(ClassicalLogic, Or3TruthTable) {
  for (unsigned in = 0; in < 8; ++in) {
    Circuit c(6);
    for (int b = 0; b < 3; ++b)
      if (in & (1u << b)) c.x(b);
    append_or3_into(c, 0, 1, 2, 3, 4, 5);
    TabBackend backend(6, Rng(1));
    execute(c, backend);
    EXPECT_EQ(backend.tableau().deterministic_z_value(5), in != 0)
        << "input " << in;
  }
}

TEST(ClassicalLogic, FanoutCopies) {
  Circuit c(4);
  c.x(0);
  const std::uint32_t targets[3] = {1, 2, 3};
  append_fanout(c, 0, targets);
  TabBackend backend(4, Rng(1));
  execute(c, backend);
  for (int t = 1; t < 4; ++t)
    EXPECT_TRUE(backend.tableau().deterministic_z_value(t));
}

// --- Steane code ---------------------------------------------------------

TEST(Steane, EncodedZeroAmplitudes) {
  const auto sv = steane_state(1, 0);
  const double w = 1.0 / std::sqrt(8.0);
  for (unsigned c : Hamming74::dual_codewords())
    EXPECT_NEAR(std::abs(sv.amplitude(c)), w, 1e-12);
  // Non-dual words carry no amplitude.
  EXPECT_NEAR(std::abs(sv.amplitude(0x7F)), 0.0, 1e-12);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Steane, EncoderCircuitMatchesAnalyticState) {
  Circuit c(7);
  steane().append_encode_zero(c, CodeBlock::contiguous(0, 7));
  SvBackend b(7, Rng(1));
  execute(c, b);
  EXPECT_NEAR(b.state().fidelity(steane_state(1, 0)), 1.0, 1e-10);
}

TEST(Steane, EncoderCircuitStabilizersOnTableau) {
  Circuit c(7);
  const auto block = CodeBlock::contiguous(0, 7);
  steane().append_encode_zero(c, block);
  TabBackend b(7, Rng(1));
  execute(c, b);
  EXPECT_TRUE(steane().block_in_codespace(b.tableau(), block));
  EXPECT_EQ(steane().logical_z_expectation(b.tableau(), block), 1.0);
}

TEST(Steane, LogicalXMapsZeroToOne) {
  Circuit c(7);
  const auto block = CodeBlock::contiguous(0, 7);
  steane().append_encode_zero(c, block);
  steane().append_logical_x(c, block);
  SvBackend b(7, Rng(1));
  execute(c, b);
  EXPECT_NEAR(b.state().fidelity(steane_state(0, 1)), 1.0, 1e-10);
}

TEST(Steane, LogicalHCreatesPlus) {
  Circuit c(7);
  const auto block = CodeBlock::contiguous(0, 7);
  steane().append_encode_plus(c, block);
  SvBackend b(7, Rng(1));
  execute(c, b);
  const double inv = 1.0 / std::sqrt(2.0);
  const auto plus = steane_state(inv, inv);
  EXPECT_NEAR(b.state().fidelity(plus), 1.0, 1e-10);
}

TEST(Steane, LogicalSActsAsS) {
  // S_L on |+>_L should give (|0>_L + i |1>_L)/sqrt2.
  Circuit c(7);
  const auto block = CodeBlock::contiguous(0, 7);
  steane().append_encode_plus(c, block);
  steane().append_logical_s(c, block);
  SvBackend b(7, Rng(1));
  execute(c, b);
  const double inv = 1.0 / std::sqrt(2.0);
  const auto want = steane_state(inv, cplx{0, inv});
  EXPECT_NEAR(b.state().fidelity(want), 1.0, 1e-10);
}

TEST(Steane, LogicalSdgInvertsLogicalS) {
  Circuit c(7);
  const auto block = CodeBlock::contiguous(0, 7);
  steane().append_encode_plus(c, block);
  steane().append_logical_s(c, block);
  steane().append_logical_sdg(c, block);
  SvBackend b(7, Rng(1));
  execute(c, b);
  const double inv = 1.0 / std::sqrt(2.0);
  const auto plus = steane_state(inv, inv);
  EXPECT_NEAR(b.state().fidelity(plus), 1.0, 1e-10);
}

TEST(Steane, BitwiseSAloneIsLogicalSdg) {
  // The paper's remark: bit-wise sigma_z^{1/2} gives the *inverse* logical
  // gate on the 7-qubit code.
  Circuit c(7);
  const auto block = CodeBlock::contiguous(0, 7);
  steane().append_encode_plus(c, block);
  for (auto q : block.q) c.s(q);
  SvBackend b(7, Rng(1));
  execute(c, b);
  const double inv = 1.0 / std::sqrt(2.0);
  const auto want = steane_state(inv, cplx{0, -inv});  // S^dagger |+>_L
  EXPECT_NEAR(b.state().fidelity(want), 1.0, 1e-10);
}

TEST(Steane, TransversalCnotIsLogicalCnot) {
  // |1>_L (x) |0>_L -> |1>_L (x) |1>_L.
  Circuit c(14);
  const auto a = CodeBlock::contiguous(0, 7);
  const auto b2 = CodeBlock::contiguous(7, 7);
  steane().append_encode_zero(c, a);
  steane().append_logical_x(c, a);
  steane().append_encode_zero(c, b2);
  steane().append_logical_cnot(c, a, b2);
  TabBackend backend(14, Rng(1));
  execute(c, backend);
  EXPECT_EQ(steane().logical_z_expectation(backend.tableau(), a), -1.0);
  EXPECT_EQ(steane().logical_z_expectation(backend.tableau(), b2), -1.0);
  EXPECT_TRUE(steane().block_in_codespace(backend.tableau(), a));
  EXPECT_TRUE(steane().block_in_codespace(backend.tableau(), b2));
}

TEST(Steane, TransversalCzIsLogicalCz) {
  // CZ_L on |+>_L|+>_L: resulting state stabilized by X_L (x) Z_L.
  Circuit c(14);
  const auto a = CodeBlock::contiguous(0, 7);
  const auto b2 = CodeBlock::contiguous(7, 7);
  steane().append_encode_plus(c, a);
  steane().append_encode_plus(c, b2);
  steane().append_logical_cz(c, a, b2);
  TabBackend backend(14, Rng(1));
  execute(c, backend);
  auto xz = steane().logical_x_op(14, a);
  xz.multiply_by(steane().logical_z_op(14, b2));
  EXPECT_TRUE(backend.tableau().state_is_stabilized_by(xz));
  auto zx = steane().logical_z_op(14, a);
  zx.multiply_by(steane().logical_x_op(14, b2));
  EXPECT_TRUE(backend.tableau().state_is_stabilized_by(zx));
}

TEST(Steane, DecodeLogicalBitHandlesSingleErrors) {
  for (unsigned cw : Hamming74::codewords()) {
    const bool logical = std::popcount(cw) % 2 == 1;
    EXPECT_EQ(steane().decode_logical_bit(cw), logical);
    for (int pos = 0; pos < 7; ++pos)
      EXPECT_EQ(steane().decode_logical_bit(cw ^ (1u << pos)), logical);
  }
}

class SteaneSingleError : public ::testing::TestWithParam<int> {};

TEST_P(SteaneSingleError, PerfectCorrectFixesAnySingleError) {
  const int pos = GetParam();
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    Circuit c(7);
    const auto block = CodeBlock::contiguous(0, 7);
    steane().append_encode_zero(c, block);
    TabBackend b(7, Rng(11));
    execute(c, b);
    b.tableau().apply_pauli(PauliString::single(7, pos, p));
    Rng rng(21);
    steane().perfect_correct(b.tableau(), block, rng);
    EXPECT_TRUE(steane().block_in_codespace(b.tableau(), block));
    EXPECT_EQ(steane().logical_z_expectation(b.tableau(), block), 1.0)
        << "pauli " << pauli::to_char(p) << " at " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPositions, SteaneSingleError,
                         ::testing::Range(0, 7));

TEST(Steane, WeightTwoXErrorCausesLogicalFlip) {
  // Two X errors defeat a distance-3 code: correction yields the wrong
  // logical value (it "corrects" onto the other codeword coset).
  Circuit c(7);
  const auto block = CodeBlock::contiguous(0, 7);
  steane().append_encode_zero(c, block);
  TabBackend b(7, Rng(1));
  execute(c, b);
  b.tableau().apply_pauli(PauliString::from_string("XXIIIII"));
  Rng rng(2);
  steane().perfect_correct(b.tableau(), block, rng);
  EXPECT_TRUE(steane().block_in_codespace(b.tableau(), block));
  EXPECT_EQ(steane().logical_z_expectation(b.tableau(), block), -1.0);
}

TEST(Steane, StabilizersCommute) {
  const auto block = CodeBlock::contiguous(0, 7);
  std::vector<PauliString> gens;
  for (int r = 0; r < 3; ++r) {
    gens.push_back(steane().x_stabilizer(7, block, r));
    gens.push_back(steane().z_stabilizer(7, block, r));
  }
  for (const auto& a : gens)
    for (const auto& b : gens) EXPECT_TRUE(a.commutes_with(b));
  // Logical operators commute with all stabilizers, anticommute together.
  const auto lx = steane().logical_x_op(7, block);
  const auto lz = steane().logical_z_op(7, block);
  for (const auto& g : gens) {
    EXPECT_TRUE(lx.commutes_with(g));
    EXPECT_TRUE(lz.commutes_with(g));
  }
  EXPECT_FALSE(lx.commutes_with(lz));
}

TEST(Steane, EncodedStatesOrthonormal) {
  const auto zero = steane_state(1, 0);
  const auto one = steane_state(0, 1);
  EXPECT_NEAR(zero.fidelity(one), 0.0, 1e-12);
  EXPECT_NEAR(zero.norm(), 1.0, 1e-12);
  EXPECT_NEAR(one.norm(), 1.0, 1e-12);
}

}  // namespace
}  // namespace eqc::codes
