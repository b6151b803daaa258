// Tests for the [[15,1,3]] quantum Reed-Muller code: the Steane code's
// transversality mirror (T free, H missing), through the CssCode API.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <set>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/sv_backend.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
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

const CssCode& rm15() { return rm15_code(); }

/// Address-bit mask j (j in 0..3): bit i set iff address i+1 has bit j.
unsigned x_mask(int j) {
  return rm15().x_check_mask(static_cast<std::size_t>(j));
}

/// The 10 Z-generator masks: 4 address masks + 6 pair intersections.
std::vector<unsigned> z_masks() {
  std::vector<unsigned> out;
  for (std::size_t k = 0; k < rm15().num_z_checks(); ++k)
    out.push_back(rm15().z_check_mask(k));
  return out;
}

/// All 16 words of the X-stabilizer span (components of |0>_L).
std::vector<unsigned> codewords_zero() {
  std::vector<unsigned> out;
  for (unsigned a = 0; a < 16; ++a) {
    unsigned w = 0;
    for (int j = 0; j < 4; ++j)
      if (a & (1u << j)) w ^= x_mask(j);
    out.push_back(w);
  }
  return out;
}

TEST(ReedMuller, MaskStructure) {
  // X mask j holds the qubits whose address has bit j; the Z checks are
  // those four masks and then the six pairwise intersections in
  // lexicographic order.  Each X mask has weight 8, each pair weight 4.
  ASSERT_EQ(rm15().num_x_checks(), 4u);
  for (int j = 0; j < 4; ++j) {
    unsigned want = 0;
    for (unsigned i = 0; i < 15; ++i)
      if (((i + 1) >> j) & 1) want |= 1u << i;
    EXPECT_EQ(x_mask(j), want) << j;
    EXPECT_EQ(std::popcount(x_mask(j)), 8) << j;
  }
  const auto zm = z_masks();
  ASSERT_EQ(zm.size(), 10u);
  std::size_t row = 0;
  for (int j = 0; j < 4; ++j) EXPECT_EQ(zm[row++], x_mask(j));
  for (int j = 0; j < 4; ++j)
    for (int l = j + 1; l < 4; ++l)
      EXPECT_EQ(zm[row++], x_mask(j) & x_mask(l));
  for (int k = 0; k < 4; ++k) EXPECT_EQ(std::popcount(zm[k]), 8);
  for (int k = 4; k < 10; ++k) EXPECT_EQ(std::popcount(zm[k]), 4);
}

TEST(ReedMuller, CodewordsAreOrthogonalToZMasks) {
  // Every |0>_L component must satisfy every Z check (even overlap).
  for (unsigned cw : codewords_zero())
    for (unsigned mask : z_masks())
      EXPECT_EQ(std::popcount(cw & mask) % 2, 0);
  // |1>_L components too (complements).
  for (unsigned cw : codewords_zero())
    for (unsigned mask : z_masks())
      EXPECT_EQ(std::popcount((cw ^ 0x7FFF) & mask) % 2, 0);
}

TEST(ReedMuller, CodewordWeightsSupportTransversalT) {
  // |0>_L components have weight 0 mod 8; |1>_L components have weight
  // congruent to 7 mod 8 — which is what makes T^(x)15 a logical phase.
  for (unsigned cw : codewords_zero()) {
    EXPECT_EQ(std::popcount(cw) % 8, 0);
    EXPECT_EQ(std::popcount(cw ^ 0x7FFF) % 8, 7);
  }
}

TEST(ReedMuller, StabilizersCommute) {
  const auto block = CodeBlock::contiguous(0, 15);
  std::vector<PauliString> gens;
  for (int j = 0; j < 4; ++j)
    gens.push_back(rm15().x_stabilizer(15, block, j));
  for (int k = 0; k < 10; ++k)
    gens.push_back(rm15().z_stabilizer(15, block, k));
  for (const auto& a : gens)
    for (const auto& b : gens) EXPECT_TRUE(a.commutes_with(b));
  const auto lx = rm15().logical_x_op(15, block);
  const auto lz = rm15().logical_z_op(15, block);
  for (const auto& g : gens) {
    EXPECT_TRUE(lx.commutes_with(g));
    EXPECT_TRUE(lz.commutes_with(g));
  }
  EXPECT_FALSE(lx.commutes_with(lz));
}

TEST(ReedMuller, EncoderProducesTheCodeSpace) {
  Circuit c(15);
  const auto block = CodeBlock::contiguous(0, 15);
  rm15().append_encode_zero(c, block);
  TabBackend b(15, Rng(1));
  circuit::execute(c, b);
  for (int j = 0; j < 4; ++j)
    EXPECT_EQ(b.tableau().expectation_pauli(
                  rm15().x_stabilizer(15, block, j)),
              1.0)
        << "X gen " << j;
  for (int k = 0; k < 10; ++k)
    EXPECT_EQ(b.tableau().expectation_pauli(
                  rm15().z_stabilizer(15, block, k)),
              1.0)
        << "Z gen " << k;
  EXPECT_EQ(b.tableau().expectation_pauli(
                rm15().logical_z_op(15, block)),
            1.0);
}

TEST(ReedMuller, EncoderMatchesAnalyticAmplitudes) {
  Circuit c(15);
  const auto block = CodeBlock::contiguous(0, 15);
  rm15().append_encode_zero(c, block);
  SvBackend b(15, Rng(1));
  circuit::execute(c, b);
  const auto want = qsim::StateVector::from_amplitudes(
      rm15().encoded_amplitudes(1.0, 0.0));
  EXPECT_NEAR(b.state().fidelity(want), 1.0, 1e-10);
}

TEST(ReedMuller, TransversalTIsLogicalTdg) {
  // Bit-wise T on |+>_L gives (|0>_L + e^{-i pi/4} |1>_L)/sqrt2.
  Circuit c(15);
  const auto block = CodeBlock::contiguous(0, 15);
  rm15().append_encode_zero(c, block);
  SvBackend b(15, Rng(1));
  circuit::execute(c, b);
  // Build |+>_L analytically, apply bit-wise T.
  const double inv = 1.0 / std::sqrt(2.0);
  auto plus = qsim::StateVector::from_amplitudes(
      rm15().encoded_amplitudes(inv, inv));
  for (std::size_t q = 0; q < 15; ++q) plus.apply1(q, qsim::gate_t());
  const auto want = qsim::StateVector::from_amplitudes(
      rm15().encoded_amplitudes(
          inv, inv * std::polar(1.0, -M_PI / 4)));
  EXPECT_NEAR(plus.fidelity(want), 1.0, 1e-10);
}

TEST(ReedMuller, LogicalTBuilderActsAsT) {
  const double inv = 1.0 / std::sqrt(2.0);
  Circuit c(15);
  const auto block = CodeBlock::contiguous(0, 15);
  rm15().append_logical_t(c, block);
  SvBackend b(qsim::StateVector::from_amplitudes(
                  rm15().encoded_amplitudes(inv, inv)),
              Rng(1));
  circuit::execute(c, b);
  const auto want = qsim::StateVector::from_amplitudes(
      rm15().encoded_amplitudes(inv,
                                       inv * std::polar(1.0, M_PI / 4)));
  EXPECT_NEAR(b.state().fidelity(want), 1.0, 1e-10);
}

TEST(ReedMuller, LogicalTTimesTdgIsIdentity) {
  const double inv = 1.0 / std::sqrt(2.0);
  Circuit c(15);
  const auto block = CodeBlock::contiguous(0, 15);
  rm15().append_logical_t(c, block);
  rm15().append_logical_tdg(c, block);
  SvBackend b(qsim::StateVector::from_amplitudes(
                  rm15().encoded_amplitudes(inv, inv)),
              Rng(1));
  circuit::execute(c, b);
  const auto want = qsim::StateVector::from_amplitudes(
      rm15().encoded_amplitudes(inv, inv));
  EXPECT_NEAR(b.state().fidelity(want), 1.0, 1e-10);
}

TEST(ReedMuller, BitwiseHadamardLeavesTheCodeSpace) {
  // The mirror gap: H^(x)15 does NOT preserve the code space (the X and Z
  // stabilizer sets differ) — a measurement-free logical H on this code
  // would need the paper's machinery, just as T does on the Steane code.
  Circuit c(15);
  const auto block = CodeBlock::contiguous(0, 15);
  rm15().append_encode_zero(c, block);
  for (auto q : block.q) c.h(q);
  TabBackend b(15, Rng(1));
  circuit::execute(c, b);
  bool all_stabilized = true;
  for (int k = 0; k < 10 && all_stabilized; ++k)
    all_stabilized =
        b.tableau().expectation_pauli(
            rm15().z_stabilizer(15, block, k)) == 1.0;
  EXPECT_FALSE(all_stabilized);
}

TEST(ReedMuller, TransversalCnotIsLogical) {
  Circuit c(30);
  const auto a = CodeBlock::contiguous(0, 15);
  const auto t = CodeBlock::contiguous(15, 15);
  rm15().append_encode_zero(c, a);
  rm15().append_logical_x(c, a);
  rm15().append_encode_zero(c, t);
  rm15().append_logical_cnot(c, a, t);
  TabBackend b(30, Rng(1));
  circuit::execute(c, b);
  EXPECT_EQ(b.tableau().expectation_pauli(
                rm15().logical_z_op(30, a)),
            -1.0);
  EXPECT_EQ(b.tableau().expectation_pauli(
                rm15().logical_z_op(30, t)),
            -1.0);
}

TEST(ReedMuller, CodewordsFormTheXStabilizerSpan) {
  // |0>_L's Z-basis components are exactly the GF(2) span of the four
  // X-stabilizer masks: 16 words, closed under XOR, containing 0.
  std::set<unsigned> span = {0};
  for (int j = 0; j < 4; ++j) {
    std::set<unsigned> next = span;
    for (unsigned w : span) next.insert(w ^ x_mask(j));
    span = std::move(next);
  }
  EXPECT_EQ(span.size(), 16u);
  const auto zero_words = codewords_zero();
  std::set<unsigned> cws(zero_words.begin(), zero_words.end());
  EXPECT_EQ(cws, span);
  for (unsigned a : cws)
    for (unsigned b : cws) EXPECT_TRUE(cws.count(a ^ b)) << a << "^" << b;
}

TEST(ReedMuller, ExhaustiveDistanceIsExactlyThree) {
  // Quantum distance 3, checked exhaustively at the mask level: every
  // weight <= 2 X (Z) error pattern either trips a Z-type (X-type) check
  // or lies in the matching stabilizer span; and some weight-3 pattern is
  // an undetectable non-stabilizer (a logical).
  std::set<unsigned> z_span = {0};  // span of the ten Z masks
  for (unsigned m : z_masks()) {
    std::set<unsigned> next = z_span;
    for (unsigned w : z_span) next.insert(w ^ m);
    z_span = std::move(next);
  }
  std::set<unsigned> x_span = {0};  // span of the four X masks
  for (int j = 0; j < 4; ++j) {
    std::set<unsigned> next = x_span;
    for (unsigned w : x_span) next.insert(w ^ x_mask(j));
    x_span = std::move(next);
  }
  auto detected_x = [](unsigned e) {  // X error pattern e trips a Z check
    for (unsigned m : z_masks())
      if (std::popcount(m & e) % 2 != 0) return true;
    return false;
  };
  auto detected_z = [](unsigned e) {  // Z error pattern e trips an X check
    for (int j = 0; j < 4; ++j)
      if (std::popcount(x_mask(j) & e) % 2 != 0) return true;
    return false;
  };
  bool weight3_x_logical = false, weight3_z_logical = false;
  for (unsigned e = 1; e < (1u << 15); ++e) {
    const int w = std::popcount(e);
    if (w <= 2) {
      EXPECT_TRUE(detected_x(e) || x_span.count(e)) << "X pattern " << e;
      EXPECT_TRUE(detected_z(e) || z_span.count(e)) << "Z pattern " << e;
    } else if (w == 3) {
      weight3_x_logical |= !detected_x(e) && !x_span.count(e);
      weight3_z_logical |= !detected_z(e) && !z_span.count(e);
    }
  }
  // The distance is asymmetric: a weight-3 Z logical exists (d = 3 comes
  // from the Z side), while the minimum X logical is heavier — no weight-3
  // X pattern evades the ten Z-type checks.
  EXPECT_TRUE(weight3_z_logical);
  EXPECT_FALSE(weight3_x_logical);
}

TEST(ReedMuller, TransversalTPhasesEveryBasisComponent) {
  // The logical action of bit-wise T, component by component: each |0>_L
  // word picks up e^{i pi/4 * (weight mod 8)} = 1, each |1>_L word
  // e^{i pi/4 * 7} = e^{-i pi/4} — i.e. logical Tdg, which is why
  // append_logical_t emits bit-wise Tdg.
  for (unsigned cw : codewords_zero()) {
    EXPECT_EQ(std::popcount(cw) % 8, 0);
    const auto phase = std::polar(1.0, M_PI / 4 * (std::popcount(cw) % 8));
    EXPECT_NEAR(std::abs(phase - 1.0), 0.0, 1e-12);
    const unsigned one_cw = cw ^ 0x7FFF;
    const auto one_phase =
        std::polar(1.0, M_PI / 4 * (std::popcount(one_cw) % 8));
    EXPECT_NEAR(std::abs(one_phase - std::polar(1.0, -M_PI / 4)), 0.0, 1e-12);
  }
}

TEST(ReedMuller, DistanceThreeAgainstSingleErrors) {
  // Every weight-1 Z error anticommutes with at least one X generator and
  // every weight-1 X error with at least one Z generator (detectability).
  const auto block = CodeBlock::contiguous(0, 15);
  for (unsigned i = 0; i < 15; ++i) {
    bool detected_z = false;
    const auto ze = PauliString::single(15, i, Pauli::Z);
    for (int j = 0; j < 4; ++j)
      detected_z |= !ze.commutes_with(rm15().x_stabilizer(15, block, j));
    EXPECT_TRUE(detected_z) << i;
    bool detected_x = false;
    const auto xe = PauliString::single(15, i, Pauli::X);
    for (int k = 0; k < 10; ++k)
      detected_x |= !xe.commutes_with(rm15().z_stabilizer(15, block, k));
    EXPECT_TRUE(detected_x) << i;
  }
}

}  // namespace
}  // namespace eqc::codes
