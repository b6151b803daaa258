// Tests for the CssCode interface: registry lookup,
// classical structure (check masks, syndromes, decoding) and the encode /
// logical-operator circuit builders, exercised uniformly over both
// registered codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/sv_backend.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
#include "common/rng.h"

namespace eqc::codes {
namespace {

using circuit::Circuit;
using circuit::SvBackend;
using circuit::TabBackend;

std::vector<const CssCode*> all_codes() {
  std::vector<const CssCode*> out;
  for (auto name : known_code_names()) out.push_back(find_code(name));
  return out;
}

TEST(CssCodeRegistry, LookupByName) {
  const auto names = known_code_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "steane");
  EXPECT_EQ(names[1], "rm15");
  EXPECT_EQ(find_code("steane"), &steane_code());
  EXPECT_EQ(find_code("rm15"), &rm15_code());
  EXPECT_EQ(find_code("shor9"), nullptr);
  EXPECT_EQ(find_code(""), nullptr);
}

TEST(CssCodeRegistry, Parameters) {
  const auto& s = steane_code();
  EXPECT_EQ(s.n(), 7u);
  EXPECT_EQ(s.distance(), 3);
  EXPECT_EQ(s.num_z_checks(), 3u);
  EXPECT_EQ(s.num_x_checks(), 3u);
  EXPECT_TRUE(s.self_dual());
  EXPECT_TRUE(s.has_transversal_s());
  EXPECT_FALSE(s.has_transversal_t());

  const auto& r = rm15_code();
  EXPECT_EQ(r.n(), 15u);
  EXPECT_EQ(r.distance(), 3);
  EXPECT_EQ(r.num_z_checks(), 10u);
  EXPECT_EQ(r.num_x_checks(), 4u);
  EXPECT_FALSE(r.self_dual());
  EXPECT_FALSE(r.has_transversal_s());
  EXPECT_TRUE(r.has_transversal_t());
}

TEST(CssCode, ChecksAreCssOrthogonal) {
  // Every Z-type mask overlaps every X-type mask evenly (the stabilizers
  // commute) and overlaps the all-ones logical supports evenly too.
  for (const auto* code : all_codes()) {
    const unsigned ones = (1u << code->n()) - 1;
    for (std::size_t z = 0; z < code->num_z_checks(); ++z) {
      for (std::size_t x = 0; x < code->num_x_checks(); ++x)
        EXPECT_EQ(std::popcount(code->z_check_mask(z) &
                                code->x_check_mask(x)) %
                      2,
                  0)
            << code->name() << " z" << z << " x" << x;
      EXPECT_EQ(std::popcount(code->z_check_mask(z) & ones) % 2, 0);
    }
    for (std::size_t x = 0; x < code->num_x_checks(); ++x)
      EXPECT_EQ(std::popcount(code->x_check_mask(x) & ones) % 2, 0);
  }
}

TEST(CssCode, SingleErrorSyndromesAreDistinctAndNonzero) {
  // Classical distance >= 3 in both directions: every single error is
  // detectable (nonzero syndrome) and correctable (distinct syndromes),
  // and the lookup positions invert the syndrome maps.
  for (const auto* code : all_codes()) {
    std::set<unsigned> zsyn, xsyn;
    for (std::size_t pos = 0; pos < code->n(); ++pos) {
      const unsigned sz = code->z_syndrome_of_x_error(pos);
      const unsigned sx = code->x_syndrome_of_z_error(pos);
      EXPECT_NE(sz, 0u) << code->name() << " pos " << pos;
      EXPECT_NE(sx, 0u) << code->name() << " pos " << pos;
      EXPECT_TRUE(zsyn.insert(sz).second) << code->name() << " pos " << pos;
      EXPECT_TRUE(xsyn.insert(sx).second) << code->name() << " pos " << pos;
      EXPECT_EQ(code->x_error_position(sz), static_cast<int>(pos));
      EXPECT_EQ(code->z_error_position(sx), static_cast<int>(pos));
    }
    EXPECT_EQ(code->x_error_position(0), -1);
    EXPECT_EQ(code->z_error_position(0), -1);
  }
}

TEST(CssCode, DecodeLogicalBitCorrectsSingleBitErrors) {
  // Enumerate the full classical code (all words with zero Z-syndrome);
  // the logical bit of a codeword is its parity, and it must survive any
  // single bit flip.
  for (const auto* code : all_codes()) {
    std::size_t codewords = 0;
    for (unsigned w = 0; w < (1u << code->n()); ++w) {
      if (code->z_syndrome_of_word(w) != 0) continue;
      ++codewords;
      const bool logical = std::popcount(w) % 2 != 0;
      EXPECT_EQ(code->decode_logical_bit(w), logical);
      for (std::size_t e = 0; e < code->n(); ++e)
        EXPECT_EQ(code->decode_logical_bit(w ^ (1u << e)), logical)
            << code->name() << " word " << w << " flip " << e;
    }
    // 2^(n - num_z_checks) words: both logical cosets.
    EXPECT_EQ(codewords, 1u << (code->n() - code->num_z_checks()));
  }
}

TEST(CssCode, EncodeZeroLandsInCodespace) {
  for (const auto* code : all_codes()) {
    const auto b = CodeBlock::contiguous(0, code->n());
    Circuit c(code->n());
    code->append_encode_zero(c, b);
    TabBackend back(code->n(), Rng(1));
    circuit::execute(c, back);
    EXPECT_TRUE(code->block_in_codespace(back.tableau(), b)) << code->name();
    EXPECT_EQ(code->logical_z_expectation(back.tableau(), b), 1.0)
        << code->name();
  }
}

TEST(CssCode, LogicalXFlipsTheEncodedBit) {
  for (const auto* code : all_codes()) {
    const auto b = CodeBlock::contiguous(0, code->n());
    Circuit c(code->n());
    code->append_encode_zero(c, b);
    code->append_logical_x(c, b);
    TabBackend back(code->n(), Rng(1));
    circuit::execute(c, back);
    EXPECT_TRUE(code->block_in_codespace(back.tableau(), b)) << code->name();
    EXPECT_EQ(code->logical_z_expectation(back.tableau(), b), -1.0)
        << code->name();
  }
}

TEST(CssCode, EncodePlusIsTheLogicalPlusState) {
  for (const auto* code : all_codes()) {
    const auto b = CodeBlock::contiguous(0, code->n());
    Circuit c(code->n());
    code->append_encode_plus(c, b);
    TabBackend back(code->n(), Rng(1));
    circuit::execute(c, back);
    EXPECT_TRUE(code->block_in_codespace(back.tableau(), b)) << code->name();
    EXPECT_EQ(code->logical_z_expectation(back.tableau(), b), 0.0)
        << code->name();
    EXPECT_EQ(back.tableau().expectation_pauli(
                  code->logical_x_op(code->n(), b)),
              1.0)
        << code->name();
  }
}

TEST(CssCode, PerfectCorrectRepairsSingleErrors) {
  for (const auto* code : all_codes()) {
    const auto b = CodeBlock::contiguous(0, code->n());
    for (std::size_t pos = 0; pos < code->n(); ++pos) {
      // X error on |0>_L.
      {
        Circuit c(code->n());
        code->append_encode_zero(c, b);
        c.x(b.q[pos]);
        TabBackend back(code->n(), Rng(7));
        circuit::execute(c, back);
        Rng rng(11);
        code->perfect_correct(back.tableau(), b, rng);
        EXPECT_TRUE(code->block_in_codespace(back.tableau(), b))
            << code->name() << " X@" << pos;
        EXPECT_EQ(code->logical_z_expectation(back.tableau(), b), 1.0)
            << code->name() << " X@" << pos;
      }
      // Z error on |+>_L.
      {
        Circuit c(code->n());
        code->append_encode_plus(c, b);
        c.z(b.q[pos]);
        TabBackend back(code->n(), Rng(7));
        circuit::execute(c, back);
        Rng rng(11);
        code->perfect_correct(back.tableau(), b, rng);
        EXPECT_TRUE(code->block_in_codespace(back.tableau(), b))
            << code->name() << " Z@" << pos;
        EXPECT_EQ(back.tableau().expectation_pauli(
                      code->logical_x_op(code->n(), b)),
                  1.0)
            << code->name() << " Z@" << pos;
      }
    }
  }
}

TEST(CssCode, SteaneLogicalHOnZeroGivesPlus) {
  const auto& code = steane_code();
  const auto b = CodeBlock::contiguous(0, 7);
  Circuit c(7);
  code.append_encode_zero(c, b);
  code.append_logical_h(c, b);
  TabBackend back(7, Rng(1));
  circuit::execute(c, back);
  EXPECT_TRUE(code.block_in_codespace(back.tableau(), b));
  EXPECT_EQ(code.logical_z_expectation(back.tableau(), b), 0.0);
  EXPECT_EQ(back.tableau().expectation_pauli(code.logical_x_op(7, b)), 1.0);
}

TEST(CssCode, SuperpositionEncoderSpansTheSteaneZeroState) {
  // |0>_L of the Steane code is the uniform superposition over the span of
  // the three X-stabilizer masks — the pivot-form encoder must reproduce
  // it exactly.
  const auto& code = steane_code();
  const auto b = CodeBlock::contiguous(0, 7);
  std::vector<unsigned> masks;
  for (std::size_t row = 0; row < code.num_x_checks(); ++row)
    masks.push_back(code.x_check_mask(row));
  Circuit c(7);
  append_superposition_encoder(c, b, masks);
  SvBackend back(7, Rng(1));
  circuit::execute(c, back);
  const auto want = qsim::StateVector::from_amplitudes(
      code.encoded_amplitudes(1.0, 0.0));
  EXPECT_NEAR(back.state().fidelity(want), 1.0, 1e-10);
}

TEST(CssCode, EncodersReachEncodedAmplitudes) {
  // On the state vector, every registered code's encode-zero, encode-zero
  // plus logical X, and encode-plus circuits land exactly on the analytic
  // |0>_L, |1>_L and |+>_L built from the span of the X checks.
  const double inv = 1.0 / std::sqrt(2.0);
  for (const auto* code : all_codes()) {
    const auto b = CodeBlock::contiguous(0, code->n());
    auto reaches = [&](const Circuit& c, cplx alpha, cplx beta) {
      SvBackend back(code->n(), Rng(1));
      circuit::execute(c, back);
      const auto want = qsim::StateVector::from_amplitudes(
          code->encoded_amplitudes(alpha, beta));
      EXPECT_NEAR(want.norm(), 1.0, 1e-12) << code->name();
      return back.state().fidelity(want);
    };
    Circuit zero(code->n());
    code->append_encode_zero(zero, b);
    EXPECT_NEAR(reaches(zero, 1.0, 0.0), 1.0, 1e-10) << code->name();
    Circuit one = zero;
    code->append_logical_x(one, b);
    EXPECT_NEAR(reaches(one, 0.0, 1.0), 1.0, 1e-10) << code->name();
    Circuit plus(code->n());
    code->append_encode_plus(plus, b);
    EXPECT_NEAR(reaches(plus, inv, inv), 1.0, 1e-10) << code->name();
  }
}

TEST(CssCode, ZRepairPlanCoversEverySyndrome) {
  // Steane is perfect: the one-hot single-position decode already reaches
  // every nonzero syndrome.
  EXPECT_TRUE(z_repair_plan(steane_code()).single_qubit_complete);

  // RM15 is not (16 of 1024 syndromes are single-qubit): the plan must be
  // an exact syndrome cover — H f(s) = s for EVERY s — with per-bit fanout
  // within the X-error correction radius, so a single corrupted classical
  // syndrome bit can never inject an uncorrectable burst.
  const CssCode& rm = rm15_code();
  const auto plan = z_repair_plan(rm);
  EXPECT_FALSE(plan.single_qubit_complete);
  ASSERT_EQ(plan.positions.size(), rm.num_z_checks());
  ASSERT_EQ(plan.tags.size(), rm.num_z_checks());
  EXPECT_LE(plan.max_bit_fanout, 3u);
  for (unsigned s = 0; s < (1u << rm.num_z_checks()); ++s) {
    unsigned pattern = 0;
    for (std::size_t j = 0; j < plan.positions.size(); ++j)
      if (std::popcount(plan.tags[j] & s) & 1)
        pattern |= 1u << plan.positions[j];
    EXPECT_EQ(rm.z_syndrome_of_word(pattern), s);
  }
}

TEST(CssCode, EvenPairSyndromesAreDisjointFromOddErrorSyndromes) {
  // Perfect codes leave the N gate's OR compensation alone.
  EXPECT_TRUE(z_repair_even_pair_syndromes(steane_code()).empty());

  // RM15: the pair syndromes are exactly the even-weight bursts a single
  // classical fault in the burst repair can leave on a block.  The N gate
  // cancels OR(s) on them, which is only sound if no odd-weight
  // correctable error shares a syndrome with a pair — check against all
  // weight-1 and weight-3 errors.
  const CssCode& rm = rm15_code();
  const auto pairs = z_repair_even_pair_syndromes(rm);
  ASSERT_FALSE(pairs.empty());
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  for (const unsigned s : pairs) {
    EXPECT_NE(s, 0u);
    for (std::size_t p = 0; p < rm.n(); ++p)
      EXPECT_NE(rm.z_syndrome_of_x_error(p), s);
    for (std::size_t p1 = 0; p1 < rm.n(); ++p1)
      for (std::size_t p2 = p1 + 1; p2 < rm.n(); ++p2)
        for (std::size_t p3 = p2 + 1; p3 < rm.n(); ++p3)
          ASSERT_NE(rm.z_syndrome_of_word((1u << p1) | (1u << p2) | (1u << p3)),
                    s);
  }
}

TEST(CssCode, PerfectCorrectRepairsTripleXErrorsOnRm15) {
  // RM15's X-distance is 7, so the ideal decoder must repair any weight-3
  // X error — the residue class the recovery gadget's repair machinery is
  // allowed to leave on the data after one internal fault.
  const CssCode& rm = rm15_code();
  const auto b = CodeBlock::contiguous(0, rm.n());
  for (std::size_t p1 = 0; p1 < rm.n(); ++p1)
    for (std::size_t p2 = p1 + 1; p2 < rm.n(); ++p2)
      for (std::size_t p3 = p2 + 1; p3 < rm.n(); ++p3) {
        Circuit c(rm.n());
        rm.append_encode_zero(c, b);
        c.x(b.q[p1]);
        c.x(b.q[p2]);
        c.x(b.q[p3]);
        TabBackend back(rm.n(), Rng(7));
        circuit::execute(c, back);
        Rng rng(11);
        rm.perfect_correct(back.tableau(), b, rng);
        ASSERT_EQ(rm.logical_z_expectation(back.tableau(), b), 1.0)
            << "X@" << p1 << "," << p2 << "," << p3;
      }
}

}  // namespace
}  // namespace eqc::codes
