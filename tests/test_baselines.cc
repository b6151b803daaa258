// Tests for the measurement-based baseline protocols and the verification
// helpers — the comparison points every experiment measures against.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/sv_backend.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
#include "common/assert.h"
#include "ftqc/baselines.h"
#include "ftqc/layout.h"
#include "ftqc/recovery.h"

namespace eqc::ftqc {
namespace {

using circuit::Circuit;
using circuit::SvBackend;
using circuit::TabBackend;
using pauli::Pauli;
using pauli::PauliString;

const codes::CssCode& steane() { return codes::steane_code(); }

TEST(MeasuredReadout, DecodesLogicalBasisStates) {
  for (bool one : {false, true}) {
    Circuit c(7);
    const auto block = codes::CodeBlock::contiguous(0, 7);
    steane().append_encode_zero(c, block);
    if (one) steane().append_logical_x(c, block);
    const auto f = append_measured_logical_readout(c, steane(), block);
    // Evaluate the classical function after execution.
    TabBackend b(7, Rng(3));
    const auto result = circuit::execute(c, b);
    EXPECT_EQ(c.classical_funcs()[f](result.cbits), one);
  }
}

class MeasuredReadoutRobust : public ::testing::TestWithParam<int> {};

TEST_P(MeasuredReadoutRobust, SurvivesOneBitError) {
  const int pos = GetParam();
  Circuit c(7);
  const auto block = codes::CodeBlock::contiguous(0, 7);
  steane().append_encode_zero(c, block);
  steane().append_logical_x(c, block);
  c.x(block.q[pos]);  // one pre-measurement bit error
  const auto f = append_measured_logical_readout(c, steane(), block);
  TabBackend b(7, Rng(3));
  const auto result = circuit::execute(c, b);
  EXPECT_TRUE(c.classical_funcs()[f](result.cbits));
}

INSTANTIATE_TEST_SUITE_P(AllPositions, MeasuredReadoutRobust,
                         ::testing::Range(0, 7));

TEST(MeasuredReadout, SuperpositionCollapsesToConsistentValue) {
  // On |+>_L the measured word is a random Hamming codeword, but decode is
  // deterministic per run and the machine state collapses accordingly.
  int ones = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Circuit c(7);
    const auto block = codes::CodeBlock::contiguous(0, 7);
    steane().append_encode_plus(c, block);
    const auto f = append_measured_logical_readout(c, steane(), block);
    TabBackend b(7, Rng(seed));
    const auto result = circuit::execute(c, b);
    ones += c.classical_funcs()[f](result.cbits) ? 1 : 0;
  }
  EXPECT_GT(ones, 8);
  EXPECT_LT(ones, 32);  // roughly fair coin
}

TEST(VerificationEc, FixesEveryWeightOneErrorOnSv) {
  const double inv = 1.0 / std::sqrt(2.0);
  for (int pos = 0; pos < 7; ++pos) {
    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
      ftqc::Layout layout;
      const auto block = layout.block(steane());
      const auto anc = layout.bit();
      Circuit c(layout.total());
      steane().append_encode_plus(c, block);
      switch (p) {
        case Pauli::X: c.x(block.q[pos]); break;
        case Pauli::Y: c.y(block.q[pos]); break;
        case Pauli::Z: c.z(block.q[pos]); break;
        default: break;
      }
      append_measured_verification_ec(c, steane(), block, anc);
      SvBackend b(layout.total(), Rng(5));
      circuit::execute(c, b);
      const auto want = steane().encoded_amplitudes(inv, inv);
      std::vector<std::size_t> qs(block.q.begin(), block.q.end());
      EXPECT_NEAR(b.state().subsystem_fidelity(qs, want), 1.0, 1e-9)
          << pos << " " << pauli::to_char(p);
    }
  }
}

TEST(Recovery, SingleRoundVariantAlsoCorrects) {
  // rounds = 1 exercises the no-vote branch; with a noiseless gadget it
  // must still correct planted weight-1 errors.
  for (int pos = 0; pos < 7; ++pos) {
    ftqc::Layout layout;
    const auto data = layout.block(steane());
    auto anc = allocate_recovery_ancillas(layout, steane(), 1);
    Circuit c(layout.total());
    steane().append_encode_zero(c, data);
    c.x(data.q[pos]);
    RecoveryOptions opt;
    opt.rounds = 1;
    append_recovery(c, steane(), data, anc, opt);
    TabBackend b(layout.total(), Rng(7));
    circuit::execute(c, b);
    EXPECT_TRUE(steane().block_in_codespace(b.tableau(), data));
    EXPECT_EQ(steane().logical_z_expectation(b.tableau(), data), 1.0);
  }
}

TEST(Recovery, MeasuredSingleRoundVariant) {
  ftqc::Layout layout;
  const auto data = layout.block(steane());
  auto anc = allocate_recovery_ancillas(layout, steane(), 1);
  Circuit c(layout.total());
  steane().append_encode_zero(c, data);
  c.z(data.q[3]);
  RecoveryOptions opt;
  opt.rounds = 1;
  opt.measurement_free = false;
  append_recovery(c, steane(), data, anc, opt);
  TabBackend b(layout.total(), Rng(7));
  circuit::execute(c, b);
  EXPECT_TRUE(steane().block_in_codespace(b.tableau(), data));
  EXPECT_EQ(steane().logical_z_expectation(b.tableau(), data), 1.0);
}

TEST(MeasuredToffoli, RandomSeedsAllCorrect) {
  // Feed-forward randomness must never change the logical outcome.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    ftqc::Layout layout;
    BareToffoliRegs r;
    r.a = layout.bit(); r.b = layout.bit(); r.c = layout.bit();
    r.x = layout.bit(); r.y = layout.bit(); r.z = layout.bit();
    r.m1 = layout.bit(); r.m2 = layout.bit(); r.m3 = layout.bit();
    r.m12 = layout.bit();
    Circuit c(layout.total());
    c.x(r.x);
    c.x(r.y);  // x = y = 1, z = 0 -> c out = 1
    append_bare_and_state(c, r.a, r.b, r.c);
    append_measured_toffoli_gadget_bare(c, r);
    SvBackend b(layout.total(), Rng(seed));
    circuit::execute(c, b);
    EXPECT_NEAR(b.state().prob_one(r.a), 1.0, 1e-9);
    EXPECT_NEAR(b.state().prob_one(r.b), 1.0, 1e-9);
    EXPECT_NEAR(b.state().prob_one(r.c), 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace eqc::ftqc
