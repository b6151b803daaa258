// Property-based sweeps across modules: randomized invariants that go
// beyond the targeted unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/schedule.h"
#include "circuit/sv_backend.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
#include "codes/hamming.h"
#include "common/assert.h"
#include "common/rng.h"
#include "pauli/pauli_string.h"
#include "qsim/gates.h"
#include "testing/circuit_gen.h"

namespace eqc {
namespace {

using circuit::Circuit;
using circuit::OpKind;
using pauli::Pauli;
using pauli::PauliString;
using testing::random_clifford_circuit;

const codes::CssCode& steane() { return codes::steane_code(); }

// Scheduling must not change semantics: a circuit executed through the
// moment-based executor equals gate-by-gate application on a state vector.
class ScheduleSemantics : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleSemantics, ExecutorMatchesDirectApplication) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.below(4);
  const auto c = random_clifford_circuit(n, 40, rng);

  circuit::SvBackend scheduled(n, Rng(1));
  circuit::execute(c, scheduled);

  qsim::StateVector direct(n);
  for (const auto& op : c.ops()) {
    switch (op.kind) {
      case OpKind::H: direct.apply1(op.q[0], qsim::gate_h()); break;
      case OpKind::S: direct.apply1(op.q[0], qsim::gate_s()); break;
      case OpKind::Sdg: direct.apply1(op.q[0], qsim::gate_sdg()); break;
      case OpKind::X: direct.apply1(op.q[0], qsim::gate_x()); break;
      case OpKind::Y: direct.apply1(op.q[0], qsim::gate_y()); break;
      case OpKind::Z: direct.apply1(op.q[0], qsim::gate_z()); break;
      case OpKind::CNOT: direct.apply_cnot(op.q[0], op.q[1]); break;
      case OpKind::CZ: direct.apply_cz(op.q[0], op.q[1]); break;
      case OpKind::Swap: direct.apply_swap(op.q[0], op.q[1]); break;
      default: FAIL() << "unexpected op";
    }
  }
  EXPECT_NEAR(scheduled.state().fidelity(direct), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleSemantics,
                         ::testing::Range<std::uint64_t>(300, 312));

// Schedule structural invariants: per-qubit program order is preserved and
// no two ops in one moment share a qubit.
class ScheduleStructure : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleStructure, MomentsAreConflictFreeAndOrdered) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.below(5);
  const auto c = random_clifford_circuit(n, 60, rng);
  const auto sched = circuit::schedule(c);

  std::vector<std::size_t> moment_of(c.size());
  for (std::size_t t = 0; t < sched.moments.size(); ++t) {
    std::vector<bool> used(n, false);
    for (auto idx : sched.moments[t]) {
      moment_of[idx] = t;
      for (int k = 0; k < circuit::arity(c.ops()[idx].kind); ++k) {
        EXPECT_FALSE(used[c.ops()[idx].q[k]]) << "conflict in moment " << t;
        used[c.ops()[idx].q[k]] = true;
      }
    }
  }
  // Program order per qubit.
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = i + 1; j < c.size(); ++j) {
      bool shares = false;
      for (int a = 0; a < circuit::arity(c.ops()[i].kind); ++a)
        for (int b = 0; b < circuit::arity(c.ops()[j].kind); ++b)
          shares |= c.ops()[i].q[a] == c.ops()[j].q[b];
      if (shares) {
        EXPECT_LT(moment_of[i], moment_of[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleStructure,
                         ::testing::Range<std::uint64_t>(400, 410));

// Pauli algebra: (PQ)R == P(QR) with exact phases, and P * P^(-1) == I.
class PauliAssociativity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PauliAssociativity, GroupLaws) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.below(6);
  auto random_p = [&] {
    PauliString p(n);
    for (std::size_t q = 0; q < n; ++q)
      p.set(q, static_cast<Pauli>(rng.below(4)));
    p.set_phase(static_cast<int>(rng.below(4)));
    return p;
  };
  const auto p = random_p();
  const auto q = random_p();
  const auto r = random_p();

  auto pq_r = p;
  pq_r.multiply_by(q);
  pq_r.multiply_by(r);
  auto qr = q;
  qr.multiply_by(r);
  auto p_qr = p;
  p_qr.multiply_by(qr);
  EXPECT_TRUE(pq_r == p_qr);

  // Hermitian squares: (i^-phase P)^2 = I for the label part.
  auto sq = p;
  sq.multiply_by(p);
  EXPECT_TRUE(sq.is_identity());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PauliAssociativity,
                         ::testing::Range<std::uint64_t>(500, 516));

// Reduced density matrices: tracing out nothing is the full projector and
// partial traces have unit trace.
TEST(ReducedDensity, TraceIsOne) {
  Rng rng(77);
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<cplx> amp(8);
    for (auto& a : amp) a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
    auto sv = qsim::StateVector::from_amplitudes(std::move(amp));
    sv.normalize();
    for (const auto& subset :
         std::vector<std::vector<std::size_t>>{{0}, {1}, {2}, {0, 2}, {1, 2}}) {
      const auto rho = sv.reduced_density_matrix(subset);
      const std::uint64_t d = std::uint64_t{1} << subset.size();
      cplx trace = 0;
      for (std::uint64_t i = 0; i < d; ++i) trace += rho[i * d + i];
      EXPECT_NEAR(trace.real(), 1.0, 1e-10);
      EXPECT_NEAR(trace.imag(), 0.0, 1e-10);
      // Hermitian.
      for (std::uint64_t a = 0; a < d; ++a)
        for (std::uint64_t b = 0; b < d; ++b)
          EXPECT_NEAR(std::abs(rho[a * d + b] - std::conj(rho[b * d + a])),
                      0.0, 1e-10);
    }
  }
}

// Steane encoding survives a random transversal Clifford layer: the state
// stays in the code space when the layer is one of the transversal logical
// gates.
class TransversalClosure : public ::testing::TestWithParam<int> {};

TEST_P(TransversalClosure, LogicalGatesPreserveTheCodeSpace) {
  const int which = GetParam();
  Circuit c(7);
  const auto block = codes::CodeBlock::contiguous(0, 7);
  steane().append_encode_plus(c, block);
  switch (which) {
    case 0: steane().append_logical_x(c, block); break;
    case 1: steane().append_logical_z(c, block); break;
    case 2: steane().append_logical_h(c, block); break;
    case 3: steane().append_logical_s(c, block); break;
    case 4: steane().append_logical_sdg(c, block); break;
  }
  circuit::TabBackend b(7, Rng(3));
  circuit::execute(c, b);
  EXPECT_TRUE(steane().block_in_codespace(b.tableau(), block));
}

INSTANTIATE_TEST_SUITE_P(AllGates, TransversalClosure, ::testing::Range(0, 5));

// Random single-qubit errors never change the *syndrome-corrected* logical
// readout of an encoded basis state (classical decoding property).
class DecodeRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeRobustness, HammingDecodeAbsorbsSingleBitFlips) {
  Rng rng(GetParam());
  for (int rep = 0; rep < 50; ++rep) {
    // Random Hamming codeword + random single flip.
    const auto words = codes::Hamming74::codewords();
    const unsigned cw = words[rng.below(words.size())];
    const unsigned pos = static_cast<unsigned>(rng.below(7));
    const bool logical = codes::word_parity(cw);
    EXPECT_EQ(steane().decode_logical_bit(cw ^ (1u << pos)), logical);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeRobustness,
                         ::testing::Range<std::uint64_t>(600, 606));

}  // namespace
}  // namespace eqc
