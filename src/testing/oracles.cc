#include "testing/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "circuit/execute.h"
#include "circuit/schedule.h"
#include "common/assert.h"
#include "frame/frames.h"
#include "noise/model.h"
#include "testing/circuit_edit.h"

namespace eqc::testing {

using circuit::Circuit;
using circuit::Op;
using circuit::OpKind;
using pauli::PauliString;

// --- planted bugs -----------------------------------------------------------

const char* to_string(PlantedBug bug) {
  switch (bug) {
    case PlantedBug::None: return "none";
    case PlantedBug::SInverted: return "s-inverted";
    case PlantedBug::CnotReversed: return "cnot-reversed";
    case PlantedBug::CzDropped: return "cz-dropped";
    case PlantedBug::CczWrongPair: return "ccz-wrong-pair";
    case PlantedBug::FrameCnotSwapped: return "frame-cnot-swapped";
  }
  return "?";
}

PlantedBug bug_from_string(const std::string& name) {
  if (name == "none") return PlantedBug::None;
  if (name == "s-inverted") return PlantedBug::SInverted;
  if (name == "cnot-reversed") return PlantedBug::CnotReversed;
  if (name == "cz-dropped") return PlantedBug::CzDropped;
  if (name == "ccz-wrong-pair") return PlantedBug::CczWrongPair;
  if (name == "frame-cnot-swapped") return PlantedBug::FrameCnotSwapped;
  throw ContractViolation("unknown planted bug: " + name);
}

void BuggyTabBackend::s(std::size_t q) {
  if (bug_ == PlantedBug::SInverted)
    TabBackend::sdg(q);
  else
    TabBackend::s(q);
}

void BuggyTabBackend::cnot(std::size_t c, std::size_t t) {
  if (bug_ == PlantedBug::CnotReversed)
    TabBackend::cnot(t, c);
  else
    TabBackend::cnot(c, t);
}

void BuggyTabBackend::cz(std::size_t a, std::size_t b) {
  if (bug_ == PlantedBug::CzDropped) return;
  TabBackend::cz(a, b);
}

void BuggyTabBackend::ccx(std::size_t c0, std::size_t c1, std::size_t t) {
  TabBackend::ccx(c0, c1, t);
}

void BuggyTabBackend::ccz(std::size_t a, std::size_t b, std::size_t c) {
  if (bug_ == PlantedBug::CczWrongPair) {
    const std::size_t qs[3] = {a, b, c};
    for (int i = 0; i < 3; ++i) {
      if (tableau().is_deterministic_z(qs[i])) {
        // Wrong lowering: the applied CZ pair includes the classical
        // participant itself instead of the two remaining qubits.
        if (tableau().deterministic_z_value(qs[i]))
          TabBackend::cz(qs[i], qs[(i + 1) % 3]);
        return;
      }
    }
  }
  TabBackend::ccz(a, b, c);
}

BackendFactory sv_factory() {
  return [](std::size_t n, std::uint64_t seed) {
    return std::make_unique<circuit::SvBackend>(n, Rng(seed));
  };
}

BackendFactory tab_factory(PlantedBug bug) {
  return [bug](std::size_t n, std::uint64_t seed) {
    return std::make_unique<BuggyTabBackend>(n, Rng(seed), bug);
  };
}

// --- helpers ----------------------------------------------------------------

cplx dense_expectation(const qsim::StateVector& sv, const PauliString& p) {
  qsim::StateVector applied = sv;
  applied.apply_pauli(p);
  return sv.inner_product(applied);
}

PauliString conjugate_through(const Circuit& c, PauliString p) {
  EQC_EXPECTS(p.num_qubits() == c.num_qubits());
  for (const Op& op : c.ops()) {
    switch (op.kind) {
      case OpKind::H: p.conjugate_h(op.q[0]); break;
      case OpKind::S: p.conjugate_s(op.q[0]); break;
      case OpKind::Sdg: p.conjugate_sdg(op.q[0]); break;
      case OpKind::X: p.conjugate_x(op.q[0]); break;
      case OpKind::Y: p.conjugate_y(op.q[0]); break;
      case OpKind::Z: p.conjugate_z(op.q[0]); break;
      case OpKind::CNOT: p.conjugate_cnot(op.q[0], op.q[1]); break;
      case OpKind::CZ: p.conjugate_cz(op.q[0], op.q[1]); break;
      case OpKind::Swap: p.conjugate_swap(op.q[0], op.q[1]); break;
      default:
        throw ContractViolation(
            "conjugate_through: op is not a supported Clifford unitary: " +
            std::string(circuit::name(op.kind)));
    }
  }
  return p;
}

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Applies a unitary op to a backend (throws on anything non-unitary).
void apply_unitary(const Op& op, circuit::Backend& b) {
  switch (op.kind) {
    case OpKind::H: b.h(op.q[0]); break;
    case OpKind::X: b.x(op.q[0]); break;
    case OpKind::Y: b.y(op.q[0]); break;
    case OpKind::Z: b.z(op.q[0]); break;
    case OpKind::S: b.s(op.q[0]); break;
    case OpKind::Sdg: b.sdg(op.q[0]); break;
    case OpKind::T: b.t(op.q[0]); break;
    case OpKind::Tdg: b.tdg(op.q[0]); break;
    case OpKind::CNOT: b.cnot(op.q[0], op.q[1]); break;
    case OpKind::CZ: b.cz(op.q[0], op.q[1]); break;
    case OpKind::CS: b.cs(op.q[0], op.q[1]); break;
    case OpKind::CSdg: b.csdg(op.q[0], op.q[1]); break;
    case OpKind::Swap: b.swap(op.q[0], op.q[1]); break;
    case OpKind::CCX: b.ccx(op.q[0], op.q[1], op.q[2]); break;
    case OpKind::CCZ: b.ccz(op.q[0], op.q[1], op.q[2]); break;
    case OpKind::Idle: break;
    default:
      throw ContractViolation("apply_unitary: non-unitary op: " +
                              std::string(circuit::name(op.kind)));
  }
}

std::string op_label(const Circuit& c, std::size_t idx) {
  const Op& op = c.ops()[idx];
  std::string s = "op " + std::to_string(idx) + " (" +
                  std::string(circuit::name(op.kind));
  for (int k = 0; k < circuit::arity(op.kind); ++k)
    s += " " + std::to_string(op.q[k]);
  return s + ")";
}

/// Compares two backends observationally: per-qubit <Z> always; state
/// fidelity when both are dense; stabilizer expectations of seeded random
/// Paulis when both are tableaux.
OracleResult compare_backends(circuit::Backend& a, circuit::Backend& b,
                              std::uint64_t seed, double tol,
                              const std::string& what) {
  const std::size_t n = a.num_qubits();
  for (std::size_t q = 0; q < n; ++q) {
    const double ea = a.expectation_z(q);
    const double eb = b.expectation_z(q);
    if (std::abs(ea - eb) > tol)
      return {false, what + ": <Z_" + std::to_string(q) + "> " + fmt(ea) +
                         " vs " + fmt(eb)};
  }
  auto* sa = dynamic_cast<circuit::SvBackend*>(&a);
  auto* sb = dynamic_cast<circuit::SvBackend*>(&b);
  if (sa != nullptr && sb != nullptr) {
    const double f = sa->state().fidelity(sb->state());
    if (std::abs(f - 1.0) > tol)
      return {false, what + ": state fidelity " + fmt(f)};
  }
  auto* ta = dynamic_cast<circuit::TabBackend*>(&a);
  auto* tb = dynamic_cast<circuit::TabBackend*>(&b);
  if (ta != nullptr && tb != nullptr) {
    Rng prng(seed ^ 0xABCDEF12345ULL);
    for (std::size_t i = 0; i < 2 * n + 4; ++i) {
      const auto p = PauliString::random(n, prng);
      if (p.is_identity()) continue;
      const double ea = ta->tableau().expectation_pauli(p);
      const double eb = tb->tableau().expectation_pauli(p);
      if (std::abs(ea - eb) > tol)
        return {false, what + ": <" + p.to_string() + "> " + fmt(ea) +
                           " vs " + fmt(eb)};
    }
  }
  return {};
}

OracleResult guard(const std::function<OracleResult()>& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return {false, std::string("exception: ") + e.what()};
  }
}

}  // namespace

// --- differential -----------------------------------------------------------

OracleResult check_differential(const Circuit& c, std::uint64_t seed,
                                const BackendFactory& subject_factory,
                                double tol) {
  return guard([&]() -> OracleResult {
    const std::size_t n = c.num_qubits();
    // The reference rng is never drawn from: every collapse is forced onto
    // the subject's outcome via project_z.
    circuit::SvBackend ref(n, Rng(derive_stream_seed(seed, 0)));
    auto subject = subject_factory(n, derive_stream_seed(seed, 1));

    // A forced reset shared by PrepZ/PrepX: measure on the subject, replay
    // the outcome on the reference, flip both back to |0>.
    auto synced_collapse = [&](std::size_t q,
                               const std::string& what) -> OracleResult {
      const double e_sub = subject->expectation_z(q);
      const bool outcome = subject->measure_z(q);
      const bool deterministic = std::abs(std::abs(e_sub) - 1.0) <= tol;
      if (deterministic && outcome != (e_sub < 0))
        return {false, what + ": deterministic <Z> " + fmt(e_sub) +
                           " but outcome " + std::to_string(outcome)};
      const double expected = deterministic ? 1.0 : 0.5;
      const double prior = ref.state().prob_one(q);
      const double p_outcome = outcome ? prior : 1.0 - prior;
      if (std::abs(p_outcome - expected) > tol)
        return {false, what + ": sv P(outcome=" + std::to_string(outcome) +
                           ") = " + fmt(p_outcome) + ", subject implies " +
                           fmt(expected)};
      ref.state().project_z(q, outcome);
      if (outcome) return {true, outcome ? "1" : "0"};  // flag for callers
      return {true, "0"};
    };

    for (std::size_t i = 0; i < c.size(); ++i) {
      const Op& op = c.ops()[i];
      switch (op.kind) {
        case OpKind::MeasureZ: {
          auto r = synced_collapse(op.q[0], op_label(c, i));
          if (!r.ok) return r;
          break;
        }
        case OpKind::PrepZ:
        case OpKind::PrepX: {
          auto r = synced_collapse(op.q[0], op_label(c, i));
          if (!r.ok) return r;
          if (r.detail == "1") {
            subject->x(op.q[0]);
            ref.x(op.q[0]);
          }
          if (op.kind == OpKind::PrepX) {
            subject->h(op.q[0]);
            ref.h(op.q[0]);
          }
          break;
        }
        default:
          apply_unitary(op, *subject);
          apply_unitary(op, ref);
          break;
      }
      for (std::size_t q = 0; q < n; ++q) {
        const double es = ref.expectation_z(q);
        const double et = subject->expectation_z(q);
        if (std::abs(es - et) > tol)
          return {false, "after " + op_label(c, i) + ": <Z_" +
                             std::to_string(q) + "> sv " + fmt(es) +
                             " vs subject " + fmt(et)};
      }
    }

    // Post-state consistency: every stabilizer generator the tableau claims
    // must stabilize the dense state with eigenvalue +1.
    if (auto* tab = dynamic_cast<circuit::TabBackend*>(subject.get())) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto g = tab->tableau().stabilizer(i);
        const cplx e = dense_expectation(ref.state(), g);
        if (std::abs(e - cplx{1.0, 0.0}) > tol)
          return {false, "final state: claimed stabilizer " + g.to_string() +
                             " (i^" + std::to_string(g.phase()) +
                             ") has sv expectation " + fmt(e.real())};
      }
    }
    return {};
  });
}

// --- metamorphic ------------------------------------------------------------

OracleResult check_append_inverse(const Circuit& c, std::uint64_t seed,
                                  const BackendFactory& factory, double tol) {
  return guard([&]() -> OracleResult {
    Circuit round_trip = c;
    round_trip.append(circuit::inverse(c));
    auto b = factory(c.num_qubits(), seed);
    circuit::execute(round_trip, *b);
    for (std::size_t q = 0; q < c.num_qubits(); ++q) {
      const double e = b->expectation_z(q);
      if (std::abs(e - 1.0) > tol)
        return {false, "C.C^-1 |0..0>: <Z_" + std::to_string(q) + "> = " +
                           fmt(e) + " (want +1)"};
    }
    return {};
  });
}

OracleResult check_pauli_frame(const Circuit& c, std::uint64_t seed,
                               const BackendFactory& factory, double tol) {
  return guard([&]() -> OracleResult {
    Rng rng(seed);
    PauliString p = PauliString::random(c.num_qubits(), rng);
    const PauliString conj = conjugate_through(c, p);

    auto before = factory(c.num_qubits(), seed);
    before->apply_pauli(p);
    circuit::execute(c, *before);

    auto after = factory(c.num_qubits(), seed);
    circuit::execute(c, *after);
    after->apply_pauli(conj);

    return compare_backends(*before, *after, seed,
                            tol, "P;C vs C;(CPC^t) with P=" + p.to_string());
  });
}

OracleResult check_schedule_reorder(const Circuit& c, std::uint64_t seed,
                                    const BackendFactory& factory,
                                    double tol) {
  return guard([&]() -> OracleResult {
    const auto sched = circuit::schedule(c);
    std::vector<std::size_t> order;
    order.reserve(c.size());
    for (const auto& moment : sched.moments)
      order.insert(order.end(), moment.begin(), moment.end());
    const Circuit reordered = with_op_order(c, order);

    auto a = factory(c.num_qubits(), seed);
    circuit::execute(c, *a);
    auto b = factory(c.num_qubits(), seed);
    circuit::execute(reordered, *b);
    return compare_backends(*a, *b, seed, tol, "program vs schedule order");
  });
}

OracleResult check_relabel(const Circuit& c, std::uint64_t seed,
                           const BackendFactory& factory, double tol) {
  return guard([&]() -> OracleResult {
    const std::size_t n = c.num_qubits();
    Rng rng(seed);
    std::vector<std::uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = n - 1; i > 0; --i)
      std::swap(perm[i], perm[rng.below(i + 1)]);
    const Circuit relabeled = relabel_qubits(c, perm);

    auto a = factory(n, seed);
    const auto ra = circuit::execute(c, *a);
    auto b = factory(n, seed);
    const auto rb = circuit::execute(relabeled, *b);

    if (ra.cbits != rb.cbits) return {false, "relabel: cbit records differ"};
    for (std::size_t q = 0; q < n; ++q) {
      const double ea = a->expectation_z(q);
      const double eb = b->expectation_z(perm[q]);
      if (std::abs(ea - eb) > tol)
        return {false, "relabel: <Z_" + std::to_string(q) + "> " + fmt(ea) +
                           " vs <Z_" + std::to_string(perm[q]) + "> " +
                           fmt(eb)};
    }
    return {};
  });
}

// --- frame-vs-trial ---------------------------------------------------------

OracleResult check_frame_vs_trial(const Circuit& c, std::uint64_t seed,
                                  PlantedBug bug, double tol) {
  return guard([&]() -> OracleResult {
    const std::size_t n = c.num_qubits();
    constexpr unsigned kLanes = 32;
    // Strong enough noise that most lanes carry a non-trivial frame, with
    // per-kind scales drawn from the seed (0 disables a kind) so both
    // engines exercise the sampler's thinning path.
    auto model = noise::NoiseModel::paper_model(0.05);
    {
      static constexpr double kScales[4] = {0.0, 0.25, 1.0, 2.0};
      Rng scale_rng(derive_stream_seed(seed, 8191));
      for (double* scale : {&model.input_scale, &model.prep_scale,
                            &model.gate_scale, &model.measure_scale,
                            &model.idle_scale})
        *scale = kScales[scale_rng.below(4)];
      if (model.gate_scale == 0.0) model.gate_scale = 1.0;  // never vacuous
    }

    // Empty prep: the reference pass starts from |0...0> and every fault
    // site lives in the gadget (= the fuzzed circuit).
    frame::FrameProgram prog(n, Circuit(n), c, derive_stream_seed(seed, 0));
    if (bug == PlantedBug::FrameCnotSwapped)
      prog.set_planted_bug(frame::FrameBug::CnotSwapped);
    frame::FrameBatch batch(prog);
    try {
      batch.run_stochastic(model, seed, 0, kLanes);
    } catch (const frame::FrameUnsupported&) {
      return {};  // not frame-simulable for these trials: vacuously consistent
    }

    const PlantedBug tab_bug =
        bug == PlantedBug::FrameCnotSwapped ? PlantedBug::None : bug;
    const auto& ref_tab = prog.reference_tableau();
    for (unsigned l = 0; l < kLanes; ++l) {
      const std::string lane = "lane " + std::to_string(l);
      // The canonical per-trial Monte-Carlo execution for trial index l.
      Rng trial_rng(derive_stream_seed(seed, l));
      BuggyTabBackend backend(n, trial_rng.split(), tab_bug);
      noise::StochasticInjector injector(model, trial_rng.split());
      const auto r = circuit::execute(c, backend, &injector);

      if (r.cbits != batch.lane_cbits(l))
        return {false, lane + ": measurement records differ"};

      // The frame engine must leave the lane's backend stream exactly where
      // the per-trial driver would (failure predicates keep drawing from it).
      Rng lane_rng = batch.lane_backend_rng(l);
      Rng tab_rng = backend.rng();
      for (int k = 0; k < 4; ++k)
        if (lane_rng() != tab_rng())
          return {false, lane + ": backend rng streams diverge"};

      // Lane state = frame * reference, so <P> = +-<P>_ref with the sign
      // given by (anti)commutation of the lane frame with P.
      const auto f = batch.lane_frame(l);
      Rng prng(derive_stream_seed(seed, 4096 + l));
      for (std::size_t i = 0; i < n + 4; ++i) {
        const auto p = i < n ? PauliString::single(n, i, pauli::Pauli::Z)
                             : PauliString::random(n, prng);
        if (p.is_identity()) continue;
        const double want =
            (f.commutes_with(p) ? 1.0 : -1.0) * ref_tab.expectation_pauli(p);
        const double got = backend.tableau().expectation_pauli(p);
        if (std::abs(want - got) > tol)
          return {false, lane + ": <" + p.to_string() + "> frame " +
                             fmt(want) + " vs trial " + fmt(got)};
      }
    }
    return {};
  });
}

OracleResult run_named_oracle(const std::string& name, const Circuit& c,
                              std::uint64_t seed, double tol, PlantedBug bug) {
  if (name == "differential")
    return check_differential(c, seed, tab_factory(bug), tol);
  if (name == "append-inverse-sv")
    return check_append_inverse(c, seed, sv_factory(), tol);
  if (name == "append-inverse-tab")
    return check_append_inverse(c, seed, tab_factory(bug), tol);
  if (name == "pauli-frame-sv")
    return check_pauli_frame(c, seed, sv_factory(), tol);
  if (name == "pauli-frame-tab")
    return check_pauli_frame(c, seed, tab_factory(bug), tol);
  if (name == "schedule-reorder-sv")
    return check_schedule_reorder(c, seed, sv_factory(), tol);
  if (name == "schedule-reorder-tab")
    return check_schedule_reorder(c, seed, tab_factory(bug), tol);
  if (name == "relabel-sv")
    return check_relabel(c, seed, sv_factory(), tol);
  if (name == "relabel-tab")
    return check_relabel(c, seed, tab_factory(bug), tol);
  if (name == "frame-vs-trial") return check_frame_vs_trial(c, seed, bug, tol);
  throw ContractViolation("unknown oracle: " + name);
}

}  // namespace eqc::testing
