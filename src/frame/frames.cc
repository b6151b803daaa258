#include "frame/frames.h"

#include <algorithm>
#include <utility>

#include "circuit/tab_backend.h"
#include "common/assert.h"
#include "obs/metrics.h"

namespace eqc::frame {

namespace {

constexpr std::uint32_t kNoFunc = ~std::uint32_t{0};

std::uint64_t bcast(bool b) { return b ? ~std::uint64_t{0} : std::uint64_t{0}; }

}  // namespace

// --- compilation -------------------------------------------------------------

FrameProgram::FrameProgram(std::size_t num_qubits,
                           const circuit::Circuit& prep,
                           const circuit::Circuit& gadget,
                           std::uint64_t ref_seed)
    : n_(num_qubits),
      prep_cbits_(prep.num_cbits()),
      gadget_cbits_(gadget.num_cbits()),
      ref_seed_(ref_seed),
      gadget_plan_(gadget.shared_plan()) {
  EQC_EXPECTS(n_ >= prep.num_qubits() && n_ >= gadget.num_qubits());
  circuit::TabBackend ref(n_, Rng(ref_seed));
  std::vector<bool> ref_cb(prep.num_cbits(), false);
  walk(prep, ref, ref_cb, /*emit_sites=*/false);
  instrs_.push_back(Instr{IKind::BeginGadget});
  ref_cb.assign(gadget.num_cbits(), false);
  walk(gadget, ref, ref_cb, /*emit_sites=*/true);
  ref_final_ = ref.tableau();
  ref_cbits_ = ref_cb;
  ref_rng_after_ = ref.rng();
  // Tape length of every program compiled: the per-batch work of the
  // interpreter, fixed by the circuit alone.
  static obs::Counter& tape_instructions =
      obs::counter("frame.tape_instructions", obs::Det::Stable);
  tape_instructions.add(instrs_.size());
}

std::uint32_t FrameProgram::intern_func(const circuit::Circuit& c,
                                        std::uint32_t id,
                                        std::vector<std::uint32_t>& cache) {
  EQC_EXPECTS(id < cache.size());
  if (cache[id] == kNoFunc) {
    cache[id] = static_cast<std::uint32_t>(funcs_.size());
    funcs_.push_back(c.classical_funcs().at(id));
  }
  return cache[id];
}

std::uint32_t FrameProgram::capture_branch(const stab::Tableau& tab,
                                           std::size_t pivot, std::size_t q) {
  // The stabilizer generator the random measurement will pivot on, captured
  // BEFORE the reference measurement rewrites it.  It anticommutes with
  // Z_q, so multiplying it into a trial's frame toggles that trial's
  // measured value — the per-lane outcome fixup.
  const pauli::PauliString g = tab.stabilizer(pivot);
  EQC_CHECK(g.x_bit(q));
  BranchOp rec;
  for (std::size_t j = 0; j < g.num_qubits(); ++j) {
    if (g.x_bit(j)) rec.xs.push_back(static_cast<std::uint32_t>(j));
    if (g.z_bit(j)) rec.zs.push_back(static_cast<std::uint32_t>(j));
  }
  branches_.push_back(std::move(rec));
  return static_cast<std::uint32_t>(branches_.size() - 1);
}

void FrameProgram::walk(const circuit::Circuit& c, circuit::TabBackend& ref,
                        std::vector<bool>& ref_cb, bool emit_sites) {
  const auto& ops = c.ops();
  std::vector<std::uint32_t> func_cache(c.classical_funcs().size(), kNoFunc);
  stab::Tableau& tab = ref.tableau();

  auto push = [&](IKind kind, std::uint8_t flags, std::uint32_t a,
                  std::uint32_t b = 0, std::uint32_t c2 = 0) {
    Instr in;
    in.kind = kind;
    in.flags = flags;
    in.a = a;
    in.b = b;
    in.c = c2;
    instrs_.push_back(in);
  };

  // reset-to-|0> of q, mirroring Tableau::reset(q, rng) with the branch
  // stabilizer captured before the collapse.
  auto compile_reset = [&](std::uint32_t q) {
    const std::size_t pivot = tab.z_measure_pivot(q);
    if (pivot == tab.num_qubits()) {
      const bool v = tab.measure(q, ref.rng());  // deterministic: no draw
      if (v) tab.x(q);
      push(IKind::ResetDet, 0, q);
    } else {
      const std::uint32_t gi = capture_branch(tab, pivot, q);
      const bool r0 = tab.measure(q, ref.rng());  // one bernoulli(0.5)
      if (r0) tab.x(q);
      push(IKind::ResetRnd, r0 ? kFlag0 : 0, q, 0, gi);
    }
  };

  auto compile_op = [&](const circuit::Op& op) {
    using OpKind = circuit::OpKind;
    switch (op.kind) {
      case OpKind::PrepZ:
        compile_reset(op.q[0]);
        break;
      case OpKind::PrepX:
        compile_reset(op.q[0]);
        tab.h(op.q[0]);
        push(IKind::H, 0, op.q[0]);
        break;
      case OpKind::H:
        tab.h(op.q[0]);
        push(IKind::H, 0, op.q[0]);
        break;
      case OpKind::X:
        tab.x(op.q[0]);
        break;  // Pauli: conjugation preserves frame bits
      case OpKind::Y:
        tab.y(op.q[0]);
        break;
      case OpKind::Z:
        tab.z(op.q[0]);
        break;
      case OpKind::S:
        tab.s(op.q[0]);
        push(IKind::S, 0, op.q[0]);
        break;
      case OpKind::Sdg:
        tab.sdg(op.q[0]);
        push(IKind::S, 0, op.q[0]);
        break;
      case OpKind::T:
        ref.t(op.q[0]);  // throws (non-Clifford), like the per-trial driver
        break;
      case OpKind::Tdg:
        ref.tdg(op.q[0]);
        break;
      case OpKind::CNOT:
        tab.cnot(op.q[0], op.q[1]);
        push(IKind::Cnot, 0, op.q[0], op.q[1]);
        break;
      case OpKind::CZ:
        tab.cz(op.q[0], op.q[1]);
        push(IKind::Cz, 0, op.q[0], op.q[1]);
        break;
      case OpKind::Swap:
        tab.swap(op.q[0], op.q[1]);
        push(IKind::Swap, 0, op.q[0], op.q[1]);
        break;
      case OpKind::CS:
      case OpKind::CSdg: {
        const std::uint32_t qc = op.q[0];
        const std::uint32_t qt = op.q[1];
        // Delegate to TabBackend so a non-lowerable gate throws the exact
        // error the per-trial driver raises.
        const bool lowerable = tab.is_deterministic_z(qc);
        const bool vr = lowerable && tab.deterministic_z_value(qc);
        if (op.kind == OpKind::CS)
          ref.cs(qc, qt);
        else
          ref.csdg(qc, qt);
        EQC_CHECK(lowerable);
        std::uint8_t flags = vr ? kFlag0 : 0;
        // A trial whose control deviates applies an extra S^(+-1); that is
        // a pure phase only when the target is reference-classical here.
        if (tab.is_deterministic_z(qt)) flags |= kFlag1;
        push(IKind::LowS, flags, qc, qt);
        break;
      }
      case OpKind::CCX: {
        const std::uint32_t q0 = op.q[0];
        const std::uint32_t q1 = op.q[1];
        const std::uint32_t qt = op.q[2];
        // Pivot selection order mirrors TabBackend::ccx exactly.
        std::uint32_t pivot = q0;
        std::uint32_t other = q1;
        if (!tab.is_deterministic_z(q0)) {
          pivot = q1;
          other = q0;
        }
        const bool lowerable = tab.is_deterministic_z(pivot);
        const bool vr = lowerable && tab.deterministic_z_value(pivot);
        ref.ccx(q0, q1, qt);
        EQC_CHECK(lowerable);
        std::uint8_t flags = vr ? kFlag0 : 0;
        // Deviation residual CNOT(other, t) absorbs as X(t)^w when the
        // other control is reference-classical with value w.
        if (tab.is_deterministic_z(other)) {
          flags |= kFlag1;
          if (tab.deterministic_z_value(other)) flags |= kFlag2;
        }
        push(IKind::LowCnot, flags, pivot, other, qt);
        break;
      }
      case OpKind::CCZ: {
        const std::uint32_t qs[3] = {op.q[0], op.q[1], op.q[2]};
        int i = 0;
        while (i < 3 && !tab.is_deterministic_z(qs[i])) ++i;
        const bool lowerable = i < 3;
        const std::uint32_t pivot = qs[lowerable ? i : 0];
        const std::uint32_t qj = qs[lowerable ? (i + 1) % 3 : 1];
        const std::uint32_t qk = qs[lowerable ? (i + 2) % 3 : 2];
        const bool vr = lowerable && tab.deterministic_z_value(pivot);
        ref.ccz(op.q[0], op.q[1], op.q[2]);
        EQC_CHECK(lowerable);
        std::uint8_t flags = vr ? kFlag0 : 0;
        if (tab.is_deterministic_z(qj)) {
          flags |= kFlag1;
          if (tab.deterministic_z_value(qj)) flags |= kFlag2;
        }
        if (tab.is_deterministic_z(qk)) {
          flags |= kFlag3;
          if (tab.deterministic_z_value(qk)) flags |= kFlag4;
        }
        push(IKind::LowCz, flags, pivot, qj, qk);
        break;
      }
      case OpKind::MeasureZ: {
        const std::uint32_t q = op.q[0];
        const std::size_t pivot = tab.z_measure_pivot(q);
        if (pivot == tab.num_qubits()) {
          const bool r0 = tab.measure(q, ref.rng());  // no draw
          ref_cb.at(op.carg) = r0;
          push(IKind::MeasDet, r0 ? kFlag0 : 0, q, op.carg);
        } else {
          const std::uint32_t gi = capture_branch(tab, pivot, q);
          const bool r0 = tab.measure(q, ref.rng());  // one bernoulli(0.5)
          ref_cb.at(op.carg) = r0;
          push(IKind::MeasRnd, r0 ? kFlag0 : 0, q, op.carg, gi);
        }
        break;
      }
      case OpKind::XIfC:
      case OpKind::ZIfC: {
        const bool r = c.classical_funcs().at(op.carg)(ref_cb);
        if (r) {
          if (op.kind == OpKind::XIfC)
            tab.x(op.q[0]);
          else
            tab.z(op.q[0]);
        }
        push(op.kind == OpKind::XIfC ? IKind::CondX : IKind::CondZ,
             r ? kFlag0 : 0, op.q[0], intern_func(c, op.carg, func_cache));
        break;
      }
      case OpKind::SIfC:
      case OpKind::SdgIfC: {
        const bool r = c.classical_funcs().at(op.carg)(ref_cb);
        if (r) {
          if (op.kind == OpKind::SIfC)
            tab.s(op.q[0]);
          else
            tab.sdg(op.q[0]);
        }
        std::uint8_t flags = r ? kFlag0 : 0;
        if (tab.is_deterministic_z(op.q[0])) flags |= kFlag1;
        push(IKind::CondS, flags, op.q[0],
             intern_func(c, op.carg, func_cache));
        break;
      }
      case OpKind::CNOTIfC: {
        const bool r = c.classical_funcs().at(op.carg)(ref_cb);
        if (r) tab.cnot(op.q[0], op.q[1]);
        std::uint8_t flags = r ? kFlag0 : 0;
        if (tab.is_deterministic_z(op.q[0])) {
          flags |= kFlag1;
          if (tab.deterministic_z_value(op.q[0])) flags |= kFlag2;
        }
        push(IKind::CondCnot, flags, op.q[0], op.q[1],
             intern_func(c, op.carg, func_cache));
        break;
      }
      case OpKind::CZIfC: {
        const bool r = c.classical_funcs().at(op.carg)(ref_cb);
        if (r) tab.cz(op.q[0], op.q[1]);
        std::uint8_t flags = r ? kFlag0 : 0;
        if (tab.is_deterministic_z(op.q[0])) {
          flags |= kFlag1;
          if (tab.deterministic_z_value(op.q[0])) flags |= kFlag2;
        }
        if (tab.is_deterministic_z(op.q[1])) {
          flags |= kFlag3;
          if (tab.deterministic_z_value(op.q[1])) flags |= kFlag4;
        }
        push(IKind::CondCz, flags, op.q[0], op.q[1],
             intern_func(c, op.carg, func_cache));
        break;
      }
      case OpKind::Idle:
        break;  // noise-only op; its site follows
    }
  };

  // The executor's visit order.  Sites with no frame-changing op between
  // them share one Site instruction holding their ordinal range, so the
  // batch folds each pending fault at the same op boundary as before while
  // the tape length follows the gates, not the sites.
  c.plan().visit(
      /*include_input_sites=*/false,
      [&](std::size_t idx) { compile_op(ops[idx]); },
      [&](const circuit::FaultSite& site) {
        if (!emit_sites) return;
        const auto ordinal = static_cast<std::uint32_t>(site.ordinal);
        if (!instrs_.empty() && instrs_.back().kind == IKind::Site) {
          EQC_CHECK(instrs_.back().b == ordinal);
          instrs_.back().b = ordinal + 1;
        } else {
          push(IKind::Site, 0, ordinal, ordinal + 1);
        }
      });
}

// --- batch execution ---------------------------------------------------------

FrameBatch::FrameBatch(const FrameProgram& prog)
    : prog_(prog), n_(prog.num_qubits()) {}

void FrameBatch::reset_state(unsigned count) {
  EQC_EXPECTS(count >= 1 && count <= kLanes);
  count_ = count;
  active_ = count == kLanes ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << count) - 1;
  fx_.assign(n_, 0);
  fz_.assign(n_, 0);
  // Resize + per-lane assign (rather than cbits_.assign with a prototype)
  // keeps each inner vector's allocation across batches, so a reused
  // FrameBatch runs its steady-state tiles without touching the heap.
  cbits_.resize(count_);
  for (auto& cb : cbits_) cb.assign(prog_.prep_cbits_, false);
}

void FrameBatch::run_stochastic(const noise::NoiseModel& model,
                                std::uint64_t seed, std::uint64_t first_index,
                                unsigned count) {
  reset_state(count);
  planted_mode_ = false;
  backend_rng_.clear();
  backend_rng_.reserve(count_);
  faults_.clear();
  draws_ = 0;
  const noise::FaultSampler sampler(model);
  for (unsigned l = 0; l < count_; ++l) {
    // The canonical per-trial lambda's stream layout, split for split.
    Rng trial_rng(derive_stream_seed(seed, first_index + l));
    backend_rng_.push_back(trial_rng.split());
    Rng inj_rng = trial_rng.split();
    sampler.sample(prog_.sites(), inj_rng, draws_,
                   [&](std::size_t site, noise::SiteError e) {
                     faults_.push_back(
                         LaneFault{static_cast<std::uint32_t>(site), l, e});
                   });
  }
  exec();
}

void FrameBatch::run_planted(
    const std::vector<std::vector<PlantedFault>>& lanes) {
  EQC_EXPECTS(!lanes.empty());
  std::vector<LaneFault> faults;
  for (std::uint32_t l = 0; l < lanes.size(); ++l) {
    for (const PlantedFault& f : lanes[l]) {
      EQC_EXPECTS(f.ordinal < prog_.sites().size());
      const auto& qubits = prog_.sites()[f.ordinal].qubits;
      noise::SiteError e;
      std::size_t on_site = 0;
      for (std::size_t i = 0; i < qubits.size(); ++i) {
        const bool x = f.error.x_bit(qubits[i]);
        const bool z = f.error.z_bit(qubits[i]);
        e.x |= static_cast<std::uint8_t>(x ? 1u << i : 0u);
        e.z |= static_cast<std::uint8_t>(z ? 1u << i : 0u);
        on_site += (x || z) ? 1 : 0;
      }
      // The fault must act only on the site's qubits.
      EQC_EXPECTS(on_site == f.error.weight());
      faults.push_back(
          LaneFault{static_cast<std::uint32_t>(f.ordinal), l, e});
    }
  }
  run_planted_sites(static_cast<unsigned>(lanes.size()), faults);
}

void FrameBatch::run_planted_sites(unsigned count,
                                   std::span<const LaneFault> faults) {
  reset_state(count);
  planted_mode_ = true;
  draws_ = 0;
  faults_.assign(faults.begin(), faults.end());
  for (const LaneFault& f : faults_) {
    EQC_EXPECTS(f.site < prog_.sites().size() && f.lane < count_);
    // The fault must act only on the site's qubits.
    EQC_EXPECTS(((f.error.x | f.error.z) >>
                 prog_.sites()[f.site].qubits.size()) == 0);
  }
  exec();
  // Planted trials share the reference backend stream; after the run every
  // lane's rng sits at the reference's post-run state.
  backend_rng_.assign(count_, prog_.ref_rng_after_);
}

std::uint64_t FrameBatch::draw_word(bool r0) {
  if (planted_mode_) return bcast(r0) & active_;
  std::uint64_t w = 0;
  for (unsigned l = 0; l < count_; ++l)
    if (backend_rng_[l].bernoulli(0.5)) w |= std::uint64_t{1} << l;
  return w;
}

std::uint64_t FrameBatch::cond_word(std::uint32_t func) const {
  const circuit::ClassicalFunc& f = prog_.funcs_[func];
  std::uint64_t w = 0;
  for (unsigned l = 0; l < count_; ++l)
    if (f(cbits_[l])) w |= std::uint64_t{1} << l;
  return w;
}

void FrameBatch::fold_branch(const FrameProgram::BranchOp& g,
                             std::uint64_t e) {
  if (e == 0) return;
  for (std::uint32_t q : g.xs) fx_[q] ^= e;
  for (std::uint32_t q : g.zs) fz_[q] ^= e;
}

void FrameBatch::fold_fault(const LaneFault& f) {
  const std::uint64_t bit = std::uint64_t{1} << f.lane;
  const auto& qubits = prog_.sites()[f.site].qubits;
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    if ((f.error.x >> i) & 1) fx_[qubits[i]] ^= bit;
    if ((f.error.z >> i) & 1) fz_[qubits[i]] ^= bit;
  }
}

void FrameBatch::set_cbits(std::uint32_t slot, std::uint64_t word) {
  for (unsigned l = 0; l < count_; ++l)
    cbits_[l][slot] = ((word >> l) & 1) != 0;
}

void FrameBatch::exec() {
  using IKind = FrameProgram::IKind;
  constexpr std::uint8_t kFlag0 = FrameProgram::kFlag0;
  constexpr std::uint8_t kFlag1 = FrameProgram::kFlag1;
  constexpr std::uint8_t kFlag2 = FrameProgram::kFlag2;
  constexpr std::uint8_t kFlag3 = FrameProgram::kFlag3;
  constexpr std::uint8_t kFlag4 = FrameProgram::kFlag4;

  // Site order, so the tape consumes the list with one cursor.
  std::sort(faults_.begin(), faults_.end(),
            [](const LaneFault& a, const LaneFault& b) {
              return a.site != b.site ? a.site < b.site : a.lane < b.lane;
            });
  std::size_t next_fault = 0;
  for (const FrameProgram::Instr& ins : prog_.instrs_) {
    switch (ins.kind) {
      case IKind::Site:
        for (; next_fault < faults_.size() && faults_[next_fault].site < ins.b;
             ++next_fault)
          fold_fault(faults_[next_fault]);
        break;
      case IKind::H:
        std::swap(fx_[ins.a], fz_[ins.a]);
        break;
      case IKind::S:
        fz_[ins.a] ^= fx_[ins.a];
        break;
      case IKind::Cnot:
        if (prog_.bug_ == FrameBug::CnotSwapped) {
          fx_[ins.a] ^= fx_[ins.b];
          fz_[ins.b] ^= fz_[ins.a];
        } else {
          fx_[ins.b] ^= fx_[ins.a];
          fz_[ins.a] ^= fz_[ins.b];
        }
        break;
      case IKind::Cz: {
        const std::uint64_t xa = fx_[ins.a];
        const std::uint64_t xb = fx_[ins.b];
        fz_[ins.a] ^= xb;
        fz_[ins.b] ^= xa;
        break;
      }
      case IKind::Swap:
        std::swap(fx_[ins.a], fx_[ins.b]);
        std::swap(fz_[ins.a], fz_[ins.b]);
        break;
      case IKind::MeasDet:
        // Trial value = reference value XOR the frame's X bit; no draw, no
        // frame change (the state was already an eigenstate).
        set_cbits(ins.b, fx_[ins.a] ^ bcast((ins.flags & kFlag0) != 0));
        break;
      case IKind::MeasRnd: {
        const bool r0 = (ins.flags & kFlag0) != 0;
        const std::uint64_t rt = draw_word(r0);
        // Lanes whose sampled outcome differs from what the frame would
        // make of the reference outcome fold the pivot stabilizer in —
        // the post-measurement states differ by exactly that operator.
        const std::uint64_t e = (rt ^ fx_[ins.a] ^ bcast(r0)) & active_;
        fold_branch(prog_.branches_[ins.c], e);
        set_cbits(ins.b, rt);
        break;
      }
      case IKind::ResetDet:
        // Both reference and trial land in |0>: clear the X bit (the Z bit
        // is gauge — Z_q stabilizes |0>).
        fx_[ins.a] &= ~active_;
        break;
      case IKind::ResetRnd: {
        const bool r0 = (ins.flags & kFlag0) != 0;
        const std::uint64_t rt = draw_word(r0);
        const std::uint64_t e = (rt ^ fx_[ins.a] ^ bcast(r0)) & active_;
        fold_branch(prog_.branches_[ins.c], e);
        // The conditional X flips (trial X^rt vs reference X^r0) cancel
        // the measurement fixup at q: the X bit ends 0 on active lanes.
        fx_[ins.a] ^= (rt ^ bcast(r0)) & active_;
        break;
      }
      case IKind::LowS: {
        // Lowered controlled-S: trial applies S(t) iff its (classical)
        // control reads 1 = reference value XOR frame X bit.
        const std::uint64_t m = fx_[ins.a] ^ bcast((ins.flags & kFlag0) != 0);
        fz_[ins.b] ^= fx_[ins.b] & m;
        if ((fx_[ins.a] & active_) != 0 && (ins.flags & kFlag1) == 0)
          throw FrameUnsupported(
              "frame: controlled-S control deviation with non-classical "
              "target");
        break;
      }
      case IKind::LowCnot: {
        const std::uint64_t m = fx_[ins.a] ^ bcast((ins.flags & kFlag0) != 0);
        fx_[ins.c] ^= fx_[ins.b] & m;
        fz_[ins.b] ^= fz_[ins.c] & m;
        const std::uint64_t d = fx_[ins.a] & active_;
        if (d != 0) {
          if ((ins.flags & kFlag1) == 0)
            throw FrameUnsupported(
                "frame: CCX pivot deviation with non-classical second "
                "control");
          fx_[ins.c] ^= d & bcast((ins.flags & kFlag2) != 0);
        }
        break;
      }
      case IKind::LowCz: {
        const std::uint64_t m = fx_[ins.a] ^ bcast((ins.flags & kFlag0) != 0);
        const std::uint64_t xj = fx_[ins.b];
        const std::uint64_t xk = fx_[ins.c];
        fz_[ins.b] ^= xk & m;
        fz_[ins.c] ^= xj & m;
        const std::uint64_t d = fx_[ins.a] & active_;
        if (d != 0) {
          if ((ins.flags & kFlag1) != 0)
            fz_[ins.c] ^= d & bcast((ins.flags & kFlag2) != 0);
          else if ((ins.flags & kFlag3) != 0)
            fz_[ins.b] ^= d & bcast((ins.flags & kFlag4) != 0);
          else
            throw FrameUnsupported(
                "frame: CCZ pivot deviation with no classical inner qubit");
        }
        break;
      }
      case IKind::CondX:
        fx_[ins.a] ^=
            (cond_word(ins.b) ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        break;
      case IKind::CondZ:
        fz_[ins.a] ^=
            (cond_word(ins.b) ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        break;
      case IKind::CondS: {
        const std::uint64_t cw = cond_word(ins.b);
        fz_[ins.a] ^= fx_[ins.a] & cw;
        const std::uint64_t d =
            (cw ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        if (d != 0 && (ins.flags & kFlag1) == 0)
          throw FrameUnsupported(
              "frame: conditional S deviation on a non-classical qubit");
        break;
      }
      case IKind::CondCnot: {
        const std::uint64_t cw = cond_word(ins.c);
        fx_[ins.b] ^= fx_[ins.a] & cw;
        fz_[ins.a] ^= fz_[ins.b] & cw;
        const std::uint64_t d =
            (cw ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        if (d != 0) {
          if ((ins.flags & kFlag1) == 0)
            throw FrameUnsupported(
                "frame: conditional CNOT deviation with non-classical "
                "control");
          fx_[ins.b] ^= d & bcast((ins.flags & kFlag2) != 0);
        }
        break;
      }
      case IKind::CondCz: {
        const std::uint64_t cw = cond_word(ins.c);
        const std::uint64_t xa = fx_[ins.a];
        const std::uint64_t xb = fx_[ins.b];
        fz_[ins.a] ^= xb & cw;
        fz_[ins.b] ^= xa & cw;
        const std::uint64_t d =
            (cw ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        if (d != 0) {
          if ((ins.flags & kFlag1) != 0)
            fz_[ins.b] ^= d & bcast((ins.flags & kFlag2) != 0);
          else if ((ins.flags & kFlag3) != 0)
            fz_[ins.a] ^= d & bcast((ins.flags & kFlag4) != 0);
          else
            throw FrameUnsupported(
                "frame: conditional CZ deviation with no classical qubit");
        }
        break;
      }
      case IKind::BeginGadget:
        for (auto& cb : cbits_)
          cb.assign(prog_.gadget_cbits_, false);
        break;
    }
  }
}

pauli::PauliString FrameBatch::lane_frame(unsigned l) const {
  EQC_EXPECTS(l < count_);
  pauli::PauliString p(n_);
  for (std::size_t q = 0; q < n_; ++q)
    p.set_bits(q, ((fx_[q] >> l) & 1) != 0, ((fz_[q] >> l) & 1) != 0);
  return p;
}

const std::vector<bool>& FrameBatch::lane_cbits(unsigned l) const {
  EQC_EXPECTS(l < count_);
  return cbits_[l];
}

std::uint64_t FrameBatch::cbits_word(std::uint32_t slot) const {
  std::uint64_t w = 0;
  for (unsigned l = 0; l < count_; ++l)
    if (cbits_[l].at(slot)) w |= std::uint64_t{1} << l;
  return w;
}

const Rng& FrameBatch::lane_backend_rng(unsigned l) const {
  EQC_EXPECTS(l < count_ && l < backend_rng_.size());
  return backend_rng_[l];
}

}  // namespace eqc::frame
