#include "qsim/state_vector.h"

#include <bit>
#include <cmath>

#include "common/assert.h"

namespace eqc::qsim {

StateVector::StateVector(std::size_t num_qubits)
    : n_(num_qubits), amp_(std::uint64_t{1} << num_qubits, cplx{0, 0}) {
  EQC_EXPECTS(num_qubits <= 30);
  amp_[0] = 1.0;
}

StateVector StateVector::from_amplitudes(std::vector<cplx> amplitudes) {
  EQC_EXPECTS(!amplitudes.empty() && std::has_single_bit(amplitudes.size()));
  StateVector sv(static_cast<std::size_t>(std::countr_zero(amplitudes.size())));
  sv.amp_ = std::move(amplitudes);
  return sv;
}

cplx StateVector::amplitude(std::uint64_t basis_state) const {
  EQC_EXPECTS(basis_state < dim());
  return amp_[basis_state];
}

void StateVector::apply1(std::size_t q, const Mat2& u) {
  EQC_EXPECTS(q < n_);
  // Shape dispatch: the library's gate constructors (and any product of
  // them) carry exact 0.0 entries, so equality checks are reliable.
  const bool diag = u(0, 1) == cplx{0, 0} && u(1, 0) == cplx{0, 0};
  if (diag) {
    apply_diag1(q, u(0, 0), u(1, 1));
    return;
  }
  const bool antidiag = u(0, 0) == cplx{0, 0} && u(1, 1) == cplx{0, 0};
  if (antidiag) {
    apply_antidiag1(q, u(0, 1), u(1, 0));
    return;
  }
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t d = dim();
  for (std::uint64_t base = 0; base < d; base += 2 * stride) {
    for (std::uint64_t off = 0; off < stride; ++off) {
      const std::uint64_t i0 = base + off;
      const std::uint64_t i1 = i0 + stride;
      const cplx a0 = amp_[i0];
      const cplx a1 = amp_[i1];
      amp_[i0] = u(0, 0) * a0 + u(0, 1) * a1;
      amp_[i1] = u(1, 0) * a0 + u(1, 1) * a1;
    }
  }
}

void StateVector::apply_diag1(std::size_t q, cplx d0, cplx d1) {
  EQC_EXPECTS(q < n_);
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t d = dim();
  if (d0 == cplx{1, 0}) {
    // Z / S / T family: only the |1>_q half-space moves.
    for (std::uint64_t base = 0; base < d; base += 2 * stride)
      for (std::uint64_t off = 0; off < stride; ++off)
        amp_[base + stride + off] *= d1;
    return;
  }
  for (std::uint64_t base = 0; base < d; base += 2 * stride) {
    for (std::uint64_t off = 0; off < stride; ++off) {
      amp_[base + off] *= d0;
      amp_[base + stride + off] *= d1;
    }
  }
}

void StateVector::apply_antidiag1(std::size_t q, cplx a01, cplx a10) {
  EQC_EXPECTS(q < n_);
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t d = dim();
  if (a01 == cplx{1, 0} && a10 == cplx{1, 0}) {
    apply_x(q);
    return;
  }
  for (std::uint64_t base = 0; base < d; base += 2 * stride) {
    for (std::uint64_t off = 0; off < stride; ++off) {
      const std::uint64_t i0 = base + off;
      const std::uint64_t i1 = i0 + stride;
      const cplx a0 = amp_[i0];
      amp_[i0] = a01 * amp_[i1];
      amp_[i1] = a10 * a0;
    }
  }
}

void StateVector::apply_x(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t d = dim();
  for (std::uint64_t base = 0; base < d; base += 2 * stride)
    for (std::uint64_t off = 0; off < stride; ++off)
      std::swap(amp_[base + off], amp_[base + stride + off]);
}

void StateVector::apply_h(std::size_t q) {
  EQC_EXPECTS(q < n_);
  constexpr double kInvSqrt2 = 0.70710678118654752440;
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t d = dim();
  for (std::uint64_t base = 0; base < d; base += 2 * stride) {
    for (std::uint64_t off = 0; off < stride; ++off) {
      const std::uint64_t i0 = base + off;
      const std::uint64_t i1 = i0 + stride;
      const cplx a0 = amp_[i0];
      const cplx a1 = amp_[i1];
      amp_[i0] = kInvSqrt2 * (a0 + a1);
      amp_[i1] = kInvSqrt2 * (a0 - a1);
    }
  }
}

void StateVector::apply2(std::size_t high, std::size_t low, const Mat4& u) {
  EQC_EXPECTS(high < n_ && low < n_ && high != low);
  const std::uint64_t bh = std::uint64_t{1} << high;
  const std::uint64_t bl = std::uint64_t{1} << low;
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i) {
    if ((i & bh) || (i & bl)) continue;  // visit each group once via its 00 rep
    const std::uint64_t i00 = i;
    const std::uint64_t i01 = i | bl;
    const std::uint64_t i10 = i | bh;
    const std::uint64_t i11 = i | bh | bl;
    const cplx a00 = amp_[i00], a01 = amp_[i01], a10 = amp_[i10],
               a11 = amp_[i11];
    amp_[i00] = u(0, 0) * a00 + u(0, 1) * a01 + u(0, 2) * a10 + u(0, 3) * a11;
    amp_[i01] = u(1, 0) * a00 + u(1, 1) * a01 + u(1, 2) * a10 + u(1, 3) * a11;
    amp_[i10] = u(2, 0) * a00 + u(2, 1) * a01 + u(2, 2) * a10 + u(2, 3) * a11;
    amp_[i11] = u(3, 0) * a00 + u(3, 1) * a01 + u(3, 2) * a10 + u(3, 3) * a11;
  }
}

void StateVector::apply_controlled(const std::vector<std::size_t>& controls,
                                   std::size_t target, const Mat2& u) {
  EQC_EXPECTS(target < n_);
  std::uint64_t cmask = 0;
  for (std::size_t c : controls) {
    EQC_EXPECTS(c < n_ && c != target);
    cmask |= std::uint64_t{1} << c;
  }
  const std::uint64_t t = std::uint64_t{1} << target;
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i) {
    if ((i & t) || (i & cmask) != cmask) continue;
    const std::uint64_t i0 = i;
    const std::uint64_t i1 = i | t;
    const cplx a0 = amp_[i0];
    const cplx a1 = amp_[i1];
    amp_[i0] = u(0, 0) * a0 + u(0, 1) * a1;
    amp_[i1] = u(1, 0) * a0 + u(1, 1) * a1;
  }
}

void StateVector::apply_cnot(std::size_t control, std::size_t target) {
  EQC_EXPECTS(control < n_ && target < n_ && control != target);
  const std::uint64_t c = std::uint64_t{1} << control;
  const std::uint64_t t = std::uint64_t{1} << target;
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i)
    if ((i & c) && !(i & t)) std::swap(amp_[i], amp_[i | t]);
}

void StateVector::apply_cz(std::size_t a, std::size_t b) {
  EQC_EXPECTS(a < n_ && b < n_ && a != b);
  const std::uint64_t mask = (std::uint64_t{1} << a) | (std::uint64_t{1} << b);
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i)
    if ((i & mask) == mask) amp_[i] = -amp_[i];
}

void StateVector::apply_swap(std::size_t a, std::size_t b) {
  EQC_EXPECTS(a < n_ && b < n_ && a != b);
  const std::uint64_t ba = std::uint64_t{1} << a;
  const std::uint64_t bb = std::uint64_t{1} << b;
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i)
    if ((i & ba) && !(i & bb)) std::swap(amp_[i], amp_[(i ^ ba) | bb]);
}

void StateVector::apply_pauli(const pauli::PauliString& p) {
  EQC_EXPECTS(p.num_qubits() == n_);
  std::uint64_t xmask = 0, zmask = 0;
  for (std::size_t q = 0; q < n_; ++q) {
    if (p.x_bit(q)) xmask |= std::uint64_t{1} << q;
    if (p.z_bit(q)) zmask |= std::uint64_t{1} << q;
  }
  static constexpr cplx kIPow[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  const cplx global = kIPow[p.phase()];
  const std::uint64_t d = dim();
  if (xmask == 0) {
    // Pure-Z string: a diagonal phase, applied in place.
    for (std::uint64_t i = 0; i < d; ++i) {
      const bool neg = std::popcount(i & zmask) % 2 == 1;
      amp_[i] *= neg ? -global : global;
    }
    return;
  }
  // P |i> = i^k (-1)^{parity(z & i)} |i ^ x>   (Z acts first, X flips after).
  scratch_.resize(d);
  for (std::uint64_t i = 0; i < d; ++i) {
    const bool neg = std::popcount(i & zmask) % 2 == 1;
    scratch_[i ^ xmask] = (neg ? -global : global) * amp_[i];
  }
  amp_.swap(scratch_);
}

void StateVector::apply_permutation(
    const std::function<std::uint64_t(std::uint64_t)>& pi) {
  const std::uint64_t d = dim();
  scratch_.assign(d, cplx{0, 0});
  for (std::uint64_t i = 0; i < d; ++i) {
    const std::uint64_t j = pi(i);
    EQC_EXPECTS(j < d);
    scratch_[j] += amp_[i];
  }
  amp_.swap(scratch_);
  // A non-bijective pi would change the norm; catch it.
  EQC_ENSURES(std::abs(norm() - 1.0) < 1e-6);
}

void StateVector::apply_phase_oracle(
    const std::function<bool(std::uint64_t)>& predicate) {
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i)
    if (predicate(i)) amp_[i] = -amp_[i];
}

double StateVector::prob_one(std::size_t q) const {
  EQC_EXPECTS(q < n_);
  const std::uint64_t b = std::uint64_t{1} << q;
  double p = 0.0;
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i)
    if (i & b) p += std::norm(amp_[i]);
  return p;
}

double StateVector::expectation_z(std::size_t q) const {
  return 1.0 - 2.0 * prob_one(q);
}

bool StateVector::measure(std::size_t q, Rng& rng) {
  EQC_EXPECTS(q < n_);
  const double p1 = prob_one(q);
  const bool outcome = rng.bernoulli(snap_probability(p1));
  const std::uint64_t b = std::uint64_t{1} << q;
  const double keep_prob = outcome ? p1 : 1.0 - p1;
  EQC_CHECK(keep_prob > 0.0);
  const double scale = 1.0 / std::sqrt(keep_prob);
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i) {
    const bool bit_set = (i & b) != 0;
    amp_[i] = (bit_set == outcome) ? amp_[i] * scale : cplx{0, 0};
  }
  return outcome;
}

double StateVector::project_z(std::size_t q, bool outcome) {
  EQC_EXPECTS(q < n_);
  const double p1 = prob_one(q);
  const double prob = outcome ? p1 : 1.0 - p1;
  EQC_CHECK(prob > 0.0);
  const double scale = 1.0 / std::sqrt(prob);
  const std::uint64_t b = std::uint64_t{1} << q;
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i) {
    const bool bit_set = (i & b) != 0;
    amp_[i] = (bit_set == outcome) ? amp_[i] * scale : cplx{0, 0};
  }
  return prob;
}

void StateVector::reset(std::size_t q, Rng& rng) {
  // Flip back to |0>: X on a collapsed qubit.
  if (measure(q, rng)) apply_x(q);
}

double StateVector::norm() const {
  double s = 0.0;
  for (const cplx& a : amp_) s += std::norm(a);
  return std::sqrt(s);
}

void StateVector::normalize() {
  const double nm = norm();
  EQC_EXPECTS(nm > 0.0);
  const double inv = 1.0 / nm;
  for (cplx& a : amp_) a *= inv;
}

cplx StateVector::inner_product(const StateVector& other) const {
  EQC_EXPECTS(n_ == other.n_);
  cplx s = 0;
  const std::uint64_t d = dim();
  for (std::uint64_t i = 0; i < d; ++i) s += std::conj(amp_[i]) * other.amp_[i];
  return s;
}

double StateVector::fidelity(const StateVector& other) const {
  return std::norm(inner_product(other));
}

std::vector<cplx> StateVector::reduced_density_matrix(
    const std::vector<std::size_t>& qubits) const {
  EQC_EXPECTS(qubits.size() <= 12);
  const std::size_t k = qubits.size();
  const std::uint64_t kd = std::uint64_t{1} << k;
  std::vector<cplx> rho(kd * kd, cplx{0, 0});

  // Enumerate kept-subsystem values r, environment values e; the environment
  // qubits are everything not in `qubits`.
  std::vector<std::size_t> env;
  std::vector<bool> kept(n_, false);
  for (std::size_t q : qubits) {
    EQC_EXPECTS(q < n_ && !kept[q]);
    kept[q] = true;
  }
  for (std::size_t q = 0; q < n_; ++q)
    if (!kept[q]) env.push_back(q);

  // Precomputed scatter tables replace the per-amplitude bit loop: the
  // full index of (r, e) is kept_index_[r] | env_index_[e].  The tables
  // are member scratch so repeated readouts (one per Monte-Carlo trial
  // step) reuse their capacity.
  const std::uint64_t ed = std::uint64_t{1} << env.size();
  kept_index_.resize(kd);
  for (std::uint64_t r = 0; r < kd; ++r) {
    std::uint64_t idx = 0;
    for (std::size_t b = 0; b < k; ++b)
      if (r & (std::uint64_t{1} << b)) idx |= std::uint64_t{1} << qubits[b];
    kept_index_[r] = idx;
  }
  env_index_.resize(ed);
  for (std::uint64_t e = 0; e < ed; ++e) {
    std::uint64_t idx = 0;
    for (std::size_t b = 0; b < env.size(); ++b)
      if (e & (std::uint64_t{1} << b)) idx |= std::uint64_t{1} << env[b];
    env_index_[e] = idx;
  }

  for (std::uint64_t e = 0; e < ed; ++e) {
    const std::uint64_t ebits = env_index_[e];
    for (std::uint64_t r = 0; r < kd; ++r) {
      const cplx ar = amp_[kept_index_[r] | ebits];
      if (ar == cplx{0, 0}) continue;
      for (std::uint64_t c = 0; c < kd; ++c) {
        const cplx ac = amp_[kept_index_[c] | ebits];
        rho[r * kd + c] += ar * std::conj(ac);
      }
    }
  }
  return rho;
}

double StateVector::subsystem_fidelity(const std::vector<std::size_t>& qubits,
                                       const std::vector<cplx>& phi) const {
  const std::uint64_t kd = std::uint64_t{1} << qubits.size();
  EQC_EXPECTS(phi.size() == kd);
  const std::vector<cplx> rho = reduced_density_matrix(qubits);
  cplx f = 0;
  for (std::uint64_t r = 0; r < kd; ++r)
    for (std::uint64_t c = 0; c < kd; ++c)
      f += std::conj(phi[r]) * rho[r * kd + c] * phi[c];
  return f.real();
}

}  // namespace eqc::qsim
