#include "stab/tableau.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/assert.h"

namespace eqc::stab {

namespace {

constexpr std::uint64_t bit_of(std::size_t row) {
  return std::uint64_t{1} << (row & 63);
}

constexpr std::uint64_t bcast(bool b) {
  return b ? ~std::uint64_t{0} : std::uint64_t{0};
}

// Row-mask scratch: on the stack up to 512 rows (n <= 256), heap beyond.
class RowMask {
 public:
  explicit RowMask(std::size_t words) : words_(words) {
    if (words > kInline)
      heap_.assign(words, 0);
    else
      std::fill_n(inline_, words, std::uint64_t{0});
  }
  std::uint64_t* data() { return words_ > kInline ? heap_.data() : inline_; }
  std::uint64_t& operator[](std::size_t w) { return data()[w]; }

 private:
  static constexpr std::size_t kInline = 8;
  std::size_t words_;
  std::uint64_t inline_[kInline];
  std::vector<std::uint64_t> heap_;
};

}  // namespace

Tableau::Tableau(std::size_t num_qubits)
    : n_(num_qubits), w_((2 * num_qubits + 63) / 64) {
  EQC_EXPECTS(num_qubits > 0);
  bits_.assign((2 * n_ + 1) * w_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    xcol(i)[i >> 6] |= bit_of(i);                // destabilizer i = X_i
    zcol(i)[(n_ + i) >> 6] |= bit_of(n_ + i);    // stabilizer i = Z_i
  }
}

// --- Clifford gates ----------------------------------------------------------
//
// Each rule is CHP's per-row update applied to 64 rows per word.  Padding
// bits past row 2n stay zero: every update maps all-zero rows to zero.

void Tableau::h(std::size_t q) {
  EQC_EXPECTS(q < n_);
  std::uint64_t* x = xcol(q);
  std::uint64_t* z = zcol(q);
  std::uint64_t* r = signs();
  for (std::size_t w = 0; w < w_; ++w) {
    r[w] ^= x[w] & z[w];
    std::swap(x[w], z[w]);
  }
}

void Tableau::s(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::uint64_t* x = xcol(q);
  std::uint64_t* z = zcol(q);
  std::uint64_t* r = signs();
  for (std::size_t w = 0; w < w_; ++w) {
    r[w] ^= x[w] & z[w];
    z[w] ^= x[w];
  }
}

void Tableau::sdg(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::uint64_t* x = xcol(q);
  std::uint64_t* z = zcol(q);
  std::uint64_t* r = signs();
  for (std::size_t w = 0; w < w_; ++w) {
    r[w] ^= x[w] & ~z[w];
    z[w] ^= x[w];
  }
}

void Tableau::x(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::uint64_t* z = zcol(q);
  std::uint64_t* r = signs();
  for (std::size_t w = 0; w < w_; ++w) r[w] ^= z[w];
}

void Tableau::z(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::uint64_t* x = xcol(q);
  std::uint64_t* r = signs();
  for (std::size_t w = 0; w < w_; ++w) r[w] ^= x[w];
}

void Tableau::y(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::uint64_t* x = xcol(q);
  const std::uint64_t* z = zcol(q);
  std::uint64_t* r = signs();
  for (std::size_t w = 0; w < w_; ++w) r[w] ^= x[w] ^ z[w];
}

void Tableau::cnot(std::size_t control, std::size_t target) {
  EQC_EXPECTS(control < n_ && target < n_ && control != target);
  std::uint64_t* xc = xcol(control);
  std::uint64_t* zc = zcol(control);
  std::uint64_t* xt = xcol(target);
  const std::uint64_t* zt = zcol(target);
  std::uint64_t* r = signs();
  for (std::size_t w = 0; w < w_; ++w) {
    r[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
    xt[w] ^= xc[w];
    zc[w] ^= zt[w];
  }
}

void Tableau::cz(std::size_t a, std::size_t b) {
  // H(b) CNOT(a, b) H(b), fused.
  EQC_EXPECTS(a < n_ && b < n_ && a != b);
  const std::uint64_t* xa = xcol(a);
  std::uint64_t* za = zcol(a);
  const std::uint64_t* xb = xcol(b);
  std::uint64_t* zb = zcol(b);
  std::uint64_t* r = signs();
  for (std::size_t w = 0; w < w_; ++w) {
    r[w] ^= xa[w] & xb[w] & (za[w] ^ zb[w]);
    za[w] ^= xb[w];
    zb[w] ^= xa[w];
  }
}

void Tableau::swap(std::size_t a, std::size_t b) {
  EQC_EXPECTS(a < n_ && b < n_ && a != b);
  std::swap_ranges(xcol(a), xcol(a) + 2 * w_, xcol(b));
}

void Tableau::apply_pauli(const pauli::PauliString& p) {
  EQC_EXPECTS(p.num_qubits() == n_);
  // Conjugating a row by P flips its sign iff they anticommute.
  RowMask anti(w_);
  anticommuting_rows(p, anti.data());
  std::uint64_t* r = signs();
  for (std::size_t w = 0; w < w_; ++w) r[w] ^= anti[w];
}

// --- Row-set helpers ---------------------------------------------------------

std::uint64_t Tableau::row_range_word(std::size_t w, std::size_t lo,
                                      std::size_t hi) const {
  const std::size_t base = 64 * w;
  if (hi <= base || lo >= base + 64) return 0;
  std::uint64_t m = ~std::uint64_t{0};
  if (lo > base) m &= ~std::uint64_t{0} << (lo - base);
  if (hi < base + 64) m &= (std::uint64_t{1} << (hi - base)) - 1;
  return m;
}

std::size_t Tableau::first_row(const std::uint64_t* mask,
                               std::size_t lo) const {
  for (std::size_t w = lo >> 6; w < w_; ++w) {
    const std::uint64_t m = mask[w] & row_range_word(w, lo, 2 * n_);
    if (m != 0) return 64 * w + static_cast<std::size_t>(std::countr_zero(m));
  }
  return 2 * n_;
}

void Tableau::anticommuting_rows(const pauli::PauliString& p,
                                 std::uint64_t* out) const {
  std::fill_n(out, w_, std::uint64_t{0});
  const auto& pxw = p.x_words();
  const auto& pzw = p.z_words();
  for (std::size_t i = 0; i < pxw.size(); ++i) {
    for (std::uint64_t s = pxw[i] | pzw[i]; s != 0; s &= s - 1) {
      const std::size_t q =
          64 * i + static_cast<std::size_t>(std::countr_zero(s));
      const std::uint64_t px = bcast(((pxw[i] >> (q & 63)) & 1) != 0);
      const std::uint64_t pz = bcast(((pzw[i] >> (q & 63)) & 1) != 0);
      const std::uint64_t* x = xcol(q);
      const std::uint64_t* z = zcol(q);
      for (std::size_t w = 0; w < w_; ++w)
        out[w] ^= (px & z[w]) ^ (pz & x[w]);
    }
  }
}

void Tableau::destab_to_stab_rows(const std::uint64_t* m,
                                  std::uint64_t* out) const {
  // out = (m restricted to rows < n) shifted up by n rows.
  const std::size_t ws = n_ >> 6;
  const unsigned bs = static_cast<unsigned>(n_ & 63);
  for (std::size_t w = w_; w-- > 0;) {
    std::uint64_t v = 0;
    if (w >= ws) {
      v = (m[w - ws] & row_range_word(w - ws, 0, n_)) << bs;
      if (bs != 0 && w > ws)
        v |= (m[w - ws - 1] & row_range_word(w - ws - 1, 0, n_)) >> (64 - bs);
    }
    out[w] = v;
  }
}

Tableau::RowProduct Tableau::multiply_rows(const std::uint64_t* mask,
                                           std::uint64_t* out_x,
                                           std::uint64_t* out_z) const {
  // Fixed small widths keep the per-word accumulators in registers.
  switch (w_) {
    case 1: return multiply_rows_w<1>(mask, out_x, out_z);
    case 2: return multiply_rows_w<2>(mask, out_x, out_z);
    case 3: return multiply_rows_w<3>(mask, out_x, out_z);
    default: return multiply_rows_w<0>(mask, out_x, out_z);
  }
}

template <std::size_t kW>
Tableau::RowProduct Tableau::multiply_rows_w(const std::uint64_t* mask,
                                             std::uint64_t* out_x,
                                             std::uint64_t* out_z) const {
  // Row k is (-1)^{r_k} i^{#Y_k} prod_q X^x Z^z.  Qubits commute, so the
  // ordered product factorizes per qubit, where moving each X left past
  // the earlier rows' Z's costs (-1)^{#(a < b : z_a = 1, x_b = 1)}: the
  // parity of x_b AND (exclusive prefix parity of z) over the selected
  // rows, computed with in-word prefix XORs.  The per-row counts are
  // summed across qubits in bit-sliced words (ys1 ys0 = #Y mod 4, sw = the
  // swap parity) and popcounted once at the end.
  const std::size_t words = kW != 0 ? kW : w_;
  std::array<std::uint64_t, 3 * (kW != 0 ? kW : 1)> fixed{};
  RowMask dynamic(kW != 0 ? 0 : 3 * words);
  std::uint64_t* ys0 = kW != 0 ? fixed.data() : dynamic.data();
  std::uint64_t* ys1 = ys0 + words;
  std::uint64_t* sw = ys1 + words;
  RowProduct prod;
  if (out_x != nullptr) {
    std::fill_n(out_x, (n_ + 63) / 64, std::uint64_t{0});
    std::fill_n(out_z, (n_ + 63) / 64, std::uint64_t{0});
  }
  for (std::size_t q = 0; q < n_; ++q) {
    const std::uint64_t* x = xcol(q);
    const std::uint64_t* z = zcol(q);
    std::uint64_t xany = 0;
    for (std::size_t w = 0; w < words; ++w) xany |= x[w] & mask[w];
    if (xany == 0) {  // Z-only at q (CSS Z checks): no sign, no Y
      if (out_x != nullptr) {
        std::uint64_t zacc = 0;
        for (std::size_t w = 0; w < words; ++w) zacc ^= z[w] & mask[w];
        out_z[q >> 6] |= std::uint64_t(__builtin_parityll(zacc)) << (q & 63);
      }
      continue;
    }
    std::uint64_t carry = 0;  // parity of the selected z bits so far
    std::uint64_t xacc = 0, zacc = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t m = mask[w];
      const std::uint64_t xm = x[w] & m;
      const std::uint64_t zm = z[w] & m;
      xacc ^= xm;
      zacc ^= zm;
      std::uint64_t pre = zm;  // inclusive prefix parity of zm in the word
      pre ^= pre << 1;
      pre ^= pre << 2;
      pre ^= pre << 4;
      pre ^= pre << 8;
      pre ^= pre << 16;
      pre ^= pre << 32;
      pre ^= carry;
      const std::uint64_t y = xm & zm;
      ys1[w] ^= ys0[w] & y;
      ys0[w] ^= y;
      sw[w] ^= xm & (pre ^ zm);
      carry = bcast((pre >> 63) != 0);
    }
    const bool xpar = __builtin_parityll(xacc) != 0;
    const bool zpar = __builtin_parityll(zacc) != 0;
    prod.num_y += (xpar && zpar) ? 1 : 0;
    if (out_x != nullptr) {
      out_x[q >> 6] |= std::uint64_t{xpar} << (q & 63);
      out_z[q >> 6] |= std::uint64_t{zpar} << (q & 63);
    }
  }
  const std::uint64_t* r = signs();
  unsigned phase = 0;
  std::uint64_t swaps = 0;
  for (std::size_t w = 0; w < words; ++w) {
    phase += 2 * static_cast<unsigned>(std::popcount(mask[w] & r[w])) +
             static_cast<unsigned>(std::popcount(ys0[w])) +
             2 * static_cast<unsigned>(std::popcount(ys1[w]));
    swaps ^= sw[w];
  }
  phase += 2 * static_cast<unsigned>(__builtin_parityll(swaps));
  prod.phase = static_cast<int>(phase & 3);
  return prod;
}

void Tableau::multiply_into_rows(const std::uint64_t* mask, std::size_t p) {
  // CHP rowsum(h, p) for all h in `mask` at once: the new sign of row h is
  // bit 1 of 2 r_h + 2 r_p + sum_q g(p_q, h_q) (mod 4), where g in
  // {-1, 0, +1} is the Aaronson-Gottesman phase function; the sum is kept
  // in two bit-sliced counter words (c1 c0) per 64 rows.
  const std::size_t pw = p >> 6;
  const std::uint64_t pb = bit_of(p);
  std::uint64_t* r = signs();
  const std::uint64_t rp = bcast((r[pw] & pb) != 0);
  for (std::size_t w = 0; w < w_; ++w) {
    const std::uint64_t m = mask[w];
    if (m == 0) continue;
    std::uint64_t c0 = 0, c1 = 0;
    for (std::size_t q = 0; q < n_; ++q) {
      std::uint64_t* x = xcol(q);
      std::uint64_t* z = zcol(q);
      const bool px = (x[pw] & pb) != 0;
      const bool pz = (z[pw] & pb) != 0;
      if (!px && !pz) continue;
      const std::uint64_t x2 = x[w];
      const std::uint64_t z2 = z[w];
      std::uint64_t plus, minus;
      if (px && pz) {  // p_q = Y: g = z2 - x2
        plus = z2 & ~x2;
        minus = x2 & ~z2;
      } else if (px) {  // X: g = z2 (2 x2 - 1)
        plus = z2 & x2;
        minus = z2 & ~x2;
      } else {  // Z: g = x2 (1 - 2 z2)
        plus = x2 & ~z2;
        minus = x2 & z2;
      }
      plus &= m;
      minus &= m;
      c1 ^= c0 & plus;  // c += plus
      c0 ^= plus;
      c1 ^= ~c0 & minus;  // c -= minus
      c0 ^= minus;
      if (px) x[w] ^= m;
      if (pz) z[w] ^= m;
    }
    // Stabilizer rows always multiply to a Hermitian (+-1) operator;
    // destabilizer rows may pick up an i, but their phases are meaningless
    // and never observed (Aaronson-Gottesman).
    EQC_CHECK((c0 & row_range_word(w, n_, 2 * n_)) == 0);
    r[w] ^= m & (c1 ^ rp);
  }
}

void Tableau::move_row(std::size_t dst, std::size_t src) {
  const std::size_t dw = dst >> 6, sw = src >> 6;
  const std::uint64_t db = bit_of(dst), sb = bit_of(src);
  auto move_bit = [&](std::uint64_t* col) {
    col[dw] = (col[sw] & sb) != 0 ? col[dw] | db : col[dw] & ~db;
    col[sw] &= ~sb;
  };
  for (std::size_t q = 0; q < n_; ++q) {
    move_bit(xcol(q));
    move_bit(zcol(q));
  }
  move_bit(signs());
}

// --- Measurement -------------------------------------------------------------

bool Tableau::measure(std::size_t q, Rng& rng) {
  EQC_EXPECTS(q < n_);
  // Look for a stabilizer generator that anticommutes with Z_q.
  const std::size_t p = first_row(xcol(q), n_);
  if (p == 2 * n_) return deterministic_sign(q);

  RowMask rows(w_);
  std::copy_n(xcol(q), w_, rows.data());
  rows[p >> 6] &= ~bit_of(p);
  multiply_into_rows(rows.data(), p);
  move_row(p - n_, p);
  zcol(q)[p >> 6] |= bit_of(p);
  const bool outcome = rng.bernoulli(0.5);
  if (outcome) signs()[p >> 6] |= bit_of(p);
  return outcome;
}

bool Tableau::is_deterministic_z(std::size_t q) const {
  EQC_EXPECTS(q < n_);
  return first_row(xcol(q), n_) == 2 * n_;
}

std::size_t Tableau::z_measure_pivot(std::size_t q) const {
  EQC_EXPECTS(q < n_);
  return first_row(xcol(q), n_) - n_;
}

bool Tableau::deterministic_sign(std::size_t q) const {
  // Z_q = +- the product of the stabilizers s_i whose destabilizer d_i
  // anticommutes with Z_q, i.e. has an X or Y at q.
  RowMask rows(w_);
  destab_to_stab_rows(xcol(q), rows.data());
  // One row (a freshly reset or measured qubit): Z_q is that row, sign
  // and all.
  std::size_t count = 0, last = 0;
  for (std::size_t w = 0; w < w_; ++w) {
    const int c = std::popcount(rows[w]);
    if (c != 0)
      last = 64 * w + static_cast<std::size_t>(std::countr_zero(rows[w]));
    count += static_cast<std::size_t>(c);
  }
  if (count == 1) return (signs()[last >> 6] & bit_of(last)) != 0;
  const RowProduct prod = multiply_rows(rows.data(), nullptr, nullptr);
  const int t = ((prod.phase - static_cast<int>(prod.num_y)) % 4 + 4) % 4;
  EQC_CHECK(t % 2 == 0);
  return t == 2;
}

bool Tableau::deterministic_z_value(std::size_t q) const {
  EQC_EXPECTS(is_deterministic_z(q));
  return deterministic_sign(q);
}

double Tableau::expectation_z(std::size_t q) const {
  if (!is_deterministic_z(q)) return 0.0;
  return deterministic_sign(q) ? -1.0 : 1.0;
}

void Tableau::reset(std::size_t q, Rng& rng) {
  if (measure(q, rng)) x(q);
}

bool Tableau::measure_pauli(const pauli::PauliString& p, Rng& rng) {
  EQC_EXPECTS(p.num_qubits() == n_);
  EQC_EXPECTS(p.is_hermitian());
  EQC_EXPECTS(!p.is_identity());

  RowMask anti(w_);
  anticommuting_rows(p, anti.data());
  // Random case: some stabilizer generator anticommutes with p.
  const std::size_t pivot = first_row(anti.data(), n_);
  if (pivot < 2 * n_) {
    anti[pivot >> 6] &= ~bit_of(pivot);
    multiply_into_rows(anti.data(), pivot);
    move_row(pivot - n_, pivot);
    // Install (-1)^outcome * p as the new stabilizer generator.  The row
    // format stores Y at (x,z)=(1,1), so fold the i factors of p's literal
    // XZ representation into the sign.
    const std::size_t pw = pivot >> 6;
    const std::uint64_t pb = bit_of(pivot);
    const auto& pxw = p.x_words();
    const auto& pzw = p.z_words();
    for (std::size_t i = 0; i < pxw.size(); ++i) {
      for (std::uint64_t s = pxw[i]; s != 0; s &= s - 1)
        xcol(64 * i + static_cast<std::size_t>(std::countr_zero(s)))[pw] |= pb;
      for (std::uint64_t s = pzw[i]; s != 0; s &= s - 1)
        zcol(64 * i + static_cast<std::size_t>(std::countr_zero(s)))[pw] |= pb;
    }
    const int n_y = static_cast<int>(p.count_y());
    const int base = ((p.phase() + 3 * n_y) % 4 + 4) % 4;
    EQC_CHECK(base % 2 == 0);
    const bool outcome = rng.bernoulli(0.5);
    if (((base / 2) ^ (outcome ? 1 : 0)) != 0) signs()[pw] |= pb;
    return outcome;
  }

  // Deterministic: p (or -p) is in the stabilizer group.
  const int sign = stabilizer_sign(p, anti.data());
  EQC_CHECK(sign != 0);
  return sign < 0;
}

int Tableau::stabilizer_sign(const pauli::PauliString& p,
                             const std::uint64_t* anti) const {
  // p = +-(product of the stabilizers s_i whose destabilizer d_i
  // anticommutes with p), when p is in the group at all.
  RowMask rows(w_);
  destab_to_stab_rows(anti, rows.data());
  const std::size_t qw = (n_ + 63) / 64;
  RowMask acc_x(qw), acc_z(qw);
  const RowProduct prod = multiply_rows(rows.data(), acc_x.data(),
                                        acc_z.data());
  for (std::size_t i = 0; i < qw; ++i)
    if (acc_x[i] != p.x_words()[i] || acc_z[i] != p.z_words()[i]) return 0;
  if (prod.phase == p.phase()) return 1;
  if (prod.phase == (p.phase() + 2) % 4) return -1;
  return 0;
}

double Tableau::expectation_pauli(const pauli::PauliString& p) const {
  EQC_EXPECTS(p.num_qubits() == n_);
  if (!p.is_hermitian()) return 0.0;
  RowMask anti(w_);
  anticommuting_rows(p, anti.data());
  if (first_row(anti.data(), n_) < 2 * n_) return 0.0;
  return stabilizer_sign(p, anti.data());
}

// --- Introspection -----------------------------------------------------------

pauli::PauliString Tableau::row_to_pauli(std::size_t row) const {
  const std::size_t w = row >> 6;
  const std::uint64_t b = bit_of(row);
  pauli::PauliString p(n_);
  for (std::size_t q = 0; q < n_; ++q) {
    const bool x = (xcol(q)[w] & b) != 0;
    const bool z = (zcol(q)[w] & b) != 0;
    if (x && z)
      p.set(q, pauli::Pauli::Y);
    else if (x)
      p.set(q, pauli::Pauli::X);
    else if (z)
      p.set(q, pauli::Pauli::Z);
  }
  if ((signs()[w] & b) != 0) p.set_phase(p.phase() + 2);
  return p;
}

pauli::PauliString Tableau::stabilizer(std::size_t i) const {
  EQC_EXPECTS(i < n_);
  return row_to_pauli(n_ + i);
}

pauli::PauliString Tableau::destabilizer(std::size_t i) const {
  EQC_EXPECTS(i < n_);
  return row_to_pauli(i);
}

bool Tableau::state_is_stabilized_by(const pauli::PauliString& p) const {
  EQC_EXPECTS(p.num_qubits() == n_);
  if (!p.is_hermitian()) return false;
  // p must commute with every stabilizer generator.
  RowMask anti(w_);
  anticommuting_rows(p, anti.data());
  if (first_row(anti.data(), n_) < 2 * n_) return false;
  // Express p in the stabilizer basis: the product over stabilizers s_i for
  // which p anticommutes with destabilizer d_i.
  return stabilizer_sign(p, anti.data()) == 1;
}

void Tableau::check_invariants() const {
  std::vector<pauli::PauliString> stab, destab;
  for (std::size_t i = 0; i < n_; ++i) {
    stab.push_back(stabilizer(i));
    destab.push_back(destabilizer(i));
  }
  for (std::size_t i = 0; i < n_; ++i) {
    EQC_CHECK(!stab[i].commutes_with(destab[i]));
    for (std::size_t j = 0; j < n_; ++j) {
      if (j == i) continue;
      EQC_CHECK(stab[i].commutes_with(stab[j]));
      EQC_CHECK(stab[i].commutes_with(destab[j]));
      EQC_CHECK(destab[i].commutes_with(destab[j]));
    }
  }
}

}  // namespace eqc::stab
