#include "codes/css_code.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "codes/hamming.h"
#include "common/assert.h"

namespace eqc::codes {

// --- classical decoding ------------------------------------------------------

unsigned CssCode::z_syndrome_of_word(unsigned word) const {
  unsigned s = 0;
  for (std::size_t row = 0; row < num_z_checks(); ++row)
    if (std::popcount(word & z_check_mask(row)) & 1) s |= 1u << row;
  return s;
}

unsigned CssCode::z_syndrome_of_x_error(std::size_t pos) const {
  EQC_EXPECTS(pos < n());
  return z_syndrome_of_word(1u << pos);
}

unsigned CssCode::x_syndrome_of_z_error(std::size_t pos) const {
  EQC_EXPECTS(pos < n());
  unsigned s = 0;
  for (std::size_t row = 0; row < num_x_checks(); ++row)
    if (x_check_mask(row) & (1u << pos)) s |= 1u << row;
  return s;
}

int CssCode::x_error_position(unsigned z_syndrome) const {
  if (z_syndrome == 0) return -1;
  for (std::size_t pos = 0; pos < n(); ++pos)
    if (z_syndrome_of_x_error(pos) == z_syndrome) return static_cast<int>(pos);
  return -1;
}

int CssCode::z_error_position(unsigned x_syndrome) const {
  if (x_syndrome == 0) return -1;
  for (std::size_t pos = 0; pos < n(); ++pos)
    if (x_syndrome_of_z_error(pos) == x_syndrome) return static_cast<int>(pos);
  return -1;
}

bool CssCode::decode_logical_bit(unsigned word) const {
  const int pos = x_error_position(z_syndrome_of_word(word));
  if (pos >= 0) word ^= 1u << pos;
  return std::popcount(word) & 1;
}

// --- circuit builders --------------------------------------------------------

void CssCode::append_encode_zero(circuit::Circuit& c,
                                 const CodeBlock& b) const {
  EQC_EXPECTS(b.size() == n());
  append_superposition_encoder(c, b, p_.x_checks);
}

void CssCode::append_encode_plus(circuit::Circuit& c,
                                 const CodeBlock& b) const {
  if (self_dual()) {
    append_encode_zero(c, b);
    append_logical_h(c, b);
    return;
  }
  // |+>_L = uniform superposition over span(x checks) union its coset by
  // the all-ones logical X support — one extra generator.
  EQC_EXPECTS(b.size() == n());
  std::vector<unsigned> masks = p_.x_checks;
  masks.push_back((1u << n()) - 1);
  append_superposition_encoder(c, b, std::move(masks));
}

void CssCode::append_logical_x(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(b.size() == n());
  for (auto q : b.q) c.x(q);
}

void CssCode::append_logical_z(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(b.size() == n());
  for (auto q : b.q) c.z(q);
}

void CssCode::append_logical_h(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(self_dual() && b.size() == n());
  for (auto q : b.q) c.h(q);
}

void CssCode::append_logical_s(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(has_transversal_s() && b.size() == n());
  for (auto q : b.q) c.sdg(q);
}

void CssCode::append_logical_sdg(circuit::Circuit& c,
                                 const CodeBlock& b) const {
  EQC_EXPECTS(has_transversal_s() && b.size() == n());
  for (auto q : b.q) c.s(q);
}

void CssCode::append_logical_t(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(has_transversal_t() && b.size() == n());
  for (auto q : b.q) c.tdg(q);
}

void CssCode::append_logical_tdg(circuit::Circuit& c,
                                 const CodeBlock& b) const {
  EQC_EXPECTS(has_transversal_t() && b.size() == n());
  for (auto q : b.q) c.t(q);
}

void CssCode::append_logical_cnot(circuit::Circuit& c,
                                  const CodeBlock& control,
                                  const CodeBlock& target) const {
  EQC_EXPECTS(control.size() == n() && target.size() == n());
  for (std::size_t i = 0; i < n(); ++i) c.cnot(control.q[i], target.q[i]);
}

void CssCode::append_logical_cz(circuit::Circuit& c, const CodeBlock& a,
                                const CodeBlock& b) const {
  EQC_EXPECTS(self_dual() && a.size() == n() && b.size() == n());
  for (std::size_t i = 0; i < n(); ++i) c.cz(a.q[i], b.q[i]);
}

// --- Pauli operators ---------------------------------------------------------

namespace {

pauli::PauliString masked(std::size_t total, const CodeBlock& b, unsigned mask,
                          pauli::Pauli label) {
  pauli::PauliString p(total);
  for (std::size_t i = 0; i < b.size(); ++i)
    if (mask & (1u << i)) p.set(b.q[i], label);
  return p;
}

}  // namespace

pauli::PauliString CssCode::z_stabilizer(std::size_t total, const CodeBlock& b,
                                         std::size_t row) const {
  EQC_EXPECTS(row < num_z_checks() && b.size() == n());
  return masked(total, b, z_check_mask(row), pauli::Pauli::Z);
}

pauli::PauliString CssCode::x_stabilizer(std::size_t total, const CodeBlock& b,
                                         std::size_t row) const {
  EQC_EXPECTS(row < num_x_checks() && b.size() == n());
  return masked(total, b, x_check_mask(row), pauli::Pauli::X);
}

pauli::PauliString CssCode::logical_x_op(std::size_t total,
                                         const CodeBlock& b) const {
  EQC_EXPECTS(b.size() == n());
  return masked(total, b, (1u << n()) - 1, pauli::Pauli::X);
}

pauli::PauliString CssCode::logical_z_op(std::size_t total,
                                         const CodeBlock& b) const {
  EQC_EXPECTS(b.size() == n());
  return masked(total, b, (1u << n()) - 1, pauli::Pauli::Z);
}

// --- dense reference state ---------------------------------------------------

std::vector<cplx> CssCode::encoded_amplitudes(cplx alpha, cplx beta) const {
  EQC_EXPECTS(n() < 32);
  // The X checks are independent, so the doubling lists each span word
  // once.
  std::vector<unsigned> span = {0};
  for (unsigned m : p_.x_checks) {
    const std::size_t size = span.size();
    for (std::size_t i = 0; i < size; ++i) span.push_back(span[i] ^ m);
  }
  const unsigned ones = (1u << n()) - 1;
  const double w = 1.0 / std::sqrt(static_cast<double>(span.size()));
  std::vector<cplx> amp(std::size_t{1} << n(), cplx{0, 0});
  for (unsigned c : span) {
    amp[c] += alpha * w;
    amp[c ^ ones] += beta * w;
  }
  return amp;
}

// --- tableau oracles ---------------------------------------------------------

namespace {

// Min-weight error pattern with the given syndrome (ideal bounded-distance
// decode; verification only).  Codes with asymmetric distances (RM15:
// Z-distance 3, X-distance 7) correct more than one error of the stronger
// type, so the ideal decoder must not stop at the single-qubit lookup.
// For a perfect code every nonzero syndrome's leader has weight 1, so this
// reproduces the lookup exactly.
template <typename MaskFn>
unsigned min_weight_match(unsigned syndrome, std::size_t rows, std::size_t n,
                          MaskFn mask_of_row) {
  if (syndrome == 0) return 0;
  EQC_EXPECTS(n < 32);
  for (std::size_t w = 1; w <= n; ++w) {
    // Gosper enumeration of weight-w masks over n bits.
    std::uint32_t mask = (1u << w) - 1;
    while (mask < (1u << n)) {
      unsigned s = 0;
      for (std::size_t r = 0; r < rows; ++r)
        if (std::popcount(mask & mask_of_row(r)) & 1) s |= 1u << r;
      if (s == syndrome) return mask;
      const std::uint32_t c = mask & (~mask + 1);
      const std::uint32_t up = mask + c;
      mask = (((mask ^ up) >> 2) / c) | up;
    }
  }
  EQC_CHECK(false && "syndrome unreachable: check matrix rank deficient");
  return 0;
}

}  // namespace

unsigned CssCode::x_fix_for_z_syndrome(unsigned sz) const {
  return min_weight_match(sz, num_z_checks(), n(),
                          [this](std::size_t r) { return z_check_mask(r); });
}

unsigned CssCode::z_fix_for_x_syndrome(unsigned sx) const {
  return min_weight_match(sx, num_x_checks(), n(),
                          [this](std::size_t r) { return x_check_mask(r); });
}

void CssCode::perfect_correct(stab::Tableau& tab, const CodeBlock& b,
                              Rng& rng) const {
  const std::size_t total = tab.num_qubits();
  unsigned sz = 0;
  for (std::size_t row = 0; row < num_z_checks(); ++row)
    if (tab.measure_pauli(z_stabilizer(total, b, row), rng)) sz |= 1u << row;
  const unsigned fix_x = x_fix_for_z_syndrome(sz);
  if (fix_x != 0) {
    pauli::PauliString fix(total);
    for (std::size_t i = 0; i < n(); ++i)
      if (fix_x & (1u << i)) fix.set(b.q[i], pauli::Pauli::X);
    tab.apply_pauli(fix);
  }
  unsigned sx = 0;
  for (std::size_t row = 0; row < num_x_checks(); ++row)
    if (tab.measure_pauli(x_stabilizer(total, b, row), rng)) sx |= 1u << row;
  const unsigned fix_z = z_fix_for_x_syndrome(sx);
  if (fix_z != 0) {
    pauli::PauliString fix(total);
    for (std::size_t i = 0; i < n(); ++i)
      if (fix_z & (1u << i)) fix.set(b.q[i], pauli::Pauli::Z);
    tab.apply_pauli(fix);
  }
}

bool CssCode::block_in_codespace(const stab::Tableau& tab,
                                 const CodeBlock& b) const {
  const std::size_t total = tab.num_qubits();
  for (std::size_t row = 0; row < num_z_checks(); ++row)
    if (tab.expectation_pauli(z_stabilizer(total, b, row)) != 1.0)
      return false;
  for (std::size_t row = 0; row < num_x_checks(); ++row)
    if (tab.expectation_pauli(x_stabilizer(total, b, row)) != 1.0)
      return false;
  return true;
}

double CssCode::logical_z_expectation(const stab::Tableau& tab,
                                      const CodeBlock& b) const {
  return tab.expectation_pauli(logical_z_op(tab.num_qubits(), b));
}

// --- generic superposition encoder -------------------------------------------

void append_superposition_encoder(circuit::Circuit& c, const CodeBlock& b,
                                  std::vector<unsigned> masks) {
  // Row-reduce over GF(2): after elimination each surviving mask owns a
  // pivot column (its lowest set bit) that no other mask touches.
  std::vector<unsigned> rows;
  for (unsigned m : masks) {
    for (unsigned r : rows) {
      const unsigned pivot = r & ~(r - 1);  // lowest set bit of r
      if (m & pivot) m ^= r;
    }
    if (m == 0) continue;  // linearly dependent
    const unsigned pivot = m & ~(m - 1);
    for (unsigned& r : rows)
      if (r & pivot) r ^= m;
    rows.push_back(m);
  }
  for (unsigned r : rows) {
    const auto pivot =
        static_cast<std::size_t>(std::countr_zero(r));
    EQC_EXPECTS(pivot < b.size());
    c.h(b.q[pivot]);
  }
  for (unsigned r : rows) {
    const auto pivot = static_cast<std::size_t>(std::countr_zero(r));
    for (std::size_t i = 0; i < b.size(); ++i)
      if (i != pivot && (r & (1u << i))) c.cnot(b.q[pivot], b.q[i]);
  }
}

namespace {

// Inverts an m x m GF(2) matrix given as row bitmasks; empty on singular.
std::vector<unsigned> gf2_invert(std::vector<unsigned> rows) {
  const std::size_t m = rows.size();
  std::vector<unsigned> inv(m);
  for (std::size_t r = 0; r < m; ++r) inv[r] = 1u << r;
  for (std::size_t c = 0; c < m; ++c) {
    std::size_t piv = c;
    while (piv < m && !(rows[piv] & (1u << c))) ++piv;
    if (piv == m) return {};
    std::swap(rows[c], rows[piv]);
    std::swap(inv[c], inv[piv]);
    for (std::size_t r = 0; r < m; ++r)
      if (r != c && (rows[r] & (1u << c))) {
        rows[r] ^= rows[c];
        inv[r] ^= inv[c];
      }
  }
  return inv;
}

// Evaluates one pivot-set candidate: the m x m submatrix of H on `cols`
// must be invertible; returns its max-column-weight score (how many output
// positions one syndrome bit feeds), SIZE_MAX when singular.
std::size_t pivot_score(const CssCode& code,
                        const std::vector<std::size_t>& cols,
                        std::vector<unsigned>* inv_out) {
  const std::size_t m = code.num_z_checks();
  std::vector<unsigned> sub(m, 0);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t j = 0; j < m; ++j)
      if (code.z_check_mask(r) & (1u << cols[j])) sub[r] |= 1u << j;
  auto inv = gf2_invert(std::move(sub));
  if (inv.empty()) return static_cast<std::size_t>(-1);
  // inv[j] bit r: position cols[j] is fed by syndrome bit r.  The column
  // weight over j of bit r is the fanout of syndrome bit r.
  std::size_t worst = 0;
  for (std::size_t r = 0; r < m; ++r) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < m; ++j)
      if (inv[j] & (1u << r)) ++w;
    worst = std::max(worst, w);
  }
  if (inv_out != nullptr) *inv_out = std::move(inv);
  return worst;
}

}  // namespace

ZRepairPlan z_repair_plan(const CssCode& code) {
  const std::size_t n = code.n();
  const std::size_t m = code.num_z_checks();
  EQC_EXPECTS(m <= 20 && n <= 32);

  ZRepairPlan plan;
  // One-hot completeness: do single-qubit syndromes cover every nonzero
  // syndrome?  (Perfect codes: 2^m - 1 positions with distinct syndromes.)
  std::vector<bool> seen(std::size_t{1} << m, false);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned s = code.z_syndrome_of_x_error(i);
    if (s != 0 && !seen[s]) {
      seen[s] = true;
      ++distinct;
    }
  }
  if (distinct == (std::size_t{1} << m) - 1) {
    plan.single_qubit_complete = true;
    plan.max_bit_fanout = 2;  // a flipped bit moves the match by one hot
    return plan;
  }

  // Information-set solve f(s) = P^{-1} s over a pivot set P of m block
  // positions.  Exhaustive search over C(n, m) pivot sets (bounded) for
  // the one minimizing the per-syndrome-bit fanout; first-found greedy
  // pivots above the bound.
  std::vector<std::size_t> cols(m);
  for (std::size_t j = 0; j < m; ++j) cols[j] = j;
  std::vector<std::size_t> best_cols;
  std::vector<unsigned> best_inv;
  std::size_t best_score = static_cast<std::size_t>(-1);
  std::size_t budget = 200000;
  while (true) {
    std::vector<unsigned> inv;
    const std::size_t score = pivot_score(code, cols, &inv);
    if (score < best_score) {
      best_score = score;
      best_cols = cols;
      best_inv = std::move(inv);
    }
    if (--budget == 0) break;
    // Next combination in lexicographic order.
    std::size_t j = m;
    while (j > 0 && cols[j - 1] == n - m + (j - 1)) --j;
    if (j == 0) break;
    ++cols[j - 1];
    for (std::size_t i = j; i < m; ++i) cols[i] = cols[i - 1] + 1;
  }
  EQC_CHECK(best_score != static_cast<std::size_t>(-1) &&
            "z_repair_plan: Z-check matrix is rank deficient");
  plan.positions = std::move(best_cols);
  plan.tags.assign(best_inv.begin(), best_inv.end());
  plan.max_bit_fanout = best_score;
  return plan;
}

std::vector<unsigned> z_repair_even_pair_syndromes(const CssCode& code) {
  const ZRepairPlan plan = z_repair_plan(code);
  std::vector<unsigned> out;
  const std::size_t mz = code.num_z_checks();
  for (std::size_t r = 0; r < mz; ++r) {
    std::vector<std::size_t> fanout;
    for (std::size_t j = 0; j < plan.tags.size(); ++j)
      if (plan.tags[j] & (1u << r)) fanout.push_back(plan.positions[j]);
    for (std::size_t a = 0; a < fanout.size(); ++a)
      for (std::size_t b = a + 1; b < fanout.size(); ++b)
        out.push_back(code.z_syndrome_of_word((1u << fanout[a]) |
                                              (1u << fanout[b])));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- registry ----------------------------------------------------------------

const CssCode& steane_code() {
  static const CssCode code({
      .name = "steane",
      .n = 7,
      .distance = 3,
      .z_checks = {Hamming74::kCheckMasks.begin(), Hamming74::kCheckMasks.end()},
      .x_checks = {Hamming74::kCheckMasks.begin(), Hamming74::kCheckMasks.end()},
      .self_dual = true,
      .transversal_s = true,
  });
  return code;
}

const CssCode& rm15_code() {
  // Address-bit masks: bit i set iff address i+1 has bit j (j = 0..3),
  // then the six pairwise intersections (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
  static const CssCode code({
      .name = "rm15",
      .n = 15,
      .distance = 3,
      .z_checks = {0x5555, 0x6666, 0x7878, 0x7F80, 0x4444, 0x5050, 0x5500,
                   0x6060, 0x6600, 0x7800},
      .x_checks = {0x5555, 0x6666, 0x7878, 0x7F80},
      .transversal_t = true,
  });
  return code;
}

const CssCode* find_code(std::string_view name) {
  if (name == steane_code().name()) return &steane_code();
  if (name == rm15_code().name()) return &rm15_code();
  return nullptr;
}

std::vector<std::string_view> known_code_names() {
  return {steane_code().name(), rm15_code().name()};
}

}  // namespace eqc::codes
