// Stochastic error models.
//
// The paper analyzes the standard independent stochastic model: "For a
// probability p of an error (per gate, per input bit, and per delay line)".
// NoiseModel assigns an error probability to every fault site the executor
// visits; FaultSampler decides which sites fire (per fault, not per site)
// and StochasticInjector applies a uniformly random error from the chosen
// channel when one does.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/execute.h"
#include "common/rng.h"

namespace eqc::obs {
class Counter;
}  // namespace eqc::obs

namespace eqc::noise {

enum class Channel {
  Depolarizing,  ///< uniform over the 4^k - 1 non-identity Paulis on the site
  BitFlip,       ///< uniform over the 2^k - 1 non-trivial X patterns
  PhaseFlip,     ///< uniform over the 2^k - 1 non-trivial Z patterns
  /// One uniformly chosen qubit of the site gets one uniform Pauli — the
  /// paper's "probability p of an error per gate, per input bit, and per
  /// delay line" model, with no correlated multi-qubit errors.
  SingleQubitPauli,
  /// One uniformly chosen qubit of the site gets a Z with probability
  /// `z_bias`, else a uniform X/Y — a dephasing-dominated ensemble (NMR)
  /// variant of the paper model.  Still single-qubit, no correlations.
  BiasedZ,
};

struct NoiseModel {
  double p = 0.0;
  Channel channel = Channel::Depolarizing;
  /// Probability that a BiasedZ error is a Z (the rest splits evenly
  /// between X and Y).  Ignored by the other channels.
  double z_bias = 0.9;
  // Relative strength per site kind (0 disables that class of faults).
  double input_scale = 1.0;
  double prep_scale = 1.0;
  double gate_scale = 1.0;
  double measure_scale = 1.0;
  double idle_scale = 1.0;

  double probability_for(circuit::FaultSite::Kind kind) const;

  static NoiseModel depolarizing(double p) { return NoiseModel{.p = p}; }
  static NoiseModel bit_flip(double p) {
    return NoiseModel{.p = p, .channel = Channel::BitFlip};
  }
  static NoiseModel phase_flip(double p) {
    return NoiseModel{.p = p, .channel = Channel::PhaseFlip};
  }
  /// The paper's per-location single-qubit error model.
  static NoiseModel paper_model(double p) {
    return NoiseModel{.p = p, .channel = Channel::SingleQubitPauli};
  }
  /// Dephasing-dominated single-qubit model: Z with probability `z_bias`.
  static NoiseModel biased_z(double p, double z_bias = 0.9) {
    return NoiseModel{.p = p, .channel = Channel::BiasedZ, .z_bias = z_bias};
  }
};

/// Revision of the injector-stream layout shared by StochasticInjector and
/// the frame engine.  v1 drew one bernoulli(p) per fault site; v2 draws
/// geometric gaps between candidate sites (FaultSampler).  A change here
/// changes every Monte-Carlo count for a given seed, so reports record it
/// and resumable checkpoints written under another revision are rejected.
inline constexpr int kNoiseStreamVersion = 2;

/// A Pauli on one fault site: bit i of `x` / `z` is the X / Z component on
/// the site's i-th qubit (Y = both).  The compact form both Monte-Carlo
/// engines fold into their state without touching the heap.
struct SiteError {
  std::uint8_t x = 0;
  std::uint8_t z = 0;

  void set(std::size_t i, pauli::Pauli p);
  /// The error as an operator on the full `num_qubits`-wide register.
  pauli::PauliString on(const std::vector<std::uint32_t>& site_qubits,
                        std::size_t num_qubits) const;
};

/// Draws a uniformly random non-identity error of the channel's type on a
/// site of `arity` (1..3) qubits, adding the number of uniform variates
/// used to `draws`.  `z_bias` only affects Channel::BiasedZ.
SiteError sample_site_error(Channel channel, std::size_t arity, Rng& rng,
                            double z_bias, std::uint64_t& draws);

/// sample_site_error over `site_qubits`, as an operator on the full
/// `num_qubits`-wide register.
pauli::PauliString sample_error(Channel channel,
                                const std::vector<std::uint32_t>& site_qubits,
                                std::size_t num_qubits, Rng& rng,
                                double z_bias = 0.9);

/// Sparse sampler of a NoiseModel over a sequence of fault sites: a trial
/// pays per fault, not per site.
///
/// Instead of one bernoulli(p_kind) per site, it draws the number of sites
/// to skip before the next CANDIDATE site from a geometric distribution
/// with the largest per-kind probability p_max,
///
///     gap = floor(log(1 - U) / log1p(-p_max)),   U ~ uniform[0, 1),
///
/// and keeps a candidate of kind k with probability p_k / p_max (thinning),
/// which makes every site fire independently with exactly its p_k.  Stream
/// v2 (kNoiseStreamVersion) is the draw order per trial:
///
///     gap, [keep test], [error pattern], gap, [keep test], ...
///
/// where a gap is drawn only while sites remain, the keep test only when
/// 0 < p_k / p_max < 1, and the error pattern only for a kept candidate.
/// p_max == 0 draws nothing; p_max == 1 (some p * scale >= 1) makes every
/// site a candidate without a gap draw.  Gaps are capped at kMaxGap, so a
/// vanishing p cannot overflow.
class FaultSampler {
 public:
  using Kind = circuit::FaultSite::Kind;
  static constexpr std::uint64_t kMaxGap = std::uint64_t{1} << 62;

  explicit FaultSampler(const NoiseModel& model);

  /// Largest per-kind firing probability (clamped to [0, 1]).
  double p_max() const { return p_max_; }

  /// Sites to skip before the next candidate (kMaxGap when nothing fires).
  std::uint64_t gap(Rng& rng, std::uint64_t& draws) const;
  /// Thinning test at a candidate site of `kind`.
  bool keep(Kind kind, Rng& rng, std::uint64_t& draws) const {
    const double r = keep_[static_cast<int>(kind)];
    if (r <= 0.0) return false;
    if (r >= 1.0) return true;
    ++draws;
    return rng.uniform() < r;
  }
  /// Error pattern of a kept fault on a site of `arity` qubits.
  SiteError error(std::size_t arity, Rng& rng, std::uint64_t& draws) const {
    return sample_site_error(model_.channel, arity, rng, model_.z_bias, draws);
  }

  /// One trial's faults over a known site sequence (anything indexable
  /// whose elements carry `kind` and `qubits`): calls emit(i, error) for
  /// every faulty site index i, in increasing order.  Consumes `rng`
  /// exactly as a StochasticInjector visiting the same sites would.
  template <class Sites, class Emit>
  void sample(const Sites& sites, Rng& rng, std::uint64_t& draws,
              Emit&& emit) const {
    const std::size_t n = sites.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t g = gap(rng, draws);
      if (g >= n - i) return;
      i += static_cast<std::size_t>(g);
      const auto& site = sites[i];
      if (keep(site.kind, rng, draws))
        emit(i, error(site.qubits.size(), rng, draws));
    }
  }

 private:
  NoiseModel model_;
  double p_max_ = 0.0;
  double log_q_ = 0.0;  // log1p(-p_max)
  double keep_[5] = {0, 0, 0, 0, 0};
};

/// FaultInjector applying NoiseModel errors during execution.  It keeps a
/// countdown to the next candidate site and draws from its stream only at
/// candidates (FaultSampler's v2 order), so the frame engine's lane l
/// reproduces it bit for bit.  On destruction it adds its draw count to
/// the Stable `noise.draws` counter — once per trial, never per site.
class StochasticInjector final : public circuit::FaultInjector {
 public:
  StochasticInjector(const NoiseModel& model, Rng rng)
      : sampler_(model), rng_(rng) {}
  StochasticInjector(const StochasticInjector&) = delete;
  StochasticInjector& operator=(const StochasticInjector&) = delete;
  ~StochasticInjector() override;

  void visit(const circuit::FaultSite& site,
             circuit::Backend& backend) override;

  /// Number of errors injected so far (diagnostics).
  std::size_t errors_injected() const { return errors_; }
  /// Uniform variates drawn from the injector stream so far.
  std::uint64_t draws() const { return draws_; }

 private:
  FaultSampler sampler_;
  Rng rng_;
  std::uint64_t countdown_ = 0;
  bool armed_ = false;  // countdown_ holds a drawn gap
  std::size_t errors_ = 0;
  std::uint64_t draws_ = 0;
};

/// The Stable `noise.draws` counter: injector-stream variates, flushed by
/// each StochasticInjector when it dies and by the frame driver once per
/// completed block.  Every trial of a completed run draws the same variates
/// whichever engine, jobs value or resume pattern ran it; only
/// run_trials_until's speculative trials (which it evaluates and discards
/// when jobs != 1) would count extra.
obs::Counter& draws_counter();

}  // namespace eqc::noise
