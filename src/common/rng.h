// Deterministic, splittable random number generation.
//
// Every stochastic component of the library (noise injection, measurement
// collapse, ensemble sampling) draws from an eqc::Rng that is seeded
// explicitly, so every experiment in the paper reproduction is replayable
// from a stated seed.  The generator is xoshiro256** (Blackman & Vigna),
// seeded through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "common/assert.h"

namespace eqc {

/// SplitMix64 step; used for seeding and for deriving child seeds.
std::uint64_t split_mix64(std::uint64_t& state);

namespace rng_detail {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace rng_detail

/// Counter-split stream derivation: the seed of stream `index` under master
/// seed `seed`, as a pure function of the pair.  Unlike Rng::split(), which
/// advances (and therefore depends on) the parent stream, adjacent indices
/// yield decorrelated streams no matter which order — or on which thread —
/// they are instantiated.  This is the per-trial / per-item scheme shared by
/// the Monte-Carlo driver and the campaign engine.
std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t index);

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Raw 64 random bits.  Inline: this is the innermost operation of the
  /// Monte-Carlo drivers (noise sampling and random measurement outcomes).
  std::uint64_t operator()() {
    const std::uint64_t result = rng_detail::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rng_detail::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 top bits scaled into the unit interval.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// True with probability p (p is clamped to [0,1]; NaN violates the
  /// contract — both clamp branches and the uniform() compare are false
  /// for NaN, which would silently read as "never").
  bool bernoulli(double p) {
    EQC_EXPECTS(!std::isnan(p));
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Uniform integer in [0, bound) — bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Derive an independent child generator (for per-trial / per-computer
  /// streams that must not interact).
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace eqc
