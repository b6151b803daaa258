#include "noise/model.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "obs/metrics.h"

namespace eqc::noise {

double NoiseModel::probability_for(circuit::FaultSite::Kind kind) const {
  using Kind = circuit::FaultSite::Kind;
  switch (kind) {
    case Kind::Input: return p * input_scale;
    case Kind::PrepOutput: return p * prep_scale;
    case Kind::GateOutput: return p * gate_scale;
    case Kind::MeasureInput: return p * measure_scale;
    case Kind::Idle: return p * idle_scale;
  }
  return 0.0;
}

void SiteError::set(std::size_t i, pauli::Pauli p) {
  const auto bit = static_cast<std::uint8_t>(1u << i);
  if (p == pauli::Pauli::X || p == pauli::Pauli::Y) x |= bit;
  if (p == pauli::Pauli::Z || p == pauli::Pauli::Y) z |= bit;
}

pauli::PauliString SiteError::on(std::span<const std::uint32_t> site_qubits,
                                 std::size_t num_qubits) const {
  static constexpr pauli::Pauli kByBits[4] = {
      pauli::Pauli::I, pauli::Pauli::X, pauli::Pauli::Z, pauli::Pauli::Y};
  pauli::PauliString err(num_qubits);
  for (std::size_t i = 0; i < site_qubits.size(); ++i) {
    const unsigned bits = ((x >> i) & 1u) | (((z >> i) & 1u) << 1);
    if (bits != 0) err.set(site_qubits[i], kByBits[bits]);
  }
  return err;
}

SiteError sample_site_error(Channel channel, std::size_t arity, Rng& rng,
                            double z_bias, std::uint64_t& draws) {
  EQC_EXPECTS(arity >= 1 && arity <= 3);
  const std::size_t k = arity;
  SiteError err;
  switch (channel) {
    case Channel::Depolarizing: {
      // Draw a non-zero index into {I,X,Y,Z}^k.
      const std::uint64_t idx = 1 + rng.below((std::uint64_t{1} << (2 * k)) - 1);
      ++draws;
      for (std::size_t i = 0; i < k; ++i)
        err.set(i, static_cast<pauli::Pauli>((idx >> (2 * i)) & 3));
      break;
    }
    case Channel::BitFlip:
      err.x = static_cast<std::uint8_t>(1 + rng.below((1u << k) - 1));
      ++draws;
      break;
    case Channel::PhaseFlip:
      err.z = static_cast<std::uint8_t>(1 + rng.below((1u << k) - 1));
      ++draws;
      break;
    case Channel::SingleQubitPauli: {
      const std::size_t i = rng.below(k);
      static constexpr pauli::Pauli kChoices[3] = {
          pauli::Pauli::X, pauli::Pauli::Y, pauli::Pauli::Z};
      err.set(i, kChoices[rng.below(3)]);
      draws += 2;
      break;
    }
    case Channel::BiasedZ: {
      const std::size_t i = rng.below(k);
      ++draws;
      if (z_bias > 0.0 && z_bias < 1.0) ++draws;
      if (rng.bernoulli(z_bias)) {
        err.set(i, pauli::Pauli::Z);
      } else {
        err.set(i, rng.below(2) == 0 ? pauli::Pauli::X : pauli::Pauli::Y);
        ++draws;
      }
      break;
    }
  }
  return err;
}

pauli::PauliString sample_error(Channel channel,
                                const std::vector<std::uint32_t>& site_qubits,
                                std::size_t num_qubits, Rng& rng,
                                double z_bias) {
  std::uint64_t draws = 0;
  return sample_site_error(channel, site_qubits.size(), rng, z_bias, draws)
      .on(site_qubits, num_qubits);
}

FaultSampler::FaultSampler(const NoiseModel& model) : model_(model) {
  double p_kind[5] = {};
  for (int k = 0; k < 5; ++k) {
    const double p = model.probability_for(static_cast<Kind>(k));
    EQC_EXPECTS(!std::isnan(p));
    p_kind[k] = std::clamp(p, 0.0, 1.0);
    p_max_ = std::max(p_max_, p_kind[k]);
  }
  if (p_max_ <= 0.0) return;
  log_q_ = std::log1p(-p_max_);
  for (int k = 0; k < 5; ++k) keep_[k] = p_kind[k] / p_max_;
}

std::uint64_t FaultSampler::gap(Rng& rng, std::uint64_t& draws) const {
  if (p_max_ <= 0.0) return kMaxGap;
  if (p_max_ >= 1.0) return 0;
  ++draws;
  // 1 - U lies in (0, 1], so the ratio is >= 0; it is +inf (or beyond any
  // site count) only when p_max is vanishingly small.
  const double g = std::log(1.0 - rng.uniform()) / log_q_;
  return g < static_cast<double>(kMaxGap) ? static_cast<std::uint64_t>(g)
                                          : kMaxGap;
}

obs::Counter& draws_counter() {
  static obs::Counter& c = obs::counter("noise.draws", obs::Det::Stable);
  return c;
}

StochasticInjector::~StochasticInjector() { draws_counter().add(draws_); }

void StochasticInjector::visit(const circuit::FaultSite& site,
                               circuit::Backend& backend) {
  if (!armed_) {
    countdown_ = sampler_.gap(rng_, draws_);
    armed_ = true;
  }
  if (countdown_ > 0) {
    --countdown_;
    return;
  }
  armed_ = false;
  if (!sampler_.keep(site.kind, rng_, draws_)) return;
  backend.apply_pauli(sampler_.error(site.qubits.size(), rng_, draws_)
                          .on(site.qubits, backend.num_qubits()));
  ++errors_;
}

}  // namespace eqc::noise
