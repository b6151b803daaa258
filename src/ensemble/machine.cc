#include "ensemble/machine.h"

#include "circuit/sv_backend.h"
#include "circuit/tab_backend.h"
#include "common/assert.h"

namespace eqc::ensemble {

EnsembleMachine::EnsembleMachine(std::size_t num_qubits,
                                 std::size_t num_computers,
                                 std::uint64_t seed)
    : num_qubits_(num_qubits), sampled_(num_computers > 0), rng_(seed) {
  EQC_EXPECTS(num_qubits > 0);
  const std::size_t n = sampled_ ? num_computers : 1;
  trajectories_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    trajectories_.emplace_back(num_qubits);
}

void EnsembleMachine::run(const circuit::Circuit& circuit,
                          const noise::NoiseModel* noise) {
  EQC_EXPECTS(circuit.num_qubits() <= num_qubits_);
  for (const auto& op : circuit.ops()) {
    EQC_EXPECTS(op.kind != circuit::OpKind::MeasureZ);
    EQC_EXPECTS(!circuit::is_classically_controlled(op.kind));
  }
  EQC_EXPECTS(noise == nullptr || sampled_);

  for (auto& trajectory : trajectories_) {
    circuit::SvBackend backend(std::move(trajectory), rng_.split());
    if (noise != nullptr) {
      noise::StochasticInjector injector(*noise, rng_.split());
      circuit::execute(circuit, backend, &injector);
    } else {
      circuit::execute(circuit, backend);
    }
    trajectory = std::move(backend.state());
  }
}

void EnsembleMachine::apply(
    const std::function<void(qsim::StateVector&)>& program) {
  EQC_EXPECTS(program != nullptr);
  for (auto& trajectory : trajectories_) program(trajectory);
}

void EnsembleMachine::set_polarization(double epsilon) {
  EQC_EXPECTS(epsilon > 0.0 && epsilon <= 1.0);
  polarization_ = epsilon;
}

double EnsembleMachine::readout_z(std::size_t qubit, bool shot_sampled) {
  EQC_EXPECTS(qubit < num_qubits_);
  double sum = 0.0;
  for (auto& trajectory : trajectories_) {
    if (shot_sampled) {
      // Each molecule contributes a definite +-1 signal.
      const bool one =
          rng_.bernoulli(qsim::snap_probability(trajectory.prob_one(qubit)));
      sum += one ? -1.0 : 1.0;
    } else {
      sum += trajectory.expectation_z(qubit);
    }
  }
  return polarization_ * sum / static_cast<double>(trajectories_.size());
}

std::vector<double> EnsembleMachine::readout_all(bool shot_sampled) {
  std::vector<double> out(num_qubits_);
  for (std::size_t q = 0; q < num_qubits_; ++q)
    out[q] = readout_z(q, shot_sampled);
  return out;
}

CliffordEnsembleMachine::CliffordEnsembleMachine(std::size_t num_qubits,
                                                 std::size_t num_computers,
                                                 std::uint64_t seed)
    : num_qubits_(num_qubits), rng_(seed) {
  EQC_EXPECTS(num_qubits > 0 && num_computers > 0);
  trajectories_.reserve(num_computers);
  for (std::size_t i = 0; i < num_computers; ++i)
    trajectories_.emplace_back(num_qubits);
}

void CliffordEnsembleMachine::run(const circuit::Circuit& circuit,
                                  const noise::NoiseModel* noise) {
  EQC_EXPECTS(circuit.num_qubits() <= num_qubits_);
  for (const auto& op : circuit.ops()) {
    EQC_EXPECTS(op.kind != circuit::OpKind::MeasureZ);
    EQC_EXPECTS(!circuit::is_classically_controlled(op.kind));
  }
  for (auto& trajectory : trajectories_) {
    circuit::TabBackend backend(num_qubits_, rng_.split());
    backend.tableau() = trajectory;
    if (noise != nullptr) {
      noise::StochasticInjector injector(*noise, rng_.split());
      circuit::execute(circuit, backend, &injector);
    } else {
      circuit::execute(circuit, backend);
    }
    trajectory = backend.tableau();
  }
}

double CliffordEnsembleMachine::readout_z(std::size_t qubit,
                                          bool shot_sampled) {
  EQC_EXPECTS(qubit < num_qubits_);
  double sum = 0.0;
  for (auto& trajectory : trajectories_) {
    const double e = trajectory.expectation_z(qubit);
    if (shot_sampled) {
      const double p1 = (1.0 - e) / 2.0;
      sum += rng_.bernoulli(p1) ? -1.0 : 1.0;
    } else {
      sum += e;
    }
  }
  return sum / static_cast<double>(trajectories_.size());
}

std::vector<double> CliffordEnsembleMachine::readout_all(bool shot_sampled) {
  std::vector<double> out(num_qubits_);
  for (std::size_t q = 0; q < num_qubits_; ++q)
    out[q] = readout_z(q, shot_sampled);
  return out;
}

}  // namespace eqc::ensemble
