// A fault-tolerant logical memory on an ENSEMBLE of encoded computers —
// the paper's two threads joined: every molecule carries a Steane-encoded
// qubit and runs measurement-free error recovery (Sec. 5); the logical
// value is read out only through the ensemble expectation signal.
#include <cmath>
#include <cstdio>

#include "codes/css_code.h"
#include "ensemble/machine.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "ftqc/recovery.h"
#include "noise/model.h"

using namespace eqc;

int main() {
  std::printf("== Ensemble of encoded computers with measurement-free EC ==\n");

  const codes::CssCode& code = codes::steane_code();
  ftqc::Layout layout;
  const auto data = layout.block(code);
  auto anc = ftqc::allocate_recovery_ancillas(layout, code);
  auto n_anc = ftqc::allocate_ngate_ancillas(layout, code, 3);
  const auto readout = layout.reg(7);
  std::printf("each computer: %zu qubits (7 data + EC and N-gate ancillas)\n",
              layout.total());

  // Encode |1>_L on every computer (noiselessly), then alternate noisy idle
  // storage with measurement-free recovery rounds.
  circuit::Circuit prep(layout.total());
  code.append_encode_zero(prep, data);
  code.append_logical_x(prep, data);

  circuit::Circuit store(layout.total());
  for (int i = 0; i < 10; ++i)
    for (auto q : data.q) store.idle(q);
  circuit::Circuit recover(layout.total());
  ftqc::append_recovery(recover, code, data, anc);

  // Logical readout, the paper's way: individual data qubits of a codeword
  // carry ZERO expectation signal (that's the encoding working); the N gate
  // copies the logical value onto a classical register whose ensemble
  // signal IS readable.
  circuit::Circuit ngate(layout.total());
  ftqc::append_ngate(ngate, code, data, readout, n_anc);

  const double p = 2e-3;
  const auto storage_noise = noise::NoiseModel::paper_model(p);

  auto logical_signal = [&](ensemble::CliffordEnsembleMachine& m) {
    m.run(ngate);
    double sum = 0;
    for (auto q : readout) sum += m.readout_z(q);
    return sum / 7.0;
  };

  std::printf("\nstorage noise p = %g on the data during idles; recovery "
              "and readout run noiselessly here\n",
              p);
  std::printf("%-22s %-14s %-16s\n", "round", "with recovery",
              "without recovery");
  const std::size_t kComputers = 40;
  ensemble::CliffordEnsembleMachine protected_ens(layout.total(), kComputers,
                                                  11);
  ensemble::CliffordEnsembleMachine bare_ens(layout.total(), kComputers, 13);
  protected_ens.run(prep);
  bare_ens.run(prep);
  double protected_signal = -1.0, bare_signal = -1.0;
  for (int round = 1; round <= 3; ++round) {
    protected_ens.run(store, &storage_noise);
    protected_ens.run(recover);
    bare_ens.run(store, &storage_noise);
    // Readout via the (measurement-free) N gate; -1 = clean |1>_L.
    protected_signal = logical_signal(protected_ens);
    bare_signal = logical_signal(bare_ens);
    std::printf("%-22d %-14.4f %-16.4f\n", round, protected_signal,
                bare_signal);
  }
  // A computer whose copy reads |0>_L moves the signal by 2/kComputers.
  const auto flipped = [&](double signal) {
    return static_cast<int>(
        std::lround((1.0 + signal) / 2.0 * static_cast<double>(kComputers)));
  };
  std::printf("\nWith recovery a computer fails only when two or more "
              "storage errors land in\none round, an O(p^2) event: %d of "
              "%zu computers flipped.  Without recovery\nerrors accumulate "
              "across rounds: %d of %zu flipped.\n",
              flipped(protected_signal), kComputers, flipped(bare_signal),
              kComputers);
  const bool ok =
      std::abs(1.0 + protected_signal) <= std::abs(1.0 + bare_signal);
  if (!ok)
    std::printf("FAIL: the protected ensemble drifted further from -1 than "
                "the unprotected one\n");
  return ok ? 0 : 1;
}
