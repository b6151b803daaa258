// E-C — the fault-injection campaign engine on the Fig. 1 N gate.
//
// Demonstrated claims:
//  (a) DETERMINISM: a 4-worker k = 2 campaign produces a report that is
//      byte-identical to the serial one (same JSON, same counterexamples),
//      so parallelism is purely a wall-clock choice;
//  (b) the malignant-pair fraction comes with a Wilson 95% interval, and
//      the implied pseudo-threshold brackets the paper's p^2 counting;
//  (c) every reported counterexample is 1-minimal (shrinking) and replays
//      to failure through run_with_faults;
//  (d) chaos mode estimates the failure rate at a physical p directly from
//      NoiseModel-sampled fault sets.
#include <chrono>
#include <cstdio>
#include <thread>

#include "analysis/campaign.h"
#include "analysis/fault_enum.h"
#include "bench_util.h"
#include "codes/css_code.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "noise/model.h"

using namespace eqc;

namespace {

analysis::FaultExperiment make_experiment() {
  const codes::CssCode& code = codes::steane_code();
  ftqc::Layout layout;
  const auto source = layout.block(code);
  auto anc = ftqc::allocate_ngate_ancillas(layout, code, 3);
  const auto out = layout.reg(7);

  analysis::FaultExperiment ex;
  ex.num_qubits = layout.total();
  ex.prep = circuit::Circuit(layout.total());
  code.append_encode_zero(ex.prep, source);
  code.append_logical_x(ex.prep, source);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::NGateOptions opt;
  opt.repetitions = 3;
  opt.syndrome_check = true;
  ftqc::append_ngate(ex.gadget, code, source, out, anc, opt);
  ex.failed = [&code, out, source](circuit::TabBackend& b,
                                   const circuit::ExecResult&) {
    int ones = 0;
    for (auto q : out) ones += b.tableau().deterministic_z_value(q) ? 1 : 0;
    if (2 * ones <= static_cast<int>(out.size())) return true;
    Rng rng(3);
    code.perfect_correct(b.tableau(), source, rng);
    return code.logical_z_expectation(b.tableau(), source) != -1.0;
  };
  return ex;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::banner("E-C: fault-injection campaign engine (k-fault / chaos)");
  int failures = 0;
  const auto ex = make_experiment();

  bench::section("(a) 2-fault campaign: 4 workers vs serial");
  analysis::CampaignReport serial;
  {
    analysis::CampaignConfig cfg;
    cfg.mode = analysis::CampaignMode::KFault;
    cfg.k = 2;
    cfg.budget = bench::scaled(2000);
    cfg.sample_seed = 7;

    cfg.jobs = 1;
    auto t0 = std::chrono::steady_clock::now();
    serial = analysis::run_campaign(ex, cfg);
    const double t_serial = seconds_since(t0);

    cfg.jobs = 4;
    t0 = std::chrono::steady_clock::now();
    const auto parallel = analysis::run_campaign(ex, cfg);
    const double t_parallel = seconds_since(t0);

    std::printf("  serial %.2fs, 4 workers %.2fs (speedup %.2fx on %u "
                "hardware threads)\n",
                t_serial, t_parallel,
                t_parallel > 0.0 ? t_serial / t_parallel : 0.0,
                std::thread::hardware_concurrency());
    failures += bench::verdict(serial.to_json() == parallel.to_json(),
                               "4-worker report byte-identical to serial");
  }

  bench::section("(b) malignant fraction and pseudo-threshold");
  {
    FailureCounter counter;
    counter.trials = serial.sets_tested;
    counter.failures = serial.malignant;
    std::printf("  %llu sets tested, %llu malignant -> fraction %s\n",
                static_cast<unsigned long long>(serial.sets_tested),
                static_cast<unsigned long long>(serial.malignant),
                bench::rate_ci(counter).c_str());
    std::printf("  P_fail ~ %.1f p^2  =>  pseudo-threshold p* ~ %.2e\n",
                serial.p_k_coefficient(), serial.pseudo_threshold());
    failures += bench::verdict(serial.malignant > 0 &&
                                   serial.pseudo_threshold() < 1.0,
                               "two faults suffice; threshold finite");
  }

  bench::section("(c) counterexamples: 1-minimal and replayable");
  {
    bool all_minimal = true;
    bool all_replay = true;
    for (const auto& m : serial.malignant_sets) {
      all_minimal = all_minimal && m.minimal;
      all_replay = all_replay && analysis::run_with_faults(ex, m.faults);
    }
    std::printf("  %zu counterexamples recorded\n",
                serial.malignant_sets.size());
    failures += bench::verdict(all_minimal, "every reported set is 1-minimal");
    failures += bench::verdict(all_replay,
                               "every reported set replays to failure");
    // Round-trip through the JSON replay artifact.
    const auto sets =
        analysis::parse_fault_sets(serial.to_json(), ex.num_qubits);
    bool round_trip = sets.size() == serial.malignant_sets.size();
    for (const auto& s : sets)
      round_trip = round_trip && analysis::run_with_faults(ex, s);
    failures += bench::verdict(round_trip,
                               "JSON artifact replays through run_with_faults");
  }

  bench::section("(d) chaos mode at p = 1e-3 (paper noise model)");
  {
    analysis::CampaignConfig cfg;
    cfg.mode = analysis::CampaignMode::Chaos;
    cfg.budget = bench::scaled(4000);
    cfg.chaos_model = noise::NoiseModel::paper_model(1e-3);
    cfg.jobs = 4;
    cfg.shrink = false;
    const auto chaos = analysis::run_campaign(ex, cfg);
    FailureCounter counter;
    counter.trials = chaos.sets_tested;
    counter.failures = chaos.malignant;
    std::printf("  %llu trials, failure rate %s\n",
                static_cast<unsigned long long>(chaos.sets_tested),
                bench::rate_ci(counter).c_str());
    failures += bench::verdict(chaos.complete, "chaos campaign completed");
  }

  std::printf("\nE-C overall: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
