// E9 — substrate performance: throughput of the two simulation engines and
// of the analysis primitives, measured with google-benchmark.  These are
// capacity-planning numbers for the experiments (E1-E8), not paper claims.
#include <benchmark/benchmark.h>

#include "analysis/experiments.h"
#include "analysis/fault_enum.h"
#include "analysis/frame_oracle.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
#include "common/rng.h"
#include "frame/driver.h"
#include "noise/model.h"
#include "qsim/gates.h"
#include "qsim/state_vector.h"
#include "stab/tableau.h"

using namespace eqc;

namespace {

void BM_StateVector1Q(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  qsim::StateVector sv(n);
  const auto h = qsim::gate_h();
  std::size_t q = 0;
  for (auto _ : state) {
    sv.apply1(q, h);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateVector1Q)->Arg(12)->Arg(16)->Arg(20)->Arg(22);

void BM_StateVectorCnot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  qsim::StateVector sv(n);
  std::size_t q = 0;
  for (auto _ : state) {
    sv.apply_cnot(q, (q + 1) % n);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateVectorCnot)->Arg(12)->Arg(16)->Arg(20)->Arg(22);

void BM_TableauCnot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stab::Tableau tab(n);
  std::size_t q = 0;
  for (auto _ : state) {
    tab.cnot(q, (q + 1) % n);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
// 22 and 78 are the Fig. 1 N gate's and the Sec. 5 recovery gadget's widths.
BENCHMARK(BM_TableauCnot)
    ->Arg(16)
    ->Arg(22)
    ->Arg(64)
    ->Arg(78)
    ->Arg(256)
    ->Arg(1024);

void BM_TableauMeasure(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    stab::Tableau tab(n);
    for (std::size_t q = 0; q < n; ++q) tab.h(q);
    state.ResumeTiming();
    for (std::size_t q = 0; q < n; ++q) tab.measure(q, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TableauMeasure)->Arg(16)->Arg(64)->Arg(256);

void BM_NGateTableauRun(benchmark::State& state) {
  // Fault-free prep + gadget of the Fig. 1 N gate (steane, k = 1).
  const auto built = analysis::build_gadget_experiment(analysis::GadgetSpec{});
  const auto& ex = built.ex;
  for (auto _ : state) {
    circuit::TabBackend backend(ex.num_qubits, Rng(1));
    circuit::execute(ex.prep, backend);
    circuit::execute(ex.gadget, backend);
    benchmark::DoNotOptimize(
        backend.tableau().expectation_z(built.ngate_out[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NGateTableauRun);

// Monte-Carlo engine throughput, items = trials: the per-trial TabBackend
// execution vs the 64-lane batch frame engine on the same N-gate
// experiment.  The ratio of the two items/sec numbers is the frame
// speedup (the gated figure lives in bench_fig1_ngate's frames_mc phase).
void BM_NGateMcPerTrial(benchmark::State& state) {
  const auto built = analysis::build_gadget_experiment(analysis::GadgetSpec{});
  const auto model = noise::NoiseModel::paper_model(1e-3);
  std::uint64_t i = 0;
  for (auto _ : state) {
    Rng rng(derive_stream_seed(7, i++));
    circuit::TabBackend backend(built.ex.num_qubits, rng.split());
    circuit::execute(built.ex.prep, backend);
    noise::StochasticInjector injector(model, rng.split());
    const auto r = circuit::execute(built.ex.gadget, backend, &injector);
    benchmark::DoNotOptimize(built.ex.failed(backend, r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NGateMcPerTrial);

void BM_NGateMcFrameBatch(benchmark::State& state) {
  const auto built = analysis::build_gadget_experiment(analysis::GadgetSpec{});
  const auto prog = analysis::make_frame_program(built.ex);
  const auto oracle = analysis::make_frame_oracle("ngate", built, prog);
  const auto model = noise::NoiseModel::paper_model(1e-3);
  std::uint64_t base = 0;
  for (auto _ : state) {
    frame::FrameBatch batch(prog);
    batch.run_stochastic(model, 7, base, frame::FrameBatch::kLanes);
    benchmark::DoNotOptimize(oracle(batch));
    base += frame::FrameBatch::kLanes;
  }
  state.SetItemsProcessed(state.iterations() * frame::FrameBatch::kLanes);
}
BENCHMARK(BM_NGateMcFrameBatch);

// One planted campaign batch on the Sec. 5 recovery gadget (36,297 fault
// sites): 64 lanes, each with one single fault from a fixed stride through
// the universe, then the closed-form word oracle.  Items = lanes.  The
// tape holds one instruction per run of sites, so this costs per gate and
// per fault, not per site.
void BM_Sec5FramePlantedBatch(benchmark::State& state) {
  analysis::GadgetSpec spec;
  spec.gadget = "recovery";
  const auto built = analysis::build_gadget_experiment(spec);
  const auto prog = analysis::make_frame_program(built.ex);
  const auto oracle = analysis::make_frame_oracle("recovery", built, prog);
  const analysis::SingleFaultIndex index(built.ex);
  std::vector<frame::FrameBatch::LaneFault> faults;
  for (std::uint32_t l = 0; l < frame::FrameBatch::kLanes; ++l) {
    const auto f = index.local(index.size() / frame::FrameBatch::kLanes * l);
    faults.push_back(frame::FrameBatch::LaneFault{f.ordinal, l, f.error});
  }
  frame::FrameBatch batch(prog);
  for (auto _ : state) {
    batch.run_planted_sites(frame::FrameBatch::kLanes, faults);
    benchmark::DoNotOptimize(oracle(batch));
  }
  state.SetItemsProcessed(state.iterations() * frame::FrameBatch::kLanes);
  state.counters["tape_instructions"] =
      static_cast<double>(prog.num_instructions());
}
BENCHMARK(BM_Sec5FramePlantedBatch);

void BM_MeasurePauliSteane(benchmark::State& state) {
  circuit::TabBackend backend(7, Rng(1));
  const codes::CssCode& code = codes::steane_code();
  const auto block = codes::CodeBlock::contiguous(0, code.n());
  circuit::Circuit c(7);
  code.append_encode_zero(c, block);
  circuit::execute(c, backend);
  Rng rng(2);
  const auto zl = code.logical_z_op(7, block);
  for (auto _ : state) {
    auto copy = backend.tableau();
    benchmark::DoNotOptimize(copy.measure_pauli(zl, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeasurePauliSteane);

}  // namespace

BENCHMARK_MAIN();
