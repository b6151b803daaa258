#include "analysis/experiments.h"

#include "analysis/campaign.h"
#include "analysis/frame_oracle.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "common/assert.h"
#include "ftqc/ft_tgate.h"
#include "ftqc/ft_toffoli.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "ftqc/recovery.h"

namespace eqc::analysis {

using codes::CodeBlock;
using codes::CssCode;

namespace {

BuiltGadget build_ngate(const GadgetSpec& spec) {
  const CssCode& code = scenario_code(spec.scenario);
  const int reps = spec.scenario.reps();
  ftqc::Layout layout;
  const CodeBlock source = layout.block(code);
  auto anc = ftqc::allocate_ngate_ancillas(layout, code, reps);
  const auto out = layout.reg(code.n());

  BuiltGadget built;
  FaultExperiment& ex = built.ex;
  ex.num_qubits = layout.total();
  ex.prep = circuit::Circuit(layout.total());
  code.append_encode_zero(ex.prep, source);
  code.append_logical_x(ex.prep, source);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::NGateOptions nopt;
  nopt.repetitions = reps;
  nopt.syndrome_check = spec.syndrome;
  ftqc::append_ngate(ex.gadget, code, source, out, anc, nopt);
  const CssCode* c = &code;
  ex.failed = [out, source, c](circuit::TabBackend& b,
                               const circuit::ExecResult&) {
    int ones = 0;
    for (auto q : out) ones += b.tableau().deterministic_z_value(q) ? 1 : 0;
    if (2 * ones <= static_cast<int>(out.size())) return true;
    Rng rng(3);
    c->perfect_correct(b.tableau(), source, rng);
    return c->logical_z_expectation(b.tableau(), source) != -1.0;
  };
  ex.seed = spec.seed;
  built.main_block = source;
  built.code = c;
  built.ngate_out = out;
  return built;
}

BuiltGadget build_recovery(const GadgetSpec& spec, bool measurement_free) {
  const CssCode& code = scenario_code(spec.scenario);
  ftqc::Layout layout;
  const CodeBlock data = layout.block(code);
  auto anc =
      ftqc::allocate_recovery_ancillas(layout, code, spec.scenario.reps());
  BuiltGadget built;
  FaultExperiment& ex = built.ex;
  ex.num_qubits = layout.total();
  ex.prep = circuit::Circuit(layout.total());
  code.append_encode_zero(ex.prep, data);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::RecoveryOptions ropt;
  ropt.rounds = spec.scenario.reps();
  ropt.measurement_free = measurement_free;
  ftqc::RecoveryRoundMarks marks;
  ftqc::append_recovery(ex.gadget, code, data, anc, ropt, &marks);
  const CssCode* c = &code;
  ex.failed = [data, c](circuit::TabBackend& b, const circuit::ExecResult&) {
    Rng rng(5);
    c->perfect_correct(b.tableau(), data, rng);
    return c->logical_z_expectation(b.tableau(), data) != 1.0;
  };
  ex.seed = spec.seed;
  built.main_block = data;
  built.code = c;
  // Probe between syndrome rounds / after correction layers only: the
  // recovery rounds are where codespace membership is the meaningful
  // invariant ("is the data block still a codeword between rounds?").
  built.probe_after =
      probe_ordinals_for_op_boundaries(ex.gadget, marks.op_boundaries);
  return built;
}

// Perfectly corrects each block and reads its logical Z and X (0 when the
// state does not determine one).
std::vector<double> corrected_readout(stab::Tableau& tab,
                                      const std::vector<CodeBlock>& blocks) {
  const CssCode& code = codes::steane_code();
  Rng rng(3);
  std::vector<double> readout;
  for (const auto& b : blocks) {
    code.perfect_correct(tab, b, rng);
    readout.push_back(code.logical_z_expectation(tab, b));
    readout.push_back(
        tab.expectation_pauli(code.logical_x_op(tab.num_qubits(), b)));
  }
  return readout;
}

// Runs `ex` once fault-free and makes it fail whenever the corrected
// readout of `outs` differs from that run's.  Perfect correction always
// lands a block in the codespace, so the readout is the whole check.
void judge_by_reference_readout(FaultExperiment& ex,
                                const std::vector<CodeBlock>& outs) {
  circuit::TabBackend ref(ex.num_qubits, Rng(ex.seed));
  circuit::execute(ex.prep, ref);
  circuit::execute(ex.gadget, ref);
  const std::vector<double> want = corrected_readout(ref.tableau(), outs);
  ex.failed = [outs, want](circuit::TabBackend& b,
                           const circuit::ExecResult&) {
    return corrected_readout(b.tableau(), outs) != want;
  };
}

}  // namespace

bool is_known_noise(const std::string& name) {
  return name == "paper" || name == "correlated" || name == "biased-z";
}

const codes::CssCode& scenario_code(const Scenario& s) {
  const codes::CssCode* code = codes::find_code(s.code);
  EQC_CHECK(code != nullptr && "unknown code name");
  return *code;
}

FaultModel scenario_fault_model(const Scenario& s) {
  EQC_EXPECTS(is_known_noise(s.noise));
  if (s.noise == "correlated") return FaultModel::FullDepolarizing;
  if (s.noise == "biased-z") return FaultModel::SingleQubitZ;
  return FaultModel::SingleQubit;
}

noise::NoiseModel scenario_noise_model(const Scenario& s, double p) {
  EQC_EXPECTS(is_known_noise(s.noise));
  if (s.noise == "correlated") return noise::NoiseModel::depolarizing(p);
  if (s.noise == "biased-z") return noise::NoiseModel::biased_z(p);
  return noise::NoiseModel::paper_model(p);
}

bool is_known_gadget(const std::string& name) {
  return name == "ngate" || name == "recovery" || name == "recovery-measured";
}

BuiltGadget build_gadget_experiment(const GadgetSpec& spec) {
  EQC_EXPECTS(is_known_gadget(spec.gadget));
  EQC_EXPECTS(spec.scenario.repetition_k >= 0);
  BuiltGadget built;
  if (spec.gadget == "ngate")
    built = build_ngate(spec);
  else if (spec.gadget == "recovery")
    built = build_recovery(spec, true);
  else
    built = build_recovery(spec, false);
  built.ex.model = scenario_fault_model(spec.scenario);
  built.ex.failed.set_frame_factory(word_frame_oracle_factory(built));
  return built;
}

FaultExperiment build_tgate_experiment(unsigned branch, int repetitions,
                                       std::uint64_t seed) {
  EQC_EXPECTS(branch < kTgateBranches);
  const CssCode& code = codes::steane_code();
  ftqc::Layout layout;
  const auto regs = ftqc::allocate_tgate_registers(layout, code, repetitions);
  FaultExperiment ex;
  ex.num_qubits = layout.total();
  ex.seed = seed;
  ex.prep = circuit::Circuit(layout.total());
  code.append_encode_zero(ex.prep, regs.data);
  if (branch & 1) code.append_logical_x(ex.prep, regs.data);
  code.append_encode_zero(ex.prep, regs.special);
  if (branch & 2) code.append_logical_x(ex.prep, regs.special);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::NGateOptions opt;
  opt.repetitions = repetitions;
  ftqc::append_ft_t_gadget(ex.gadget, code, regs, opt);
  judge_by_reference_readout(ex, {regs.data});
  return ex;
}

FaultExperiment build_toffoli_experiment(unsigned branch, int repetitions,
                                         std::uint64_t seed) {
  EQC_EXPECTS(branch < kToffoliBranches);
  const CssCode& code = codes::steane_code();
  ftqc::Layout layout;
  const auto regs =
      ftqc::allocate_coded_toffoli_registers(layout, code, repetitions);
  FaultExperiment ex;
  ex.num_qubits = layout.total();
  ex.seed = seed;
  ex.prep = circuit::Circuit(layout.total());
  for (const CodeBlock* b : {&regs.a, &regs.b, &regs.x})
    code.append_encode_zero(ex.prep, *b);
  if (branch & 1) code.append_logical_x(ex.prep, regs.x);
  code.append_encode_plus(ex.prep, regs.c);
  code.append_encode_zero(ex.prep, regs.y);
  if (branch & 2) code.append_logical_x(ex.prep, regs.y);
  code.append_encode_plus(ex.prep, regs.z);
  if (branch & 4) code.append_logical_z(ex.prep, regs.z);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::NGateOptions opt;
  opt.repetitions = repetitions;
  ftqc::append_coded_toffoli_gadget(ex.gadget, code, regs, opt);
  judge_by_reference_readout(ex, {regs.a, regs.b, regs.c});
  return ex;
}

}  // namespace eqc::analysis
