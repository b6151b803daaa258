#include "analysis/campaign.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_set>

#include "analysis/frame_oracle.h"
#include "circuit/tab_backend.h"
#include "frame/frames.h"
#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eqc::analysis {

namespace {

using pauli::Pauli;
using pauli::PauliString;

const char* mode_name(CampaignMode mode) {
  return mode == CampaignMode::KFault ? "kfault" : "chaos";
}

// --- fault (de)serialization ------------------------------------------------

json::Value fault_to_json(const Fault& f) {
  json::Array err;
  for (const std::size_t q : f.error.support()) {
    json::Array entry;
    entry.emplace_back(q);
    entry.emplace_back(std::string(1, pauli::to_char(f.error.get(q))));
    err.emplace_back(std::move(entry));
  }
  json::Object obj;
  obj.emplace_back("ordinal", json::Value(f.ordinal));
  obj.emplace_back("error", json::Value(std::move(err)));
  return json::Value(std::move(obj));
}

Fault fault_from_json(const json::Value& v, std::size_t num_qubits) {
  Fault f;
  f.ordinal = static_cast<std::size_t>(v.at("ordinal").as_u64());
  f.error = PauliString(num_qubits);
  for (const auto& entry : v.at("error").as_array()) {
    const auto& pair = entry.as_array();
    EQC_EXPECTS(pair.size() == 2);
    const std::uint64_t q = pair[0].as_u64();
    EQC_EXPECTS(q < num_qubits);
    const std::string& label = pair[1].as_string();
    EQC_EXPECTS(label.size() == 1);
    switch (label[0]) {
      case 'X': f.error.set(q, Pauli::X); break;
      case 'Y': f.error.set(q, Pauli::Y); break;
      case 'Z': f.error.set(q, Pauli::Z); break;
      default: EQC_EXPECTS(false && "bad Pauli label in fault JSON");
    }
  }
  return f;
}

json::Value malignant_set_to_json(const MalignantSet& m) {
  json::Object obj;
  obj.emplace_back("index", json::Value(m.index));
  obj.emplace_back("minimal", json::Value(m.minimal));
  if (m.tripped) obj.emplace_back("trip_ordinal", json::Value(m.trip_ordinal));
  json::Array faults;
  for (const auto& f : m.faults) faults.push_back(fault_to_json(f));
  obj.emplace_back("faults", json::Value(std::move(faults)));
  return json::Value(std::move(obj));
}

MalignantSet malignant_set_from_json(const json::Value& v,
                                     std::size_t num_qubits) {
  MalignantSet m;
  m.index = v.at("index").as_u64();
  m.minimal = v.at("minimal").as_bool();
  if (const json::Value* trip = v.find("trip_ordinal")) {
    m.tripped = true;
    m.trip_ordinal = static_cast<std::size_t>(trip->as_u64());
  }
  for (const auto& f : v.at("faults").as_array())
    m.faults.push_back(fault_from_json(f, num_qubits));
  return m;
}

// --- campaign plumbing ------------------------------------------------------

struct ShardState {
  std::uint64_t cursor = 0;  ///< items of this shard's subsequence done
  FailureCounter counter;    ///< trials = sets tested, failures = malignant
  std::vector<MalignantSet> sets;
};

/// Precompiled frame engine for verdicts (engine == "frames").
struct FramePlan {
  frame::FrameProgram prog;
  frame::BatchOracle oracle;  ///< ex.frame_oracle(prog), or the generic one
  bool generic = false;       ///< the oracle replays a tableau per lane
};

/// Everything immutable during the sweep.
struct CampaignPlan {
  const FaultExperiment* ex = nullptr;
  const CampaignConfig* cfg = nullptr;
  SingleFaultIndex faults;  ///< the single-fault universe, decoded on demand
  /// The gadget's fault sites (for chaos sampling), shared with its plan.
  std::shared_ptr<const circuit::ExecPlan> gadget_plan{};
  std::span<const circuit::FaultSite> sites{};
  noise::FaultSampler chaos{noise::NoiseModel{}};  ///< cfg.chaos_model
  std::uint64_t total_items = 0;
  bool exhaustive = false;
  /// Pre-sampled combination ranks (budgeted KFault); empty otherwise.
  std::vector<std::uint64_t> sampled_ranks{};
  unsigned num_shards = 1;
  /// Non-null when the frames engine is active.
  std::shared_ptr<const FramePlan> frames{};
};

/// Campaign work counters (see CampaignConfig::engine).
struct CampaignCounters {
  obs::Counter& materialized =
      obs::counter("campaign.faults_materialized", obs::Det::Stable);
  obs::Counter& lanes =
      obs::counter("campaign.frame_lanes", obs::Det::Stable);
  obs::Counter& generic_lanes =
      obs::counter("campaign.generic_lanes", obs::Det::Stable);
  obs::Counter& fallbacks =
      obs::counter("campaign.frame_fallbacks", obs::Det::Stable);
  obs::Counter& batches =
      obs::counter("campaign.frame_batches", obs::Det::Runtime);
};

CampaignCounters& counters() {
  static CampaignCounters c;
  return c;
}

/// Full-width form of site-local faults, built only where a per-trial path
/// needs one (reported sets, fallback replays, the "trials" engine).
std::vector<Fault> materialize(const CampaignPlan& plan,
                               const std::vector<LocalFault>& faults) {
  counters().materialized.add(faults.size());
  std::vector<Fault> out;
  out.reserve(faults.size());
  for (const LocalFault& f : faults) out.push_back(plan.faults.materialize(f));
  return out;
}

/// One claimed stream position.  `tested` is false for skipped positions
/// (same-site collisions in the exhaustive rank space).
struct Item {
  std::uint64_t pos = 0;
  bool tested = false;
  bool malignant = false;
  std::vector<LocalFault> faults;

  /// An empty chaos configuration is a noiseless run: tested, never
  /// malignant, not simulated.
  bool needs_verdict() const { return tested && !faults.empty(); }
};

using LaneFault = frame::FrameBatch::LaneFault;

/// Appends `faults` as lane `lane`'s planted faults.
void plant_lane(const std::vector<LocalFault>& faults, std::uint32_t lane,
                std::vector<LaneFault>& out) {
  for (const LocalFault& f : faults)
    out.push_back(LaneFault{f.ordinal, lane, f.error});
}

/// Judges `count` planted lanes on the frames engine; bit l of the result
/// is lane l's verdict.  Throws FrameUnsupported when some lane deviates in
/// a way the frame model cannot absorb.
std::uint64_t frame_word(const FramePlan& fp, frame::FrameBatch& batch,
                         unsigned count, const std::vector<LaneFault>& faults) {
  CampaignCounters& c = counters();
  c.batches.add(1);
  batch.run_planted_sites(count, faults);
  const std::uint64_t word = fp.oracle(batch);
  c.lanes.add(count);
  if (fp.generic) c.generic_lanes.add(count);
  return word;
}

/// Frame-engine verdict for one fault set: a single planted lane, falling
/// back to the per-trial replay when the set drives a trial through a
/// branch deviation the frame model cannot absorb as a Pauli.
bool frame_verdict(const CampaignPlan& plan, frame::FrameBatch& batch,
                   const std::vector<LocalFault>& faults,
                   std::vector<LaneFault>& scratch) {
  try {
    scratch.clear();
    plant_lane(faults, 0, scratch);
    return (frame_word(*plan.frames, batch, 1, scratch) & 1) != 0;
  } catch (const frame::FrameUnsupported&) {
    counters().fallbacks.add(1);
    return run_with_faults(*plan.ex, materialize(plan, faults));
  }
}

/// Sets `malignant` on every item that needs a verdict.  On the frames
/// engine the items share one planted batch (lane i = i-th such item); a
/// batch that throws FrameUnsupported is re-judged item by item through
/// frame_verdict, the one fallback path.  Without frames each item replays
/// per-trial.
void judge_items(const CampaignPlan& plan, std::vector<Item>& items,
                 frame::FrameBatch* batch, std::vector<LaneFault>& lanes) {
  if (plan.frames == nullptr) {
    for (Item& item : items) {
      if (!item.needs_verdict()) continue;
      // A gadget the frame compiler rejected: the frames engine's items
      // all run per-trial.
      if (plan.cfg->engine == "frames") counters().fallbacks.add(1);
      item.malignant =
          run_with_faults(*plan.ex, materialize(plan, item.faults));
    }
    return;
  }
  lanes.clear();
  std::uint32_t count = 0;
  for (const Item& item : items)
    if (item.needs_verdict()) plant_lane(item.faults, count++, lanes);
  if (count == 0) return;
  obs::Span span("campaign.frame_batch");
  span.arg("lanes", count);
  try {
    const std::uint64_t word = frame_word(*plan.frames, *batch, count, lanes);
    unsigned l = 0;
    for (Item& item : items)
      if (item.needs_verdict()) item.malignant = ((word >> l++) & 1) != 0;
  } catch (const frame::FrameUnsupported&) {
    for (Item& item : items)
      if (item.needs_verdict())
        item.malignant = frame_verdict(plan, *batch, item.faults, lanes);
  }
}

bool distinct_ordinals(const std::vector<std::uint32_t>& combo,
                       const SingleFaultIndex& faults) {
  for (std::size_t a = 1; a < combo.size(); ++a)
    if (faults.ordinal(combo[a]) == faults.ordinal(combo[a - 1])) return false;
  // Faults at one site are contiguous in index order, so equal ordinals in
  // an ascending combination are always adjacent.
  return true;
}

/// Deterministically pre-samples `budget` distinct valid combination ranks
/// (pure function of the arguments; regenerated identically on resume).
std::vector<std::uint64_t> sample_distinct_ranks(
    std::uint64_t total_combos, std::uint64_t budget, std::uint64_t n,
    std::size_t k, std::uint64_t seed, const SingleFaultIndex& faults) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(budget));
  std::unordered_set<std::uint64_t> dedup;
  dedup.reserve(static_cast<std::size_t>(budget) * 2);
  const std::uint64_t max_attempts = 64 * budget + 1024;
  for (std::uint64_t attempt = 0;
       attempt < max_attempts && out.size() < budget; ++attempt) {
    const std::uint64_t r = rng.below(total_combos);
    if (!dedup.insert(r).second) continue;
    if (!distinct_ordinals(combination_unrank(r, n, k), faults)) continue;
    out.push_back(r);
  }
  return out;
}

/// The fault set at stream position `pos` (verdict not yet judged).
Item draw_item(const CampaignPlan& plan, std::uint64_t pos) {
  const CampaignConfig& cfg = *plan.cfg;
  Item out;
  out.pos = pos;

  if (cfg.mode == CampaignMode::KFault) {
    const std::uint64_t rank =
        plan.sampled_ranks.empty() ? pos : plan.sampled_ranks[pos];
    const auto combo =
        combination_unrank(rank, plan.faults.size(), cfg.k);
    if (!distinct_ordinals(combo, plan.faults)) return out;  // skip
    for (const std::uint32_t idx : combo)
      out.faults.push_back(plan.faults.local(idx));
  } else {
    // Chaos: every site fires independently under the noise model, from a
    // per-trial counter-split stream (common/rng.h) sampled sparsely.
    Rng item_rng(derive_stream_seed(cfg.sample_seed, pos));
    std::uint64_t draws = 0;
    plan.chaos.sample(plan.sites, item_rng, draws,
                      [&](std::size_t i, noise::SiteError e) {
                        out.faults.push_back(LocalFault{
                            static_cast<std::uint32_t>(plan.sites[i].ordinal),
                            e});
                      });
  }
  out.tested = true;
  return out;
}

// --- checkpointing ----------------------------------------------------------

const char* fault_model_name(FaultModel model) {
  switch (model) {
    case FaultModel::SingleQubit: return "single";
    case FaultModel::FullDepolarizing: return "depolarizing";
    case FaultModel::SingleQubitZ: return "single-z";
  }
  EQC_CHECK(false && "unknown FaultModel");
  return "";
}

json::Value fingerprint_json(const CampaignPlan& plan) {
  const CampaignConfig& cfg = *plan.cfg;
  json::Object fp;
  fp.emplace_back("mode", json::Value(mode_name(cfg.mode)));
  fp.emplace_back("k", json::Value(cfg.k));
  fp.emplace_back("budget", json::Value(cfg.budget));
  fp.emplace_back("sample_seed", json::Value(cfg.sample_seed));
  fp.emplace_back("experiment_seed", json::Value(plan.ex->seed));
  fp.emplace_back("fault_model",
                  json::Value(fault_model_name(plan.ex->model)));
  fp.emplace_back("num_qubits", json::Value(plan.ex->num_qubits));
  fp.emplace_back("num_sites", json::Value(plan.sites.size()));
  fp.emplace_back("single_faults", json::Value(plan.faults.size()));
  fp.emplace_back("total_items", json::Value(plan.total_items));
  fp.emplace_back("num_shards", json::Value(plan.num_shards));
  fp.emplace_back("chaos_p", json::Value(cfg.chaos_model.p));
  return json::Value(std::move(fp));
}

constexpr char kCheckpointKind[] = "eqc-campaign-checkpoint";
// 3: noise stream v2; 4: the fingerprint names the single-z fault model.
constexpr std::uint64_t kCheckpointSchemaVersion = 4;

std::string checkpoint_to_json(const CampaignPlan& plan,
                               const std::vector<ShardState>& shards) {
  json::Object doc;
  doc.emplace_back("kind", json::Value(kCheckpointKind));
  doc.emplace_back("schema_version", json::Value(kCheckpointSchemaVersion));
  doc.emplace_back("fingerprint", fingerprint_json(plan));
  json::Array shard_arr;
  for (const auto& st : shards) {
    json::Object s;
    s.emplace_back("cursor", json::Value(st.cursor));
    s.emplace_back("tested", json::Value(st.counter.trials));
    s.emplace_back("malignant", json::Value(st.counter.failures));
    s.emplace_back("stopped_early", json::Value(st.counter.stopped_early));
    shard_arr.emplace_back(std::move(s));
  }
  doc.emplace_back("shards", json::Value(std::move(shard_arr)));
  json::Array sets;
  std::vector<const MalignantSet*> all;
  for (const auto& st : shards)
    for (const auto& m : st.sets) all.push_back(&m);
  std::sort(all.begin(), all.end(),
            [](const MalignantSet* a, const MalignantSet* b) {
              return a->index < b->index;
            });
  for (const MalignantSet* m : all) sets.push_back(malignant_set_to_json(*m));
  doc.emplace_back("malignant_sets", json::Value(std::move(sets)));
  return json::Value(std::move(doc)).dump();
}

/// Restores shard states from a checkpoint.  Throws CheckpointCorrupt when
/// the document is truncated, unparseable or structurally damaged, and
/// ContractViolation on a fingerprint mismatch (a well-formed checkpoint
/// that belongs to a DIFFERENT campaign — operator error, not corruption).
std::vector<ShardState> load_checkpoint(const CampaignPlan& plan,
                                        const std::string& text) {
  const json::Value doc =
      parse_checkpoint_document(text, kCheckpointKind, kCheckpointSchemaVersion);
  std::string got;
  try {
    got = doc.at("fingerprint").dump();
  } catch (const json::JsonError& e) {
    throw CheckpointCorrupt(std::string("campaign checkpoint: ") + e.what());
  }
  const std::string want = fingerprint_json(plan).dump();
  if (want != got)
    throw ContractViolation(
        "campaign checkpoint fingerprint mismatch:\n  checkpoint " + got +
        "\n  campaign   " + want);

  try {
    std::vector<ShardState> shards(plan.num_shards);
    const auto& shard_arr = doc.at("shards").as_array();
    if (shard_arr.size() != plan.num_shards)
      throw CheckpointCorrupt("campaign checkpoint: shard count " +
                              std::to_string(shard_arr.size()) +
                              " != " + std::to_string(plan.num_shards));
    for (std::size_t s = 0; s < shards.size(); ++s) {
      shards[s].cursor = shard_arr[s].at("cursor").as_u64();
      shards[s].counter.trials = shard_arr[s].at("tested").as_u64();
      shards[s].counter.failures = shard_arr[s].at("malignant").as_u64();
      if (const json::Value* se = shard_arr[s].find("stopped_early"))
        shards[s].counter.stopped_early = se->as_bool();
    }
    for (const auto& m : doc.at("malignant_sets").as_array()) {
      MalignantSet set = malignant_set_from_json(m, plan.ex->num_qubits);
      shards[set.index % plan.num_shards].sets.push_back(std::move(set));
    }
    return shards;
  } catch (const json::JsonError& e) {
    // The envelope and fingerprint matched but the payload does not fit the
    // schema: damaged, not foreign.
    throw CheckpointCorrupt(std::string("campaign checkpoint: ") + e.what());
  } catch (const ContractViolation& e) {
    throw CheckpointCorrupt(std::string("campaign checkpoint: ") + e.what());
  }
}

}  // namespace

// --- combinatorics ----------------------------------------------------------

std::uint64_t binomial_or_max(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t factor = n - k + i;
    if (result > UINT64_MAX / factor) return UINT64_MAX;
    result = result * factor / i;  // exact: running value is C(n-k+i, i)
  }
  return result;
}

std::uint64_t valid_fault_set_count(
    const std::vector<std::uint64_t>& site_multiplicities, std::size_t k) {
  auto add = [](std::uint64_t a, std::uint64_t b) {
    return a > UINT64_MAX - b ? UINT64_MAX : a + b;
  };
  auto mul = [](std::uint64_t a, std::uint64_t b) {
    return b != 0 && a > UINT64_MAX / b ? UINT64_MAX : a * b;
  };
  // e[j] = e_j over the sites folded in so far; high j first so each site
  // contributes at most one fault to a set.
  std::vector<std::uint64_t> e(k + 1, 0);
  e[0] = 1;
  for (const std::uint64_t m : site_multiplicities)
    for (std::size_t j = k; j >= 1; --j) e[j] = add(e[j], mul(e[j - 1], m));
  return e[k];
}

std::vector<std::uint32_t> combination_unrank(std::uint64_t rank,
                                              std::uint64_t n,
                                              std::size_t k) {
  EQC_EXPECTS(k >= 1 && k <= n);
  EQC_EXPECTS(rank < binomial_or_max(n, k));
  std::vector<std::uint32_t> out(k);
  std::uint64_t r = rank;
  std::uint64_t bound = n;  // exclusive upper bound for the next element
  for (std::size_t i = k; i >= 1; --i) {
    // Largest c < bound with C(c, i) <= r, by binary search on the
    // monotone c -> C(c, i) (exists: C(i-1, i) = 0 <= r).
    std::uint64_t lo = i - 1;
    std::uint64_t hi = bound - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (binomial_or_max(mid, i) <= r)
        lo = mid;
      else
        hi = mid - 1;
    }
    const std::uint64_t c = lo;
    out[i - 1] = static_cast<std::uint32_t>(c);
    r -= binomial_or_max(c, i);
    bound = c;
  }
  return out;
}

// --- report math ------------------------------------------------------------

double CampaignReport::p_k_coefficient() const {
  if (mode != CampaignMode::KFault) return 0.0;
  // P(exactly k sites err) ~ C(L, k) p^k; conditioned on k errors the
  // Pauli at each site is uniform, so the failure probability given k
  // errors is the malignant fraction over uniformly drawn k-sets.
  double combos = 1.0;
  const double l = static_cast<double>(num_sites);
  for (std::size_t i = 0; i < k; ++i)
    combos *= (l - static_cast<double>(i)) / static_cast<double>(i + 1);
  return combos * malignant_fraction();
}

double CampaignReport::pseudo_threshold() const {
  if (k < 2) return 1.0;
  const double a = p_k_coefficient();
  if (a <= 0.0) return 1.0;
  return std::pow(a, -1.0 / (static_cast<double>(k) - 1.0));
}

json::Value CampaignReport::to_json_value() const {
  json::Object doc;
  doc.emplace_back("version", json::Value(1));
  doc.emplace_back("engine", json::Value("eqc-campaign"));
  doc.emplace_back("mode", json::Value(mode_name(mode)));
  doc.emplace_back("k", json::Value(k));
  doc.emplace_back("num_qubits", json::Value(num_qubits));
  doc.emplace_back("num_sites", json::Value(num_sites));
  doc.emplace_back("single_faults", json::Value(single_faults));
  doc.emplace_back("experiment_seed", json::Value(experiment_seed));
  doc.emplace_back("sample_seed", json::Value(sample_seed));
  doc.emplace_back("total_items", json::Value(total_items));
  doc.emplace_back("sets_tested", json::Value(sets_tested));
  doc.emplace_back("malignant", json::Value(malignant));
  doc.emplace_back("exhaustive", json::Value(exhaustive));
  doc.emplace_back("complete", json::Value(complete));
  doc.emplace_back("stopped_early", json::Value(stopped_early));
  doc.emplace_back("malignant_fraction", json::Value(malignant_fraction()));
  const auto iv = malignant_interval();
  doc.emplace_back("wilson_low", json::Value(iv.low));
  doc.emplace_back("wilson_high", json::Value(iv.high));
  if (mode == CampaignMode::KFault) {
    doc.emplace_back("p_k_coefficient", json::Value(p_k_coefficient()));
    doc.emplace_back("pseudo_threshold", json::Value(pseudo_threshold()));
  } else {
    doc.emplace_back("chaos_p", json::Value(chaos_p));
    doc.emplace_back("noise_stream", json::Value(noise::kNoiseStreamVersion));
  }
  json::Array sets;
  for (const auto& m : malignant_sets) sets.push_back(malignant_set_to_json(m));
  doc.emplace_back("malignant_sets", json::Value(std::move(sets)));
  return json::Value(std::move(doc));
}

// --- shrinking --------------------------------------------------------------

std::vector<Fault> shrink_fault_set(const FaultExperiment& ex,
                                    std::vector<Fault> faults) {
  // ddmin specialized to single-element deltas: repeatedly drop any one
  // fault whose removal keeps the set failing, until no removal does.
  // Every run is deterministic, so the fixed point is 1-minimal.
  bool changed = true;
  while (changed && !faults.empty()) {
    changed = false;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      std::vector<Fault> candidate;
      candidate.reserve(faults.size() - 1);
      for (std::size_t j = 0; j < faults.size(); ++j)
        if (j != i) candidate.push_back(faults[j]);
      if (!candidate.empty() && run_with_faults(ex, candidate)) {
        faults = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return faults;
}

// --- tripwires --------------------------------------------------------------

ProbeInjector::ProbeInjector(circuit::FaultInjector* inner,
                             std::function<bool(circuit::Backend&)> violated,
                             std::vector<std::size_t> probe_after)
    : inner_(inner),
      violated_(std::move(violated)),
      probe_after_(std::move(probe_after)) {
  EQC_EXPECTS(std::is_sorted(probe_after_.begin(), probe_after_.end()));
}

void ProbeInjector::visit(const circuit::FaultSite& site,
                          circuit::Backend& backend) {
  if (inner_ != nullptr) inner_->visit(site, backend);
  if (tripped_ || !violated_) return;
  if (!probe_after_.empty() &&
      !std::binary_search(probe_after_.begin(), probe_after_.end(),
                          site.ordinal))
    return;
  if (violated_(backend)) {
    tripped_ = true;
    trip_ordinal_ = site.ordinal;
  }
}

ProbeResult run_with_faults_probed(const FaultExperiment& ex,
                                   const std::vector<Fault>& faults,
                                   const TripwireOptions& tripwire) {
  EQC_EXPECTS(ex.failed != nullptr);
  EQC_EXPECTS(tripwire.enabled());
  circuit::TabBackend backend(ex.num_qubits, Rng(ex.seed));
  circuit::execute(ex.prep, backend);
  circuit::PlantedInjector planted;
  for (const auto& f : faults) planted.plant(f.ordinal, f.error);
  ProbeInjector probe(
      &planted,
      [&tripwire](circuit::Backend& b) {
        return tripwire.violated(static_cast<circuit::TabBackend&>(b));
      },
      tripwire.probe_after);
  const auto result = circuit::execute(ex.gadget, backend, &probe);
  EQC_ENSURES(planted.all_planted_visited());
  ProbeResult out;
  out.failed = ex.failed(backend, result);
  out.tripped = probe.tripped();
  out.trip_ordinal = probe.trip_ordinal();
  return out;
}

std::vector<std::size_t> probe_ordinals_for_op_boundaries(
    const circuit::Circuit& gadget,
    const std::vector<std::size_t>& op_boundaries) {
  const auto sites = gadget.plan().fault_sites();
  std::vector<std::size_t> out;
  for (const std::size_t boundary : op_boundaries) {
    if (boundary == 0) continue;
    const std::size_t target_op = boundary - 1;
    for (const auto& site : sites) {
      if (site.op_index == target_op) {
        out.push_back(site.ordinal);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// Injector that evaluates an invariant after every site and records the
/// ordinals where it held.  Injects no faults.
class CalibrationInjector final : public circuit::FaultInjector {
 public:
  explicit CalibrationInjector(
      const std::function<bool(circuit::TabBackend&)>& violated)
      : violated_(violated) {}

  void visit(const circuit::FaultSite& site,
             circuit::Backend& backend) override {
    if (!violated_(static_cast<circuit::TabBackend&>(backend)))
      held_.push_back(site.ordinal);
  }

  std::vector<std::size_t> take_held() { return std::move(held_); }

 private:
  const std::function<bool(circuit::TabBackend&)>& violated_;
  std::vector<std::size_t> held_;
};

}  // namespace

std::vector<std::size_t> calibrate_probe_sites(
    const FaultExperiment& ex,
    const std::function<bool(circuit::TabBackend&)>& violated) {
  EQC_EXPECTS(static_cast<bool>(violated));
  circuit::TabBackend backend(ex.num_qubits, Rng(ex.seed));
  circuit::execute(ex.prep, backend);
  CalibrationInjector calibrate(violated);
  circuit::execute(ex.gadget, backend, &calibrate);
  auto held = calibrate.take_held();
  std::sort(held.begin(), held.end());
  held.erase(std::unique(held.begin(), held.end()), held.end());
  return held;
}

// --- replay artifacts -------------------------------------------------------

std::vector<std::vector<Fault>> parse_fault_sets(const std::string& json_text,
                                                 std::size_t num_qubits) {
  const json::Value doc = json::Value::parse(json_text);
  std::vector<std::vector<Fault>> out;
  for (const auto& m : doc.at("malignant_sets").as_array())
    out.push_back(malignant_set_from_json(m, num_qubits).faults);
  return out;
}

// --- the campaign driver ----------------------------------------------------

CampaignReport run_campaign(const FaultExperiment& ex,
                            const CampaignConfig& cfg) {
  EQC_EXPECTS(ex.failed != nullptr);
  EQC_EXPECTS(cfg.num_shards >= 1);
  EQC_EXPECTS(cfg.mode != CampaignMode::Chaos || cfg.budget > 0);
  EQC_EXPECTS(cfg.engine == "trials" || cfg.engine == "frames");

  CampaignPlan plan{.ex = &ex, .cfg = &cfg, .faults = SingleFaultIndex(ex)};
  plan.gadget_plan = ex.gadget.shared_plan();
  plan.sites = plan.gadget_plan->fault_sites();
  plan.chaos = noise::FaultSampler(cfg.chaos_model);
  plan.num_shards = cfg.num_shards;
  if (cfg.engine == "frames") {
    try {
      auto fp = std::make_shared<FramePlan>(
          FramePlan{make_frame_program(ex), frame::BatchOracle{}});
      const auto& factory = ex.failed.frame_factory();
      fp->oracle = factory ? factory(fp->prog)
                           : make_generic_frame_oracle(ex, fp->prog);
      fp->generic = is_generic_frame_oracle(fp->oracle);
      plan.frames = std::move(fp);
    } catch (const ContractViolation&) {
      // Non-Clifford or otherwise non-compilable gadget: degrade to the
      // per-trial engine (identical verdicts, just slower).
    } catch (const frame::FrameUnsupported&) {
    }
  }

  if (cfg.mode == CampaignMode::KFault) {
    EQC_EXPECTS(cfg.k >= 1 && cfg.k <= plan.faults.size());
    const std::uint64_t total_combos =
        binomial_or_max(plan.faults.size(), cfg.k);
    const std::uint64_t valid_sets =
        valid_fault_set_count(plan.faults.site_multiplicities(), cfg.k);
    if (cfg.budget == 0 || valid_sets <= cfg.budget) {
      // A fully exhaustive sweep must have an enumerable universe.
      EQC_EXPECTS(total_combos != UINT64_MAX);
      plan.exhaustive = true;
      plan.total_items = total_combos;
    } else {
      plan.sampled_ranks = sample_distinct_ranks(
          total_combos, cfg.budget, plan.faults.size(), cfg.k,
          cfg.sample_seed, plan.faults);
      plan.total_items = plan.sampled_ranks.size();
    }
  } else {
    plan.total_items = cfg.budget;
  }

  // --- restore or initialize shard states. ---------------------------------
  std::vector<ShardState> shards;
  if (cfg.resume && !cfg.checkpoint_path.empty()) {
    std::string text;
    if (read_file(cfg.checkpoint_path, text)) {
      try {
        shards = load_checkpoint(plan, text);
      } catch (const CheckpointCorrupt&) {
        // A damaged checkpoint is recoverable when the caller says so:
        // determinism guarantees a fresh start reaches the same final
        // report, so quarantine the evidence and recount.
        if (!cfg.fresh_on_corrupt) throw;
        quarantine_corrupt_file(cfg.checkpoint_path);
      }
    }
  }
  if (shards.empty()) shards.assign(plan.num_shards, ShardState{});

  // --- the sweep. -----------------------------------------------------------
  // Per-stratum counters ("campaign.k2.sets_tested", "campaign.chaos.trials",
  // ...) so a sweep that mixes strata shows where the budget goes.  Totals of
  // a completed run are jobs-invariant, hence Det::Stable.
  const std::string stratum =
      cfg.mode == CampaignMode::KFault ? "k" + std::to_string(cfg.k) : "chaos";
  obs::Counter& c_tested = obs::counter(
      "campaign." + stratum +
          (cfg.mode == CampaignMode::KFault ? ".sets_tested" : ".trials"),
      obs::Det::Stable);
  obs::Counter& c_malignant =
      obs::counter("campaign." + stratum + ".malignant", obs::Det::Stable);
  obs::Counter& c_shrunk =
      obs::counter("campaign.shrunk_sets", obs::Det::Stable);
  obs::Span run_span("campaign.run");
  run_span.arg("total_items", plan.total_items);

  std::mutex mu;                       // shard states + checkpoint cadence
  std::uint64_t items_done = 0;        // stream positions consumed (all shards)
  for (const auto& st : shards) items_done += st.cursor;
  CheckpointCadence cadence(cfg.checkpoint_every,
                            cfg.checkpoint_min_interval_sec);
  std::atomic<std::uint64_t> claimed{0};
  std::atomic<bool> halt{false};  // budget exhausted or stop requested

  auto checkpoint_locked = [&] {
    if (!cfg.checkpoint_path.empty())
      write_file_atomically(cfg.checkpoint_path,
                            checkpoint_to_json(plan, shards));
  };
  auto progress_locked = [&] {
    if (!cfg.on_progress) return;
    CampaignProgress p;
    p.items_done = items_done;
    p.total_items = plan.total_items;
    for (const auto& st : shards) {
      p.sets_tested += st.counter.trials;
      p.malignant += st.counter.failures;
    }
    cfg.on_progress(p);
  };

  // Shard s owns stream positions s, s + S, s + 2S, ... (S = shards); the
  // shared pool (common/parallel.h) hands each shard to exactly one worker,
  // which drains it in position order, up to one 64-lane batch at a time on
  // the frames engine (one item at a time per-trial).
  const unsigned batch_cap =
      plan.frames != nullptr ? frame::FrameBatch::kLanes : 1;
  auto process_shard = [&](unsigned s) {
    ShardState& st = shards[s];
    std::optional<frame::FrameBatch> batch;  // reused by every batch
    if (plan.frames != nullptr) batch.emplace(plan.frames->prog);
    std::vector<Item> items;
    std::vector<LaneFault> lanes;
    for (;;) {
      if (halt.load()) return;
      if (cfg.stop != nullptr && cfg.stop->load(std::memory_order_relaxed)) {
        halt.store(true);
        return;
      }
      // Claim the next positions one at a time, so the per-run item budget
      // is exact whatever the batch size.
      items.clear();
      for (unsigned i = 0; i < batch_cap; ++i) {
        const std::uint64_t pos =
            s + (st.cursor + i) * static_cast<std::uint64_t>(plan.num_shards);
        if (pos >= plan.total_items) break;
        if (cfg.max_items_this_run != 0 &&
            claimed.fetch_add(1) >= cfg.max_items_this_run) {
          halt.store(true);
          break;
        }
        items.push_back(draw_item(plan, pos));
      }
      if (items.empty()) return;
      judge_items(plan, items, batch ? &*batch : nullptr, lanes);

      // Fold in position order, exactly as if judged one by one.
      for (Item& item : items) {
        MalignantSet found;
        if (item.malignant) {
          found.index = item.pos;
          found.faults = materialize(plan, item.faults);
          if (cfg.shrink) {
            obs::Span shrink_span("campaign.shrink");
            shrink_span.arg("index", item.pos)
                .arg("size", found.faults.size());
            found.faults = shrink_fault_set(ex, std::move(found.faults));
            shrink_span.arg("minimal_size", found.faults.size());
            found.minimal = true;
            c_shrunk.add(1);
          }
          if (cfg.tripwire.enabled()) {
            const auto probed =
                run_with_faults_probed(ex, found.faults, cfg.tripwire);
            found.tripped = probed.tripped;
            found.trip_ordinal = probed.trip_ordinal;
          }
        }

        if (item.tested) c_tested.add(1);
        if (item.malignant) c_malignant.add(1);

        std::lock_guard<std::mutex> lock(mu);
        ++st.cursor;
        ++items_done;
        if (item.tested) st.counter.add(item.malignant);
        if (item.malignant) st.sets.push_back(std::move(found));
        if (cadence.item_done()) {
          checkpoint_locked();
          cadence.wrote();
          progress_locked();
        }
      }
    }
  };

  parallel::for_each_shard(plan.num_shards, cfg.jobs, process_shard);

  {
    std::lock_guard<std::mutex> lock(mu);
    checkpoint_locked();  // never lose a clean (or cancelled) stop's progress
    progress_locked();
  }

  // --- merge (deterministic: counters are sums, sets sort by position). ----
  CampaignReport report;
  report.mode = cfg.mode;
  report.k = cfg.mode == CampaignMode::KFault ? cfg.k : 0;
  report.num_qubits = ex.num_qubits;
  report.num_sites = plan.sites.size();
  report.single_faults = plan.faults.size();
  report.total_items = plan.total_items;
  report.experiment_seed = ex.seed;
  report.sample_seed = cfg.sample_seed;
  report.chaos_p = cfg.chaos_model.p;

  FailureCounter merged;
  bool complete = true;
  for (unsigned s = 0; s < plan.num_shards; ++s) {
    merged.merge(shards[s].counter);
    const std::uint64_t pos =
        s + shards[s].cursor * static_cast<std::uint64_t>(plan.num_shards);
    if (pos < plan.total_items) complete = false;
    for (auto& m : shards[s].sets)
      report.malignant_sets.push_back(std::move(m));
  }
  std::sort(report.malignant_sets.begin(), report.malignant_sets.end(),
            [](const MalignantSet& a, const MalignantSet& b) {
              return a.index < b.index;
            });
  report.sets_tested = merged.trials;
  report.malignant = merged.failures;
  report.stopped_early = merged.stopped_early;
  report.complete = complete;
  report.exhaustive = plan.exhaustive && complete;
  return report;
}

}  // namespace eqc::analysis
