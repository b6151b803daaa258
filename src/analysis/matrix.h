// Scenario-sweep matrix driver: a gadget x (code, repetition k, noise) grid
// run through the existing campaign / Monte-Carlo engines, producing a
// threshold-surface report (per-cell failure counters, Wilson intervals,
// pseudo-threshold estimates).
//
// The matrix inherits every robustness property of the underlying engines:
// per-cell seeds are derived deterministically from the sweep seed and the
// cell's coordinates, each cell checkpoints independently (a killed sweep
// resumes cell-by-cell without recounting), the stop token is honored at
// cell granularity mid-cell via the engines' own tokens, and the report
// JSON is byte-identical for any --jobs value.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "common/json.h"
#include "common/stats.h"

namespace eqc::analysis {

enum class MatrixMode {
  Campaign,    ///< k-fault counting per cell (threshold-surface estimates)
  MonteCarlo,  ///< stochastic trials per cell at a fixed physical p
};

struct MatrixProgress {
  std::size_t cells_done = 0;
  std::size_t total_cells = 0;
  /// Name of the cell currently running ("" between cells).
  std::string current_cell;
};

struct MatrixConfig {
  MatrixMode mode = MatrixMode::Campaign;
  /// Grid axes.  The sweep is the full cross product, in the declared
  /// order (gadget-major, noise-minor), which fixes cell indices and
  /// therefore per-cell seeds.
  std::vector<std::string> gadgets = {"ngate", "recovery"};
  std::vector<std::string> codes = {"steane", "rm15"};
  std::vector<int> ks = {1, 2};
  std::vector<std::string> noises = {"paper", "correlated"};

  // Campaign-mode knobs.
  std::size_t fault_k = 2;       ///< fault-set size per cell
  std::uint64_t budget = 2000;   ///< fault sets tested per cell
  bool shrink = false;           ///< delta-debug malignant sets (slower)

  // Monte-Carlo-mode knobs (cells run on the frame engine via run_mc).
  double mc_p = 1e-3;            ///< physical error rate
  std::uint64_t mc_trials = 2000;

  unsigned jobs = 1;             ///< worker budget handed to each cell
  std::uint64_t seed = 1;        ///< sweep seed (per-cell seeds derive)
  /// Per-cell checkpoint path prefix: cell checkpoints land at
  /// "<prefix><cell-name>.ckpt" (pass "dir/" for a directory, or any file
  /// stem for flat sibling files).  Empty disables checkpointing (and
  /// therefore resume).
  std::string checkpoint_prefix;
  std::uint64_t checkpoint_every = 256;
  const std::atomic<bool>* stop = nullptr;
  std::function<void(const MatrixProgress&)> on_progress;
};

/// One grid cell's result.  Campaign mode fills the campaign fields; MC
/// mode fills `counter`.  Either way `failures`/`trials` and the Wilson
/// interval are populated so downstream consumers read one schema.
struct MatrixCell {
  std::string gadget;
  Scenario scenario;
  bool complete = false;     ///< the cell's engine drained its item stream

  std::uint64_t trials = 0;    ///< sets tested / MC trials
  std::uint64_t failures = 0;  ///< malignant sets / failed trials
  BinomialInterval interval;   ///< Wilson 95% on failures/trials

  // Campaign-mode extras (zero in MC mode).
  std::size_t num_sites = 0;
  std::size_t single_faults = 0;
  bool exhaustive = false;
  double p_k_coefficient = 0.0;
  double pseudo_threshold = 1.0;

  /// Stable cell name: "<gadget>_<code>_k<K>_<noise>" (checkpoint file
  /// stem and the JSON "cell" field).
  std::string name() const;
};

struct MatrixReport {
  MatrixMode mode = MatrixMode::Campaign;
  std::size_t fault_k = 0;
  std::uint64_t budget = 0;
  double mc_p = 0.0;
  std::uint64_t seed = 0;
  bool complete = false;  ///< every cell ran to completion
  std::vector<MatrixCell> cells;

  /// Canonical JSON: deterministic, no timing/host information.
  json::Value to_json_value() const;
  std::string to_json() const { return to_json_value().dump(); }
};

/// Deterministic per-cell seed: a splitmix64 mix of the sweep seed and the
/// cell's grid index (exposed so tests can pin the derivation).
std::uint64_t matrix_cell_seed(std::uint64_t sweep_seed,
                               std::size_t cell_index);

/// Runs (or resumes) the sweep.  Cells run sequentially in grid order;
/// each cell's engine parallelizes internally with `cfg.jobs`.  When the
/// stop token fires the current cell checkpoints and the report returns
/// with complete = false (finished cells keep their results).  Throws
/// ContractViolation on an unknown gadget/code/noise name or an empty axis.
MatrixReport run_matrix(const MatrixConfig& cfg);

}  // namespace eqc::analysis
