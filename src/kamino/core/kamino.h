#ifndef KAMINO_CORE_KAMINO_H_
#define KAMINO_CORE_KAMINO_H_

#include <string>
#include <vector>

#include "kamino/common/status.h"
#include "kamino/core/options.h"
#include "kamino/core/sampler.h"
#include "kamino/data/table.h"
#include "kamino/dc/constraint.h"

namespace kamino {

/// Wall-clock seconds spent in each phase of a run (Figure 7's profile).
struct PhaseTimings {
  double sequencing = 0.0;
  double parameter_search = 0.0;
  double training = 0.0;
  double violation_matrix = 0.0;  ///< violation matrix + weight learning
  double sampling = 0.0;
  /// Seconds of shard reconciliation, summed over the per-shard freezes.
  /// A sub-phase of `sampling` (already counted there), surfaced
  /// separately so the merge overhead of shard-parallel synthesis is
  /// visible; a one-shard run counts its one freeze here.
  double shard_merge = 0.0;
  /// Thread budget the phases above ran with (resolved; >= 1). Compare
  /// the same phase across runs at different budgets for the realized
  /// per-phase speedup (bench_parallel_scaling automates this).
  size_t num_threads = 1;
  /// Shards the sampling phase was partitioned into (resolved; >= 1).
  size_t num_shards = 1;

  double Total() const {
    // shard_merge is inside sampling; do not double-count it.
    return sequencing + parameter_search + training + violation_matrix +
           sampling;
  }
};

/// Everything a Kamino run produces.
struct KaminoResult {
  Table synthetic;
  /// The schema sequence S chosen by Algorithm 4 (or the random ablation).
  std::vector<size_t> sequence;
  /// Learned (or hardness-implied) weight per input constraint.
  std::vector<double> dc_weights;
  /// The DP parameter set Psi actually used.
  KaminoOptions resolved_options;
  /// Privacy cost of the run under Theorem 1 (infinity if non-private).
  double epsilon_spent = 0.0;
  PhaseTimings timings;
  SynthesisTelemetry telemetry;
};

/// Kamino: constraint-aware differentially private data synthesis
/// (Algorithm 1).
///
/// Typical use:
///   KaminoConfig config;
///   config.epsilon = 1.0;
///   config.delta = 1e-6;
///   auto result = RunKamino(true_table, constraints, config);
///   if (result.ok()) { /* use result.value().synthetic */ }
struct KaminoConfig {
  /// Total privacy budget (epsilon, delta). Ignored when
  /// `options.non_private` is set.
  double epsilon = 1.0;
  double delta = 1e-6;
  /// Learn weights for non-hard constraints with Algorithm 5. When false,
  /// the weights provided on the constraints are used as-is.
  bool learn_weights = true;
  /// Number of synthetic rows; 0 means "same as the input instance".
  size_t output_rows = 0;
  /// Base hyper-parameters; the DP subset is overridden by the parameter
  /// search unless `options.non_private` is set.
  KaminoOptions options;

  /// Rejects nonsensical configurations — a non-positive privacy budget
  /// on a private run, `delta` outside (0, 1), or any `options` knob that
  /// fails `KaminoOptions::Validate()` — with InvalidArgument instead of
  /// silently misbehaving. `RunKamino` and `KaminoEngine::Fit` check this
  /// on entry.
  Status Validate() const;
};

/// Runs the full pipeline: sequencing (Algorithm 4), parameter search
/// (Algorithm 6), model training (Algorithm 2), weight learning
/// (Algorithm 5, when requested and soft DCs are present) and
/// constraint-aware sampling (Algorithm 3).
///
/// A thin composition of the two pipeline stages (core/pipeline.h):
/// `FitPipeline` + `SamplePipeline` with the default `SampleSpec`,
/// bit-identical to the pre-split monolithic implementation. Callers that
/// synthesize more than one instance from the same data should use the
/// session API (`kamino/service/engine.h`) instead — sampling is pure
/// post-processing, so a single fit's privacy budget amortizes over every
/// additional synthesis request.
///
/// `options.num_threads` configures the process-wide parallel runtime
/// (kamino/runtime/). Concurrent RunKamino calls are safe — an in-flight
/// run keeps a reference to the pool it started on even if another run
/// resizes the budget — but the budget itself is global: the last caller
/// to set it wins for subsequently started parallel regions. This
/// contract is exercised for real by the overlapping-jobs test in
/// tests/service/engine_test.cc: two concurrent jobs at different
/// budgets must both reproduce their single-run outputs bit for bit.
///
/// `options.num_shards` partitions the sampling phase into shard-parallel
/// slices (see core/sampler.h). The synthetic instance is a pure function
/// of (options.seed, resolved num_shards); at a fixed shard count
/// `num_threads` only changes wall clock (num_shards = 0 derives the
/// shard count from the thread budget, so there the resolved worker count
/// picks the output contract).
Result<KaminoResult> RunKamino(const Table& data,
                               const std::vector<WeightedConstraint>& constraints,
                               const KaminoConfig& config);

}  // namespace kamino

#endif  // KAMINO_CORE_KAMINO_H_
