#ifndef KAMINO_CORE_PIPELINE_H_
#define KAMINO_CORE_PIPELINE_H_

// The Kamino pipeline (Algorithm 1) split into its two privacy-relevant
// halves:
//
//   FitPipeline    — lines 2-5: sequencing, DP parameter search, model
//                    training, DC weight learning. Everything that touches
//                    the private instance and spends privacy budget.
//   SamplePipeline — line 6: constraint-aware sampling. Pure
//                    post-processing on the fitted artifacts with zero
//                    additional privacy cost, so one fit amortizes over
//                    arbitrarily many sampling runs.
//
// `RunKamino` (core/kamino.h) is a thin composition of the two stages and
// stays bit-identical to the pre-split pipeline; the session engine
// (kamino/service/engine.h) wraps the same stages behind a
// fit-once/synthesize-many API with async jobs and streaming delivery.

#include <cstdint>
#include <random>
#include <vector>

#include "kamino/common/status.h"
#include "kamino/core/kamino.h"
#include "kamino/core/model.h"
#include "kamino/core/options.h"
#include "kamino/core/sampler.h"
#include "kamino/data/table.h"
#include "kamino/dc/constraint.h"

namespace kamino {

/// Everything `FitPipeline` produces. Immutable by convention: sampling
/// stages take it by const reference and copy the RNG snapshot, so any
/// number of `SamplePipeline` calls — concurrent ones included — see the
/// same artifacts. Self-contained: the model owns a copy of the training
/// schema, so the artifacts stay valid after the input table is released.
struct FitArtifacts {
  ProbabilisticDataModel model;
  /// The input constraints with learned (or hardness-implied) weights
  /// applied — the constraint set sampling runs against.
  std::vector<WeightedConstraint> weighted;
  /// The schema sequence S chosen by Algorithm 4 (or the random ablation).
  std::vector<size_t> sequence;
  /// Learned (or hardness-implied) weight per input constraint.
  std::vector<double> dc_weights;
  /// The DP parameter set Psi actually used.
  KaminoOptions resolved_options;
  /// Privacy cost of the fit under Theorem 1 (infinity if non-private).
  /// Sampling adds nothing to it.
  double epsilon_spent = 0.0;
  /// Rows of the fitted instance (the default synthesis size).
  size_t input_rows = 0;
  /// Wall clock of the fit phases (`sampling`/`shard_merge` stay zero).
  PhaseTimings fit_timings;
  /// State of the run RNG after the fit consumed its draws. A
  /// `SampleSpec` with `seed == 0` resumes from this snapshot, which is
  /// exactly the stream the monolithic `RunKamino` sampling phase drew
  /// from — the bit-identity bridge between the split and the original.
  std::mt19937_64 sampling_engine;
};

/// Lines 2-5 of Algorithm 1. Validates `config`, configures the parallel
/// runtime (`config.options.num_threads`), and spends the entire privacy
/// budget of the run. Fails on an empty instance or invalid config.
Result<FitArtifacts> FitPipeline(
    const Table& data, const std::vector<WeightedConstraint>& constraints,
    const KaminoConfig& config);

/// Line 6 of Algorithm 1: constraint-aware sampling from fitted
/// artifacts. Pure post-processing — no privacy cost, `fitted` is not
/// mutated, and identical (spec, fitted) pairs produce identical tables.
/// Resolves the spec's defaults against the fit — `num_rows` 0 to the
/// fitted row count, `seed` into the run RNG (0 resumes the fit
/// snapshot), `num_threads` into the global budget — and samples with
/// `fitted.resolved_options` as they are.
/// `hooks` (optional) adds cancellation, progress and streaming delivery;
/// `timings`/`telemetry` (optional) receive the sampling-phase numbers.
Result<Table> SamplePipeline(const FitArtifacts& fitted,
                             const SampleSpec& spec,
                             const SynthesisHooks* hooks = nullptr,
                             SynthesisTelemetry* telemetry = nullptr,
                             PhaseTimings* timings = nullptr);

}  // namespace kamino

#endif  // KAMINO_CORE_PIPELINE_H_
