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

/// One sampling run's parameters — the knobs a synthesis request may
/// override on top of the fitted options (the service's
/// `SynthesisRequest` extends this). The defaults reproduce the
/// monolithic `RunKamino` sampling phase for the fit's config.
struct SampleSpec {
  /// Synthetic rows to generate; 0 means "as many as the fitted instance".
  size_t num_rows = 0;
  /// Root seed of the sampling run. 0 (the default) resumes the fit's RNG
  /// snapshot — the `RunKamino`-identical stream; any other value seeds a
  /// fresh independent stream, making the output a pure function of
  /// (model, seed, resolved num_shards).
  uint64_t seed = 0;
  /// Shard override; kUnset keeps the fitted options' shard count. Part
  /// of the output contract (see `KaminoOptions::num_shards`).
  size_t num_shards = kUnset;
  /// Thread-budget override; kUnset keeps the process-wide budget as the
  /// fit configured it. Never changes the output, only wall clock. The
  /// budget is global: with overlapping runs the last starter wins for
  /// newly started parallel regions (outputs are unaffected by
  /// construction).
  size_t num_threads = kUnset;
  /// Deliver streamed `TableChunk`s as compressed per-column payloads
  /// (see `KaminoOptions::compress_chunks`). Never changes the rows,
  /// only their wire form.
  bool compress_chunks = false;
  /// Spill each frozen slice to disk and drop its in-memory columns (see
  /// `KaminoOptions::out_of_core`): bit-identical rows, bounded resident
  /// memory.
  bool out_of_core = false;

  static constexpr size_t kUnset = static_cast<size_t>(-1);
};

/// Line 6 of Algorithm 1: constraint-aware sampling from fitted
/// artifacts. Pure post-processing — no privacy cost, `fitted` is not
/// mutated, and identical (spec, fitted) pairs produce identical tables.
/// `hooks` (optional) adds cancellation, progress and streaming delivery;
/// `timings`/`telemetry` (optional) receive the sampling-phase numbers.
Result<Table> SamplePipeline(const FitArtifacts& fitted,
                             const SampleSpec& spec,
                             const SynthesisHooks* hooks = nullptr,
                             SynthesisTelemetry* telemetry = nullptr,
                             PhaseTimings* timings = nullptr);

}  // namespace kamino

#endif  // KAMINO_CORE_PIPELINE_H_
