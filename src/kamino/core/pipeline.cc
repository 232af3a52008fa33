#include "kamino/core/pipeline.h"

#include <limits>
#include <utility>

#include "kamino/core/params.h"
#include "kamino/core/sequencing.h"
#include "kamino/core/weights.h"
#include "kamino/obs/metrics.h"
#include "kamino/obs/trace.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

/// Applies the run's observability knobs to the process-wide recorder and
/// registry. Monotone: a run asking for tracing/metrics turns them on;
/// runs that don't leave the global state alone, so concurrent traced and
/// untraced jobs compose (last-enabler semantics, like `num_threads`).
void ApplyObservabilityOptions(const KaminoOptions& options) {
  if (options.enable_tracing) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.SetCapacity(options.trace_capacity_events);
    recorder.SetEnabled(true);
  }
  if (options.enable_metrics) {
    obs::MetricsRegistry::Global().SetEnabled(true);
  }
}

}  // namespace

Result<FitArtifacts> FitPipeline(
    const Table& data, const std::vector<WeightedConstraint>& constraints,
    const KaminoConfig& config) {
  KAMINO_RETURN_IF_ERROR(config.Validate());
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("input instance is empty");
  }
  // Configure the parallel runtime for this run. Output is bit-identical
  // at any budget (parallel regions key randomness by task index and
  // reduce in fixed order), so the knob trades wall clock only.
  runtime::SetGlobalNumThreads(config.options.num_threads);
  ApplyObservabilityOptions(config.options);

  Rng rng(config.options.seed);
  FitArtifacts fitted;
  fitted.input_rows = data.num_rows();
  fitted.fit_timings.num_threads = runtime::GlobalNumThreads();

  // The span tree is the stopwatch: each stage's PhaseTimings entry is
  // the measured duration of its span (Finish() returns it whether or not
  // trace recording is enabled).
  obs::TraceSpan fit_span("fit");
  fit_span.AddArg("rows", static_cast<int64_t>(data.num_rows()));
  fit_span.AddArg("constraints", static_cast<int64_t>(constraints.size()));

  // Line 2: schema sequencing (Algorithm 4) - no privacy cost.
  {
    obs::TraceSpan span("fit/sequencing");
    fitted.sequence = config.options.random_sequence
                          ? RandomSequence(data.schema(), &rng)
                          : SequenceSchema(data.schema(), constraints);
    fitted.fit_timings.sequencing = span.Finish();
  }

  // Decide whether weight learning will run: only when requested and some
  // constraint is soft.
  bool learn_weights = false;
  if (config.learn_weights) {
    for (const WeightedConstraint& wc : constraints) {
      if (!wc.hard) learn_weights = true;
    }
  }

  // Line 3: parameter search (Algorithm 6) - no privacy cost (schema and
  // domain are public).
  KaminoOptions options = config.options;
  {
    obs::TraceSpan span("fit/parameter_search");
    if (!options.non_private) {
      KAMINO_ASSIGN_OR_RETURN(
          options, SearchDpParameters(config.epsilon, config.delta,
                                      data.schema(), fitted.sequence,
                                      data.num_rows(), learn_weights,
                                      config.options));
    }
    fitted.resolved_options = options;
    fitted.fit_timings.parameter_search = span.Finish();
  }

  // Line 4: model training (Algorithm 2) - Gaussian mechanism + DP-SGD.
  {
    obs::TraceSpan span("fit/training");
    KAMINO_ASSIGN_OR_RETURN(
        fitted.model,
        ProbabilisticDataModel::Train(data, fitted.sequence, options, &rng));
    fitted.fit_timings.training = span.Finish();
  }

  // Line 5: DC weight learning (Algorithm 5) - sampled Gaussian mechanism.
  {
    obs::TraceSpan span("fit/weights");
    fitted.weighted = constraints;
    if (learn_weights) {
      KAMINO_ASSIGN_OR_RETURN(
          fitted.dc_weights,
          LearnDcWeights(data, constraints, fitted.sequence, options, &rng));
      for (size_t l = 0; l < fitted.weighted.size(); ++l) {
        if (!fitted.weighted[l].hard) {
          fitted.weighted[l].weight = fitted.dc_weights[l];
        }
      }
    } else {
      fitted.dc_weights.reserve(constraints.size());
      for (const WeightedConstraint& wc : constraints) {
        fitted.dc_weights.push_back(wc.EffectiveWeight());
      }
    }
    fitted.fit_timings.violation_matrix = span.Finish();
  }

  fitted.epsilon_spent =
      options.non_private
          ? std::numeric_limits<double>::infinity()
          : PrivacyCostEpsilon(options, data.num_rows(),
                               fitted.model.num_histogram_units(),
                               fitted.model.num_discriminative_units(),
                               learn_weights, config.delta);

  // Snapshot the run RNG: sampling resumes exactly where the fit left
  // off, so Fit + Sample drains the same stream as the monolithic run.
  fitted.sampling_engine = rng.engine();
  return fitted;
}

Result<Table> SamplePipeline(const FitArtifacts& fitted,
                             const SampleSpec& spec,
                             const SynthesisHooks* hooks,
                             SynthesisTelemetry* telemetry,
                             PhaseTimings* timings) {
  if (spec.num_threads != SampleSpec::kUnset) {
    runtime::SetGlobalNumThreads(spec.num_threads);
  }
  ApplyObservabilityOptions(fitted.resolved_options);
  SampleSpec run = spec;
  if (run.num_rows == 0) run.num_rows = fitted.input_rows;

  // seed == 0 resumes the fit snapshot (the RunKamino-identical stream);
  // anything else is an independent per-request stream.
  Rng rng(spec.seed);
  if (spec.seed == 0) rng.engine() = fitted.sampling_engine;

  SynthesisTelemetry local_telemetry;
  if (telemetry == nullptr) telemetry = &local_telemetry;
  obs::TraceSpan span("synthesize");
  span.AddArg("rows", static_cast<int64_t>(run.num_rows));
  span.AddArg("seed", static_cast<int64_t>(spec.seed));
  KAMINO_ASSIGN_OR_RETURN(
      Table out, Synthesize(fitted.model, fitted.weighted,
                            fitted.resolved_options, run, &rng, telemetry,
                            hooks));
  // The sampling phase is the synthesize span's duration; the merge
  // sub-phase is the sum of the per-freeze prefix_merge spans (surfaced
  // through telemetry by the sampler) — both derived from the span tree.
  const double sampling_seconds = span.Finish();
  if (timings != nullptr) {
    timings->sampling = sampling_seconds;
    timings->shard_merge = telemetry->merge_seconds;
    timings->num_shards = telemetry->num_shards;
    timings->num_threads = runtime::GlobalNumThreads();
  }
  return out;
}

}  // namespace kamino
