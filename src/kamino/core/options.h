#ifndef KAMINO_CORE_OPTIONS_H_
#define KAMINO_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "kamino/common/status.h"

namespace kamino {

/// Every knob of the Kamino pipeline: learning hyper-parameters, the DP
/// parameter set Psi (Algorithm 6 output), and the ablation/optimization
/// switches exercised by the evaluation section.
struct KaminoOptions {
  // --- Model hyper-parameters ---
  /// Embedding dimension d of the tuple embedding.
  size_t embed_dim = 12;
  /// Quantization bins q for numeric histogram attributes.
  int quantize_bins = 16;
  /// DP-SGD learning rate eta.
  double learning_rate = 0.05;

  // --- DP parameter set Psi (Algorithm 6 / Theorem 1) ---
  /// Noise scale for the first-attribute histogram (and any large-domain
  /// Gaussian-fallback histograms).
  double sigma_g = 2.0;
  /// DP-SGD noise multiplier.
  double sigma_d = 1.1;
  /// L2 gradient clipping bound C.
  double clip_norm = 1.0;
  /// Expected DP-SGD batch size b.
  size_t batch_size = 16;
  /// DP-SGD iterations T per sub-model.
  size_t iterations = 100;
  /// Noise multiplier for the violation matrix (weight learning).
  double sigma_w = 1.0;
  /// Expected weight-learning sample size Lw.
  size_t weight_sample = 100;
  /// Weight-fitting iterations Tw (post-processing; no privacy cost).
  size_t weight_iterations = 100;
  /// Weight-fitting batch size bw (post-processing).
  size_t weight_batch = 1;
  /// When true, skip all noise injection (the epsilon = infinity runs).
  bool non_private = false;

  // --- Sampling ---
  /// Candidate set size d for continuous / very large domains.
  int max_candidates = 12;
  /// MCMC re-samples m per attribute after the column is synthesized.
  size_t mcmc_resamples = 0;

  // --- Optimizations (section 4.3 / 7.3.6) ---
  /// Categorical attributes with more categories than this are learned via
  /// a noisy histogram and sampled without context (Gaussian fallback).
  int64_t large_domain_threshold = 96;
  /// Adjacent small categorical attributes are grouped into one hyper
  /// attribute while the joint domain stays at or below this.
  int64_t group_domain_threshold = 64;
  /// Master switch for hyper-attribute grouping.
  bool enable_grouping = true;
  /// Resolve hard FDs by group lookup instead of candidate scoring.
  bool enable_fd_fast_path = false;
  /// Train sub-models with fresh (unshared) embeddings, allowing parallel
  /// training across threads.
  bool parallel_training = false;

  // --- Ablations (Experiment 5/6) ---
  /// RandSampling: drop the exp(-w * violations) factor during sampling.
  bool constraint_aware_sampling = true;
  /// RandSequence: replace Algorithm 4 with a random permutation.
  bool random_sequence = false;
  /// Use accept-reject sampling instead of direct reweighted sampling.
  bool accept_reject = false;
  /// Maximum AR proposals per cell before keeping the last sample.
  size_t ar_max_tries = 300;

  // --- Execution runtime ---
  /// Worker threads for the parallel runtime (violation matrix, shard
  /// sampling, batched MCMC, per-example DP-SGD gradients). 0 means "use
  /// hardware concurrency". Synthetic output is bit-identical for every
  /// value: parallel regions draw randomness from per-task `RngStream`
  /// sub-seeds and reduce in a fixed order, never from thread timing.
  size_t num_threads = 0;

  /// Shards for shard-parallel synthesis (core/sampler.cc): the output rows
  /// are partitioned into `num_shards` contiguous shards, each sampled
  /// concurrently from its own `RngStream` sub-seed with its own per-shard
  /// violation indices. Shards freeze in order, each reconciled against
  /// the frozen prefix before it, and stream out as they freeze: rows
  /// already emitted are never rewritten, and hard DCs are exact over the
  /// frozen prefix after every freeze. 1 (the default) = the sequential
  /// paper stream, frozen once against an empty prefix; 0 = one shard per
  /// worker thread. Synthetic output is a pure function of (seed,
  /// resolved num_shards): changing `num_threads` never changes it,
  /// changing the shard count does. Note that 0 resolves the shard count
  /// *from* the thread budget, so for machine-independent output pick an
  /// explicit shard count.
  size_t num_shards = 1;

  // --- Observability (src/kamino/obs/) ---
  /// Record pipeline/sampler/runtime spans into the process-wide
  /// `obs::TraceRecorder` (exportable as Chrome trace-event JSON via
  /// `KaminoEngine::DumpTrace`). Off by default. Applied at the pipeline
  /// entry points as a monotone enable — a run asking for tracing turns
  /// the global recorder on; runs that don't leave it alone (so
  /// concurrent traced and untraced jobs compose; last-enabler semantics
  /// mirror `num_threads`). Never changes the synthesized output: spans
  /// observe the run, they do not steer it.
  bool enable_tracing = false;
  /// Record counters/gauges/histograms into the process-wide
  /// `obs::MetricsRegistry` (export via `KaminoEngine::DumpMetrics`).
  /// Off by default; monotone enable like `enable_tracing`. Never
  /// changes the synthesized output.
  bool enable_metrics = false;
  /// Per-thread cap on retained trace events; events past it are dropped
  /// and counted, never unbounded. Must be >= 1 when `enable_tracing` is
  /// set (Validate rejects the combination that could record nothing).
  size_t trace_capacity_events = size_t{1} << 20;

  // --- Out-of-core spill (src/kamino/store/) ---
  /// Parent directory for the spill store's private `mkdtemp` directory
  /// of an out-of-core run that collects its table
  /// (`SampleSpec::out_of_core` with `collect_table`; no other run
  /// spills). Empty (the default) means $TMPDIR, else /tmp.
  std::string spill_dir;

  /// Root seed for all randomness in the run.
  uint64_t seed = 1;

  /// Rejects nonsensical knob combinations (non-positive quantize_bins,
  /// zero-try accept-reject budgets, non-positive noise scales on a
  /// private run, ...) with InvalidArgument instead of letting the
  /// pipeline silently misbehave. Checked at the RunKamino / engine Fit
  /// entry points; lower-level stages trust their inputs.
  Status Validate() const;
};

}  // namespace kamino

#endif  // KAMINO_CORE_OPTIONS_H_
