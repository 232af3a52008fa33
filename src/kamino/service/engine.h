#ifndef KAMINO_SERVICE_ENGINE_H_
#define KAMINO_SERVICE_ENGINE_H_

// Session-based synthesis API.
//
// `RunKamino` re-runs sequencing, parameter search, DP-SGD training and
// weight learning on every call, even though sampling (Algorithm 3) is
// pure post-processing with zero privacy cost. `KaminoEngine` splits the
// pipeline at exactly that line:
//
//   KaminoEngine engine;
//   auto model = engine.Fit(data, constraints, config);      // pays epsilon
//   auto a = engine.Synthesize(model.value(), {});           // free
//   SynthesisRequest req;
//   req.seed = 7;
//   req.num_shards = 4;
//   auto job = engine.Submit(model.value(), req);            // async
//   ...
//   auto b = job->Wait();
//
// One fit's privacy budget amortizes over arbitrarily many synthesis
// requests, each a pure function of (model, seed, num_shards). Jobs run
// on a cancellable queue (runtime::JobQueue) with progress snapshots and
// optional streaming row delivery through a `RowSink`.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/common/status.h"
#include "kamino/core/kamino.h"
#include "kamino/core/pipeline.h"
#include "kamino/core/sampler.h"
#include "kamino/data/table.h"
#include "kamino/dc/constraint.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {

/// The immutable artifact of one `KaminoEngine::Fit` call: the trained
/// probabilistic model, the weighted constraint set, the resolved DP
/// parameters and the fit's privacy spend. Cheap to copy (a shared
/// reference), safe to share across threads and engines.
///
/// Ownership: a FittedModel owns ALL of its state. Nothing in the handle
/// aliases the fitted data table (or any other input) — the schema,
/// constraint set, encoder tensors and RNG snapshot are deep copies made
/// during the fit, so the input table may be released (or mutated)
/// immediately after `Fit` returns, and a model loaded from an artifact
/// file is self-contained with no live inputs at all. Synthesis never
/// touches the private instance again.
class FittedModel {
 public:
  /// An empty handle; `valid()` is false until assigned from `Fit`.
  FittedModel() = default;

  bool valid() const { return state_ != nullptr; }

  /// Privacy cost of the fit under Theorem 1 (infinity if non-private).
  /// Synthesis requests add nothing to it.
  double epsilon_spent() const { return state().epsilon_spent; }
  /// The DP parameter set Psi the fit resolved (Algorithm 6).
  const KaminoOptions& resolved_options() const {
    return state().resolved_options;
  }
  /// The schema sequence S chosen by Algorithm 4.
  const std::vector<size_t>& sequence() const { return state().sequence; }
  /// Learned (or hardness-implied) weight per input constraint.
  const std::vector<double>& dc_weights() const {
    return state().dc_weights;
  }
  /// Rows of the fitted instance (the default synthesis size).
  size_t input_rows() const { return state().input_rows; }
  /// Wall clock of the fit phases.
  const PhaseTimings& fit_timings() const { return state().fit_timings; }

  /// The underlying stage artifacts (for callers composing the core
  /// pipeline directly, e.g. the bench harness).
  const FitArtifacts& artifacts() const { return state(); }

  /// Wraps already-computed stage artifacts in a model handle (for
  /// callers that ran the core pipeline stages directly).
  static FittedModel FromArtifacts(FitArtifacts artifacts);

  /// The model's wire form (io/artifact.h): a versioned, digest-sealed
  /// byte string. Serialize -> Deserialize -> Serialize is byte-identical.
  /// Fails with FailedPrecondition on an empty handle.
  Result<std::vector<uint8_t>> Serialize() const;
  /// Parses and validates an artifact byte string. Corruption of any kind
  /// (truncation, bit flips, version/kind/arity tampering) is rejected
  /// with a Status. The returned model owns all of its state.
  static Result<FittedModel> Deserialize(const std::vector<uint8_t>& bytes);

  /// File forms of the above. I/O failures surface as IoError.
  Status Save(const std::string& path) const;
  static Result<FittedModel> Load(const std::string& path);

 private:
  friend class KaminoEngine;
  explicit FittedModel(std::shared_ptr<const FitArtifacts> state)
      : state_(std::move(state)) {}

  /// Every accessor funnels through here so reading an empty handle fails
  /// loudly instead of dereferencing null.
  const FitArtifacts& state() const {
    KAMINO_CHECK(valid()) << "FittedModel accessed before Fit assigned it";
    return *state_;
  }

  std::shared_ptr<const FitArtifacts> state_;
};

/// Receives the synthetic instance incrementally as `TableChunk`s.
///
/// Delivery-order guarantee (the streaming contract): chunks arrive in
/// ascending `row_offset` order, one per shard, exactly once each, tiling
/// [0, num_rows) without gap or overlap; every delivered row is final —
/// the shard has cleared merge reconciliation and no later step rewrites
/// it; all chunks are delivered before the job completes, i.e. `Wait()`
/// returns only after the last `OnChunk` call has returned. `OnChunk` is
/// called serially (never two calls in flight) from the job's runner
/// thread, not from the submitting thread. The sink must outlive the job.
///
/// In a sharded run, chunk s arrives as soon as shards [0, s] have
/// frozen — typically while later shards are still sampling — which is
/// what makes time-to-first-chunk ~ 1/num_shards of the job instead of
/// ~ all of it.
class RowSink {
 public:
  virtual ~RowSink() = default;

  /// A non-OK return aborts the job with that status (remaining chunks
  /// are not delivered).
  virtual Status OnChunk(const TableChunk& chunk) = 0;
};

/// One synthesis request against a fitted model: the sampling run of
/// `SampleSpec` (rows, seed, shard and thread overrides, compressed
/// chunks, the out-of-core dispatch window, table collection) plus its
/// sink.
/// Value-semantics; the defaults reproduce the fit config's sampling
/// phase exactly.
struct SynthesisRequest : SampleSpec {
  /// Optional streaming delivery (see RowSink for the order guarantee).
  /// Must outlive the job. `compress_chunks` is ignored without a sink;
  /// `out_of_core` combined with `collect_table = false` and a sink is the
  /// constant-memory delivery path: rows then exist only as chunks. No
  /// run writes to disk.
  RowSink* sink = nullptr;
  /// No-op, kept for source compatibility: every run streams through the
  /// prefix-frozen merge, so nothing reads this field.
  bool progressive_merge = false;
};

/// What one synthesis request produced.
struct SynthesisResult {
  /// The synthetic instance (empty when the request said
  /// `collect_table = false`).
  Table synthetic;
  SynthesisTelemetry telemetry;
  /// Wall clock of this request's sampling (merge included): the
  /// `synthesize` span's duration.
  double sampling_seconds = 0.0;
};

/// Handle to one asynchronous synthesis job. Obtained from
/// `KaminoEngine::Submit`; shareable across threads.
class SynthesisJob {
 public:
  /// Observable lifecycle. Queued/Sampling/Merging/Delivering are
  /// in-flight; Done/Cancelled/Failed are terminal.
  enum class Phase {
    kQueued,
    kSampling,
    kMerging,
    kDelivering,
    kDone,
    kCancelled,
    kFailed,
  };

  /// A consistent point-in-time snapshot of the job's progress.
  struct Progress {
    Phase phase = Phase::kQueued;
    /// Rows the job will synthesize in total.
    size_t rows_total = 0;
    /// Rows whose shard has finished its sampling loop (pre-merge).
    size_t rows_sampled = 0;
    /// Rows delivered through the sink in final, reconciled form (stays
    /// 0 for sink-less jobs until completion, then jumps to rows_total).
    size_t rows_committed = 0;
    size_t chunks_delivered = 0;
  };

  Progress progress() const;

  /// Engine-wide job sequence number (1, 2, ...), assigned at Submit.
  /// Matches the `job` arg of the job's "service/job" trace span, so a
  /// handle can be correlated with its spans in the exported trace.
  uint64_t id() const;

  /// True once the job reached a terminal phase.
  bool finished() const;

  /// Requests cooperative cancellation: a queued job is skipped without
  /// running; a running job stops at the next shard or column-group
  /// boundary (and between chunk deliveries) and completes as
  /// kCancelled. Idempotent, never blocks, never deadlocks a Wait().
  void Cancel();

  /// Blocks until the job is terminal and returns its result: the
  /// synthesis output, StatusCode::kCancelled for a cancelled/skipped
  /// job, or the failing stage's error. Safe to call from any thread,
  /// multiple times (later calls return a Status-only copy for errors
  /// and the cached result for success).
  Result<SynthesisResult> Wait();

 private:
  friend class KaminoEngine;
  SynthesisJob() = default;

  struct Shared;
  std::shared_ptr<Shared> shared_;
  std::shared_ptr<runtime::JobQueue::Job> queue_job_;
};

/// A long-lived synthesis service: owns (a reference to) the process-wide
/// runtime pool and a cancellable job queue, and exposes the
/// fit-once/synthesize-many session API. Thread-safe: Fit, Synthesize and
/// Submit may be called concurrently from any thread.
class KaminoEngine {
 public:
  struct Options {
    /// Worker-thread budget for the parallel runtime (0 = hardware
    /// concurrency). Applied at construction; per-request
    /// `num_threads` overrides re-apply it per job.
    size_t num_threads = 0;
    /// Jobs executing concurrently; the rest wait queued in submission
    /// order.
    size_t max_concurrent_jobs = 2;
    /// Capacity of the engine's LRU registry of hot models (see
    /// RegisterModel). Values below 1 are clamped to 1.
    size_t model_registry_capacity = 8;
  };

  /// Default options: hardware-concurrency thread budget, 2 concurrent
  /// jobs.
  KaminoEngine();
  explicit KaminoEngine(const Options& options);

  /// Cancels every outstanding job, waits for running ones to stop at
  /// their next cancellation point, then tears the queue down. Jobs'
  /// `Wait()` stays valid after the engine is gone.
  ~KaminoEngine();

  KaminoEngine(const KaminoEngine&) = delete;
  KaminoEngine& operator=(const KaminoEngine&) = delete;

  /// Lines 2-5 of Algorithm 1 — the entire privacy spend. Validates
  /// `config` up front. The input table may be released afterwards.
  Result<FittedModel> Fit(const Table& data,
                          const std::vector<WeightedConstraint>& constraints,
                          const KaminoConfig& config);

  /// Synchronous constraint-aware sampling from a fitted model — pure
  /// post-processing, no privacy cost, `model` is not mutated. Identical
  /// (model, request) pairs produce identical tables.
  Result<SynthesisResult> Synthesize(const FittedModel& model,
                                     const SynthesisRequest& request) const;

  /// Queues the request as an asynchronous job. The returned handle's
  /// `Wait()`/`Cancel()`/`progress()` are valid for the life of the
  /// handle, independent of the engine. `request.sink` (when set) must
  /// outlive the job.
  std::shared_ptr<SynthesisJob> Submit(const FittedModel& model,
                                       const SynthesisRequest& request);

  // --- Model registry -------------------------------------------------
  //
  // An LRU cache of hot fitted models keyed by caller-chosen ids, so a
  // long-lived service can address models by name ("adult-v3") instead of
  // threading handles through every call site. Registering past
  // `Options::model_registry_capacity` evicts the least recently used
  // entry (counted as `kamino.registry.evictions` when metrics are on);
  // an evicted model stays alive for anyone still holding its handle —
  // only the registry's reference is dropped.

  /// Inserts (or overwrites) `id` -> `model` and marks it most recently
  /// used. Rejects empty ids and invalid handles with InvalidArgument.
  Status RegisterModel(const std::string& id, const FittedModel& model);

  /// Looks up a registered model and marks it most recently used.
  /// NotFound for unknown (or evicted) ids. Hits and misses are counted
  /// (`kamino.registry.hits` / `kamino.registry.misses`).
  Result<FittedModel> GetModel(const std::string& id) const;

  /// Loads an artifact file (FittedModel::Load) and registers it under
  /// `id` in one step, returning the loaded model.
  Result<FittedModel> LoadModel(const std::string& id,
                                const std::string& path);

  /// Registered model count (for introspection/tests).
  size_t registry_size() const;

  /// Synthesize/Submit against a registered model id; NotFound when the
  /// id is unknown. Equivalent to GetModel + the handle overloads (the
  /// lookup refreshes the id's LRU position).
  Result<SynthesisResult> Synthesize(const std::string& model_id,
                                     const SynthesisRequest& request) const;
  Result<std::shared_ptr<SynthesisJob>> Submit(const std::string& model_id,
                                               const SynthesisRequest& request);

  /// JSON snapshot of the process-wide metrics registry (counters,
  /// gauges, histograms — see README "Observability" for the catalog).
  /// Meaningful after a run with `enable_metrics`; otherwise the
  /// registered metrics are present with zero values.
  std::string DumpMetrics() const;

  /// Chrome trace-event JSON of every span recorded so far (load in
  /// Perfetto / chrome://tracing). Meaningful after a run with
  /// `enable_tracing`; otherwise an empty trace.
  std::string DumpTrace() const;

 private:
  std::shared_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<runtime::JobQueue> jobs_;
  // Outstanding queue-job handles, so the destructor can cancel every
  // job — including fire-and-forget submissions whose public
  // SynthesisJob handle the caller already dropped (the queue keeps the
  // underlying job alive while it is queued or running). Guarded by mu_;
  // pruned of finished jobs on every Submit.
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<runtime::JobQueue::Job>> submitted_;

  // LRU model registry. The list holds (id, model) pairs ordered from
  // most to least recently used; the index maps ids to list iterators
  // (stable under splice). GetModel refreshes recency, hence the mutable
  // members behind a const API. Guarded by registry_mu_ (separate from
  // mu_ so registry lookups never contend with job submission).
  size_t registry_capacity_ = 1;
  mutable std::mutex registry_mu_;
  mutable std::list<std::pair<std::string, FittedModel>> registry_lru_;
  mutable std::unordered_map<
      std::string, std::list<std::pair<std::string, FittedModel>>::iterator>
      registry_index_;
};

}  // namespace kamino

#endif  // KAMINO_SERVICE_ENGINE_H_
