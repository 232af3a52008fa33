#include "kamino/service/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <utility>

#include "kamino/io/artifact.h"
#include "kamino/obs/metrics.h"
#include "kamino/obs/trace.h"

namespace kamino {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// First-chunk latency histogram, recorded per streaming run. Fixed
/// roughly-logarithmic bounds from 1ms to 10s (first registration wins,
/// so every engine in the process shares one layout).
void RecordFirstChunkSeconds(double seconds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!reg.enabled()) return;
  reg.histogram("kamino.service.first_chunk_seconds",
                {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                 5.0, 10.0})
      ->Record(seconds);
}

/// Engine-wide job sequence numbers; process-global so two engines in one
/// process never hand out colliding trace-correlation ids.
std::atomic<uint64_t> g_next_job_id{1};

void BumpServiceCounter(const char* which, int64_t delta = 1) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!reg.enabled()) return;
  reg.counter(std::string("kamino.service.") + which)->Increment(delta);
}

void BumpRegistryCounter(const char* which, int64_t delta = 1) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!reg.enabled()) return;
  reg.counter(std::string("kamino.registry.") + which)->Increment(delta);
}

/// The one body of every synthesis request, synchronous or queued:
/// samples `request` from `fitted` and fills `result` — its telemetry even
/// when the run fails. Chunks go to `hooks.on_chunk` when the caller set
/// it (the queued job's progress-tracking wrapper), to `request.sink`
/// otherwise; either way the first one is clocked from this call's start.
Status RunRequest(const FitArtifacts& fitted, const SynthesisRequest& request,
                  SynthesisHooks hooks, SynthesisResult* result) {
  const auto start = std::chrono::steady_clock::now();
  double first_chunk = -1.0;
  std::function<Status(const TableChunk&)> deliver = std::move(hooks.on_chunk);
  if (!deliver && request.sink != nullptr) {
    RowSink* sink = request.sink;
    deliver = [sink](const TableChunk& chunk) { return sink->OnChunk(chunk); };
  }
  if (deliver) {
    // Chunks arrive serially, before SamplePipeline returns.
    hooks.on_chunk = [&](const TableChunk& chunk) {
      if (first_chunk < 0.0) first_chunk = SecondsSince(start);
      return deliver(chunk);
    };
  }
  PhaseTimings timings;
  Result<Table> out = SamplePipeline(fitted, request, &hooks,
                                     &result->telemetry, &timings);
  if (first_chunk >= 0.0) {
    result->telemetry.first_chunk_seconds = first_chunk;
    RecordFirstChunkSeconds(first_chunk);
  }
  KAMINO_RETURN_IF_ERROR(out.status());
  result->sampling_seconds = timings.sampling;
  if (request.collect_table) result->synthetic = std::move(out).TakeValue();
  return Status::OK();
}

}  // namespace

FittedModel FittedModel::FromArtifacts(FitArtifacts artifacts) {
  return FittedModel(
      std::make_shared<const FitArtifacts>(std::move(artifacts)));
}

Result<std::vector<uint8_t>> FittedModel::Serialize() const {
  if (!valid()) {
    return Status::FailedPrecondition(
        "cannot serialize an empty FittedModel handle");
  }
  return io::SerializeFitArtifacts(*state_);
}

Result<FittedModel> FittedModel::Deserialize(
    const std::vector<uint8_t>& bytes) {
  KAMINO_ASSIGN_OR_RETURN(FitArtifacts artifacts,
                          io::DeserializeFitArtifacts(bytes));
  return FromArtifacts(std::move(artifacts));
}

Status FittedModel::Save(const std::string& path) const {
  if (!valid()) {
    return Status::FailedPrecondition(
        "cannot save an empty FittedModel handle");
  }
  return io::SaveFitArtifacts(*state_, path);
}

Result<FittedModel> FittedModel::Load(const std::string& path) {
  KAMINO_ASSIGN_OR_RETURN(FitArtifacts artifacts, io::LoadFitArtifacts(path));
  return FromArtifacts(std::move(artifacts));
}

/// Job state shared between the handle, the queue body and the hooks.
/// Progress fields are lock-free atomics (polled from pool workers);
/// the result is guarded by `mu` and written exactly once, when the body
/// finishes.
struct SynthesisJob::Shared {
  uint64_t id = 0;  // assigned once in Submit, read-only afterwards
  std::atomic<Phase> phase{Phase::kQueued};
  std::atomic<size_t> rows_total{0};
  std::atomic<size_t> rows_sampled{0};
  std::atomic<size_t> rows_committed{0};
  std::atomic<size_t> chunks_delivered{0};

  std::mutex mu;
  Status status;  // non-OK for cancelled/failed jobs
  SynthesisResult result;
};

SynthesisJob::Progress SynthesisJob::progress() const {
  Progress p;
  p.phase = shared_->phase.load(std::memory_order_relaxed);
  if (queue_job_->state() == runtime::JobQueue::JobState::kSkipped) {
    p.phase = Phase::kCancelled;  // cancelled before a runner picked it up
  }
  p.rows_total = shared_->rows_total.load(std::memory_order_relaxed);
  p.rows_sampled = shared_->rows_sampled.load(std::memory_order_relaxed);
  p.rows_committed = shared_->rows_committed.load(std::memory_order_relaxed);
  p.chunks_delivered =
      shared_->chunks_delivered.load(std::memory_order_relaxed);
  return p;
}

uint64_t SynthesisJob::id() const { return shared_->id; }

bool SynthesisJob::finished() const {
  const Phase phase = progress().phase;
  return phase == Phase::kDone || phase == Phase::kCancelled ||
         phase == Phase::kFailed;
}

void SynthesisJob::Cancel() { queue_job_->Cancel(); }

Result<SynthesisResult> SynthesisJob::Wait() {
  const runtime::JobQueue::JobState state = queue_job_->Wait();
  if (state == runtime::JobQueue::JobState::kSkipped) {
    return Status::Cancelled("synthesis job cancelled before it started");
  }
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (!shared_->status.ok()) return shared_->status;
  return shared_->result;  // copy: Wait may be called repeatedly
}

KaminoEngine::KaminoEngine() : KaminoEngine(Options()) {}

KaminoEngine::KaminoEngine(const Options& options) {
  runtime::SetGlobalNumThreads(options.num_threads);
  pool_ = runtime::GlobalThreadPool();
  jobs_ = std::make_unique<runtime::JobQueue>(options.max_concurrent_jobs);
  // A constructor cannot return a Status, so an out-of-range capacity is
  // clamped rather than rejected.
  registry_capacity_ = std::max<size_t>(1, options.model_registry_capacity);
}

KaminoEngine::~KaminoEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::weak_ptr<runtime::JobQueue::Job>& weak : submitted_) {
      if (std::shared_ptr<runtime::JobQueue::Job> job = weak.lock()) {
        job->Cancel();
      }
    }
  }
  jobs_.reset();  // skips queued jobs, joins runners
}

Result<FittedModel> KaminoEngine::Fit(
    const Table& data, const std::vector<WeightedConstraint>& constraints,
    const KaminoConfig& config) {
  KAMINO_ASSIGN_OR_RETURN(FitArtifacts fitted,
                          FitPipeline(data, constraints, config));
  return FittedModel(
      std::make_shared<const FitArtifacts>(std::move(fitted)));
}

Result<SynthesisResult> KaminoEngine::Synthesize(
    const FittedModel& model, const SynthesisRequest& request) const {
  if (!model.valid()) {
    return Status::InvalidArgument("Synthesize needs a fitted model");
  }
  SynthesisResult result;
  KAMINO_RETURN_IF_ERROR(
      RunRequest(model.artifacts(), request, SynthesisHooks(), &result));
  return result;
}

std::shared_ptr<SynthesisJob> KaminoEngine::Submit(
    const FittedModel& model, const SynthesisRequest& request) {
  auto job = std::shared_ptr<SynthesisJob>(new SynthesisJob());
  auto shared = std::make_shared<SynthesisJob::Shared>();
  job->shared_ = shared;
  shared->id = g_next_job_id.fetch_add(1, std::memory_order_relaxed);
  const size_t rows_total =
      request.num_rows == 0 && model.valid() ? model.input_rows()
                                             : request.num_rows;
  shared->rows_total.store(rows_total, std::memory_order_relaxed);
  BumpServiceCounter("jobs_submitted");

  job->queue_job_ = jobs_->Submit([shared, model, request](
                                      const runtime::CancelToken& token) {
    using Phase = SynthesisJob::Phase;
    // The per-job trace handle: everything the job does (per-shard
    // sampling, merge, chunk delivery) nests under this span.
    obs::TraceSpan job_span("service/job");
    job_span.AddArg("job", static_cast<int64_t>(shared->id));
    job_span.AddArg(
        "rows_total",
        static_cast<int64_t>(
            shared->rows_total.load(std::memory_order_relaxed)));
    if (!model.valid()) {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->status = Status::InvalidArgument("Submit needs a fitted model");
      shared->phase.store(Phase::kFailed, std::memory_order_relaxed);
      BumpServiceCounter("jobs_failed");
      return;
    }
    shared->phase.store(Phase::kSampling, std::memory_order_relaxed);

    SynthesisHooks hooks;
    hooks.keep_going = [token] { return !token.cancel_requested(); };
    hooks.on_rows_sampled = [shared](size_t rows) {
      const size_t sampled =
          shared->rows_sampled.fetch_add(rows, std::memory_order_relaxed) +
          rows;
      if (sampled >=
          shared->rows_total.load(std::memory_order_relaxed)) {
        shared->phase.store(SynthesisJob::Phase::kMerging,
                            std::memory_order_relaxed);
      }
    };
    RowSink* sink = request.sink;
    if (sink != nullptr) {
      hooks.on_chunk = [shared, sink](const TableChunk& chunk) {
        shared->phase.store(SynthesisJob::Phase::kDelivering,
                            std::memory_order_relaxed);
        KAMINO_RETURN_IF_ERROR(sink->OnChunk(chunk));
        // num_rows() covers both representations (materialized rows and
        // compressed payloads carry the same logical slice).
        shared->rows_committed.fetch_add(chunk.num_rows(),
                                         std::memory_order_relaxed);
        shared->chunks_delivered.fetch_add(1, std::memory_order_relaxed);
        BumpServiceCounter("chunks_delivered");
        BumpServiceCounter("rows_delivered",
                           static_cast<int64_t>(chunk.num_rows()));
        return Status::OK();
      };
    }

    // The job clock starts in RunRequest — after dequeue — so first-chunk
    // latency measures sampling + merge, not queue wait.
    SynthesisResult result;
    const Status status =
        RunRequest(model.artifacts(), request, std::move(hooks), &result);
    if (result.telemetry.first_chunk_seconds > 0.0) {
      job_span.AddArg(
          "first_chunk_ms",
          static_cast<int64_t>(result.telemetry.first_chunk_seconds * 1000.0));
    }

    std::lock_guard<std::mutex> lock(shared->mu);
    if (!status.ok()) {
      const bool cancelled = status.code() == StatusCode::kCancelled;
      shared->status = status;
      shared->phase.store(cancelled ? Phase::kCancelled : Phase::kFailed,
                          std::memory_order_relaxed);
      BumpServiceCounter(cancelled ? "jobs_cancelled" : "jobs_failed");
      return;
    }
    shared->result = std::move(result);
    if (sink == nullptr) {
      // No streaming: every row commits at completion.
      shared->rows_committed.store(
          shared->rows_total.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    shared->phase.store(Phase::kDone, std::memory_order_relaxed);
    BumpServiceCounter("jobs_done");
  });

  std::lock_guard<std::mutex> lock(mu_);
  submitted_.erase(
      std::remove_if(submitted_.begin(), submitted_.end(),
                     [](const std::weak_ptr<runtime::JobQueue::Job>& weak) {
                       return weak.expired();
                     }),
      submitted_.end());
  submitted_.push_back(job->queue_job_);
  return job;
}

Status KaminoEngine::RegisterModel(const std::string& id,
                                   const FittedModel& model) {
  if (id.empty()) {
    return Status::InvalidArgument("model id must be non-empty");
  }
  if (!model.valid()) {
    return Status::InvalidArgument(
        "cannot register an empty FittedModel handle");
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_index_.find(id);
  if (it != registry_index_.end()) {
    it->second->second = model;
    registry_lru_.splice(registry_lru_.begin(), registry_lru_, it->second);
    return Status::OK();
  }
  registry_lru_.emplace_front(id, model);
  registry_index_[id] = registry_lru_.begin();
  while (registry_lru_.size() > registry_capacity_) {
    registry_index_.erase(registry_lru_.back().first);
    registry_lru_.pop_back();
    BumpRegistryCounter("evictions");
  }
  return Status::OK();
}

Result<FittedModel> KaminoEngine::GetModel(const std::string& id) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_index_.find(id);
  if (it == registry_index_.end()) {
    BumpRegistryCounter("misses");
    return Status::NotFound("no model registered under id '" + id + "'");
  }
  registry_lru_.splice(registry_lru_.begin(), registry_lru_, it->second);
  BumpRegistryCounter("hits");
  return it->second->second;
}

Result<FittedModel> KaminoEngine::LoadModel(const std::string& id,
                                            const std::string& path) {
  KAMINO_ASSIGN_OR_RETURN(FittedModel model, FittedModel::Load(path));
  KAMINO_RETURN_IF_ERROR(RegisterModel(id, model));
  return model;
}

size_t KaminoEngine::registry_size() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return registry_lru_.size();
}

Result<SynthesisResult> KaminoEngine::Synthesize(
    const std::string& model_id, const SynthesisRequest& request) const {
  KAMINO_ASSIGN_OR_RETURN(FittedModel model, GetModel(model_id));
  return Synthesize(model, request);
}

Result<std::shared_ptr<SynthesisJob>> KaminoEngine::Submit(
    const std::string& model_id, const SynthesisRequest& request) {
  KAMINO_ASSIGN_OR_RETURN(FittedModel model, GetModel(model_id));
  return Submit(model, request);
}

std::string KaminoEngine::DumpMetrics() const {
  return obs::MetricsRegistry::Global().ToJson();
}

std::string KaminoEngine::DumpTrace() const {
  return obs::TraceRecorder::Global().ToJson();
}

}  // namespace kamino
