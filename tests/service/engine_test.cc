// Tests for the session-based synthesis API (kamino/service/engine.h):
// the fit-once/synthesize-many contract (one fit reproduces any number of
// full runs bit for bit), config validation at the entry points, the
// streaming delivery-order guarantee, cooperative job cancellation at
// shard boundaries, and the overlapping-jobs concurrency contract that
// core/kamino.h promises (two concurrent jobs at different thread budgets
// both reproduce their single-run outputs), and a spill failure that
// fails only its own run.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/core/kamino.h"
#include "kamino/data/generators.h"
#include "kamino/runtime/thread_pool.h"
#include "kamino/service/engine.h"

namespace kamino {
namespace {

/// Restores the global thread budget when a test scope ends.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n) { runtime::SetGlobalNumThreads(n); }
  ~ScopedNumThreads() { runtime::SetGlobalNumThreads(0); }
};

void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_TRUE(a.at(r, c) == b.at(r, c))
          << "cell (" << r << ", " << c << ") diverged: "
          << a.CellToString(r, c) << " vs " << b.CellToString(r, c);
    }
  }
}

KaminoConfig TestConfig(uint64_t seed) {
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 8;
  config.options.mcmc_resamples = 40;
  config.options.seed = seed;
  return config;
}

/// Records every delivered chunk, with the value of an external flag at
/// delivery time (the tests set the flag only after Wait() returns, so a
/// true reading would mean a chunk arrived after job completion).
class RecordingSink : public RowSink {
 public:
  explicit RecordingSink(const std::atomic<bool>* completed = nullptr)
      : completed_(completed) {}

  Status OnChunk(const TableChunk& chunk) override {
    std::lock_guard<std::mutex> lock(mu_);
    chunks_.push_back(chunk);
    if (completed_ != nullptr) {
      seen_completed_.push_back(completed_->load());
    }
    return Status::OK();
  }

  std::vector<TableChunk> chunks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return chunks_;
  }
  std::vector<bool> seen_completed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_completed_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<TableChunk> chunks_;
  std::vector<bool> seen_completed_;
  const std::atomic<bool>* completed_;
};

TEST(EngineSessionTest, FitOnceSynthesizeTwiceReproducesTwoFullRuns) {
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  const KaminoConfig config = TestConfig(77);

  // Two independent full runs at the same seed.
  auto full1 = RunKamino(ds.table, constraints, config);
  auto full2 = RunKamino(ds.table, constraints, config);
  ASSERT_TRUE(full1.ok()) << full1.status();
  ASSERT_TRUE(full2.ok()) << full2.status();

  // One fit, two default synthesis requests: each must reproduce a full
  // run bit for bit — sampling is pure post-processing on an immutable
  // artifact, so the second request sees the same model as the first.
  KaminoEngine engine;
  auto model = engine.Fit(ds.table, constraints, config);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model.value().epsilon_spent(), full1.value().epsilon_spent);
  EXPECT_EQ(model.value().input_rows(), ds.table.num_rows());

  auto synth1 = engine.Synthesize(model.value(), {});
  auto synth2 = engine.Synthesize(model.value(), {});
  ASSERT_TRUE(synth1.ok()) << synth1.status();
  ASSERT_TRUE(synth2.ok()) << synth2.status();
  ExpectSameTable(full1.value().synthetic, synth1.value().synthetic);
  ExpectSameTable(full2.value().synthetic, synth2.value().synthetic);
}

TEST(EngineSessionTest, RequestSeedGivesIndependentDeterministicStreams) {
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(80, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoEngine engine;
  auto model = engine.Fit(ds.table, constraints, TestConfig(31));
  ASSERT_TRUE(model.ok()) << model.status();

  SynthesisRequest seeded;
  seeded.seed = 5;
  auto a = engine.Synthesize(model.value(), seeded);
  auto b = engine.Synthesize(model.value(), seeded);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectSameTable(a.value().synthetic, b.value().synthetic);

  SynthesisRequest other;
  other.seed = 9;
  auto c = engine.Synthesize(model.value(), other);
  ASSERT_TRUE(c.ok());
  bool identical = true;
  for (size_t r = 0; r < a.value().synthetic.num_rows() && identical; ++r) {
    for (size_t col = 0; col < a.value().synthetic.num_columns(); ++col) {
      if (!(a.value().synthetic.at(r, col) ==
            c.value().synthetic.at(r, col))) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical) << "different request seeds produced equal tables";

  // A shard override is part of the output contract and composes with the
  // request seed deterministically.
  SynthesisRequest sharded = seeded;
  sharded.num_shards = 2;
  auto d = engine.Synthesize(model.value(), sharded);
  auto e = engine.Synthesize(model.value(), sharded);
  ASSERT_TRUE(d.ok() && e.ok());
  EXPECT_EQ(d.value().telemetry.num_shards, 2u);
  ExpectSameTable(d.value().synthetic, e.value().synthetic);
}

TEST(EngineSessionTest, FittedModelOutlivesTheInputTable) {
  ScopedNumThreads threads(1);
  KaminoEngine engine;
  FittedModel model;
  {
    // The private instance lives only in this scope: Fit must copy what
    // it needs (the model owns its schema), because a session hands the
    // artifact around long after the data is gone.
    auto ds = std::make_unique<BenchmarkDataset>(MakeAdultLike(80, 13));
    auto constraints =
        ParseConstraints(ds->dc_specs, ds->hardness, ds->table.schema())
            .TakeValue();
    auto fitted = engine.Fit(ds->table, constraints, TestConfig(31));
    ASSERT_TRUE(fitted.ok()) << fitted.status();
    model = fitted.value();
  }
  SynthesisRequest request;
  request.num_rows = 25;
  auto result = engine.Synthesize(model, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().synthetic.num_rows(), 25u);
}

TEST(EngineSessionTest, SynchronousStreamingDeliversOrderedChunks) {
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoEngine engine;
  auto model = engine.Fit(ds.table, constraints, TestConfig(77));
  ASSERT_TRUE(model.ok()) << model.status();

  RecordingSink sink;
  SynthesisRequest request;
  request.num_shards = 4;
  request.sink = &sink;
  auto result = engine.Synthesize(model.value(), request);
  ASSERT_TRUE(result.ok()) << result.status();

  // The delivery-order contract: one chunk per shard, ascending offsets,
  // tiling [0, n), `last` exactly on the final chunk, and every chunk's
  // rows equal to the final table's slice (rows are delivered only after
  // reconciliation finished with them).
  const Table& out = result.value().synthetic;
  const std::vector<TableChunk> chunks = sink.chunks();
  ASSERT_EQ(chunks.size(), 4u);
  size_t expected_offset = 0;
  for (size_t s = 0; s < chunks.size(); ++s) {
    EXPECT_EQ(chunks[s].shard, s);
    EXPECT_EQ(chunks[s].row_offset, expected_offset);
    EXPECT_EQ(chunks[s].last, s + 1 == chunks.size());
    for (size_t r = 0; r < chunks[s].rows.num_rows(); ++r) {
      for (size_t c = 0; c < out.num_columns(); ++c) {
        ASSERT_TRUE(chunks[s].rows.at(r, c) ==
                    out.at(expected_offset + r, c))
            << "streamed chunk diverged from the final table";
      }
    }
    expected_offset += chunks[s].rows.num_rows();
  }
  EXPECT_EQ(expected_offset, out.num_rows());
}

TEST(ConfigValidateTest, RejectsNonsensicalKnobs) {
  BenchmarkDataset ds = MakeAdultLike(40, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();

  auto expect_invalid = [&](KaminoConfig config, const char* what) {
    auto result = RunKamino(ds.table, constraints, config);
    ASSERT_FALSE(result.ok()) << "accepted " << what;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << what;
    runtime::SetGlobalNumThreads(0);
  };

  KaminoConfig config = TestConfig(3);
  config.options.quantize_bins = 0;
  expect_invalid(config, "quantize_bins = 0");

  config = TestConfig(3);
  config.options.accept_reject = true;
  config.options.ar_max_tries = 0;
  expect_invalid(config, "accept_reject with ar_max_tries = 0");

  config = TestConfig(3);
  config.options.non_private = false;
  config.epsilon = 0.0;
  expect_invalid(config, "epsilon = 0 on a private run");

  config = TestConfig(3);
  config.options.non_private = false;
  config.delta = 0.0;
  expect_invalid(config, "delta = 0 on a private run");

  config = TestConfig(3);
  config.options.non_private = false;
  config.options.sigma_d = 0.0;
  expect_invalid(config, "sigma_d = 0 on a private run");

  config = TestConfig(3);
  config.options.embed_dim = 0;
  expect_invalid(config, "embed_dim = 0");

  // epsilon is explicitly ignored (and so not validated) when the run is
  // non-private: the epsilon = infinity ablations set it to anything.
  config = TestConfig(3);
  config.epsilon = -1.0;
  KaminoEngine engine;
  auto ok = engine.Fit(ds.table, constraints, config);
  EXPECT_TRUE(ok.ok()) << ok.status();
  runtime::SetGlobalNumThreads(0);
}

TEST(EngineJobTest, AsyncJobMatchesSynchronousRun) {
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoEngine engine;
  auto model = engine.Fit(ds.table, constraints, TestConfig(77));
  ASSERT_TRUE(model.ok()) << model.status();

  SynthesisRequest request;
  request.num_shards = 2;
  auto golden = engine.Synthesize(model.value(), request);
  ASSERT_TRUE(golden.ok()) << golden.status();

  auto job = engine.Submit(model.value(), request);
  auto result = job->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectSameTable(golden.value().synthetic, result.value().synthetic);

  EXPECT_TRUE(job->finished());
  const SynthesisJob::Progress progress = job->progress();
  EXPECT_EQ(progress.phase, SynthesisJob::Phase::kDone);
  EXPECT_EQ(progress.rows_total, ds.table.num_rows());
  EXPECT_EQ(progress.rows_sampled, ds.table.num_rows());
  EXPECT_EQ(progress.rows_committed, ds.table.num_rows());

  // Wait() is idempotent: a second call returns the same result.
  auto again = job->Wait();
  ASSERT_TRUE(again.ok());
  ExpectSameTable(result.value().synthetic, again.value().synthetic);

  // Every delivery setting through both entry points: spilled, compressed
  // chunks to a sink, no table collected. Both deliver the same payloads.
  RecordingSink sync_sink;
  RecordingSink async_sink;
  SynthesisRequest streamed;
  streamed.num_shards = 4;
  streamed.out_of_core = true;
  streamed.compress_chunks = true;
  streamed.collect_table = false;
  streamed.sink = &sync_sink;
  auto sync_run = engine.Synthesize(model.value(), streamed);
  ASSERT_TRUE(sync_run.ok()) << sync_run.status();
  streamed.sink = &async_sink;
  auto async_run = engine.Submit(model.value(), streamed)->Wait();
  ASSERT_TRUE(async_run.ok()) << async_run.status();
  const std::vector<TableChunk> sync_chunks = sync_sink.chunks();
  const std::vector<TableChunk> async_chunks = async_sink.chunks();
  ASSERT_EQ(sync_chunks.size(), 4u);
  ASSERT_EQ(async_chunks.size(), sync_chunks.size());
  for (size_t k = 0; k < sync_chunks.size(); ++k) {
    EXPECT_TRUE(sync_chunks[k].compressed());
    EXPECT_EQ(async_chunks[k].row_offset, sync_chunks[k].row_offset);
    EXPECT_EQ(async_chunks[k].encoded_rows, sync_chunks[k].encoded_rows);
    EXPECT_EQ(async_chunks[k].last, sync_chunks[k].last);
    EXPECT_EQ(async_chunks[k].encoded, sync_chunks[k].encoded)
        << "chunk " << k << " payload differs between Synthesize and Submit";
  }
  for (const SynthesisResult* run : {&sync_run.value(), &async_run.value()}) {
    EXPECT_EQ(run->synthetic.num_rows(), 0u);
    EXPECT_GT(run->telemetry.first_chunk_seconds, 0.0);
  }
  const SynthesisTelemetry& a = sync_run.value().telemetry;
  const SynthesisTelemetry& b = async_run.value().telemetry;
  EXPECT_EQ(a.spill_blocks, b.spill_blocks);
  EXPECT_EQ(a.spilled_rows, b.spilled_rows);
  EXPECT_EQ(a.merge_prefix_freezes, b.merge_prefix_freezes);
  EXPECT_EQ(a.merge_cross_violations, b.merge_cross_violations);
  // No table is kept, so nothing is spilled.
  EXPECT_EQ(a.spill_blocks, 0);
  EXPECT_EQ(a.spilled_rows, 0);
}

TEST(EngineJobTest, UnusableSpillDirFailsOnlyTheSpillingRun) {
  // A collecting out-of-core run whose spill directory cannot be created
  // fails with kIoError, through both entry points; the engine stays
  // usable, and the runs that spill nothing succeed on the same model.
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(80, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  char file_template[] = "/tmp/kamino-spill-parent-XXXXXX";
  const int fd = ::mkstemp(file_template);
  ASSERT_GE(fd, 0);
  ::close(fd);
  KaminoConfig config = TestConfig(77);
  config.options.spill_dir = file_template;  // a file, not a directory
  KaminoEngine engine;
  auto model = engine.Fit(ds.table, constraints, config);
  ASSERT_TRUE(model.ok()) << model.status();

  SynthesisRequest spilling;
  spilling.num_shards = 2;
  spilling.out_of_core = true;
  auto failed = engine.Synthesize(model.value(), spilling);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  auto failed_job = engine.Submit(model.value(), spilling)->Wait();
  ASSERT_FALSE(failed_job.ok());
  EXPECT_EQ(failed_job.status().code(), StatusCode::kIoError);

  SynthesisRequest in_memory;
  in_memory.num_shards = 2;
  auto collected = engine.Synthesize(model.value(), in_memory);
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_EQ(collected.value().synthetic.num_rows(), ds.table.num_rows());

  RecordingSink sink;
  SynthesisRequest streamed = spilling;
  streamed.collect_table = false;
  streamed.sink = &sink;
  auto streamed_run = engine.Submit(model.value(), streamed)->Wait();
  ASSERT_TRUE(streamed_run.ok()) << streamed_run.status();
  Table delivered(ds.table.schema());
  for (const TableChunk& chunk : sink.chunks()) {
    delivered.AppendRowsFrom(chunk.rows, 0, chunk.num_rows());
  }
  ExpectSameTable(collected.value().synthetic, delivered);
  EXPECT_EQ(streamed_run.value().telemetry.spill_blocks, 0);
  ::unlink(file_template);
}

TEST(EngineJobTest, StreamingSinkDeliversBeforeJobCompletion) {
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoEngine engine;
  auto model = engine.Fit(ds.table, constraints, TestConfig(77));
  ASSERT_TRUE(model.ok()) << model.status();

  std::atomic<bool> wait_returned{false};
  RecordingSink sink(&wait_returned);
  SynthesisRequest request;
  request.num_shards = 4;
  request.sink = &sink;
  request.collect_table = false;  // rows observable through the sink only
  auto job = engine.Submit(model.value(), request);
  auto result = job->Wait();
  wait_returned.store(true);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().synthetic.num_rows(), 0u);

  // Every chunk was delivered strictly before Wait() returned — i.e.
  // before job completion — and at least one chunk arrived on this
  // multi-shard run (the acceptance criterion).
  const std::vector<bool> seen = sink.seen_completed();
  ASSERT_GE(seen.size(), 1u);
  for (bool completed_at_delivery : seen) {
    EXPECT_FALSE(completed_at_delivery)
        << "a chunk was delivered after job completion";
  }
  EXPECT_EQ(sink.chunks().size(), 4u);
  EXPECT_EQ(job->progress().chunks_delivered, 4u);
  EXPECT_EQ(job->progress().rows_committed, ds.table.num_rows());
}

/// Blocks inside OnChunk until released, so tests can hold a job runner
/// mid-delivery deterministically.
class BlockingSink : public RowSink {
 public:
  Status OnChunk(const TableChunk& chunk) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++delivered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    (void)chunk;
    return Status::OK();
  }

  void WaitForFirstChunk() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return delivered_ > 0; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t delivered_ = 0;
  bool released_ = false;
};

TEST(EngineJobTest, CancelledQueuedJobIsSkippedWithoutRunning) {
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(80, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoEngine::Options opts;
  opts.max_concurrent_jobs = 1;  // one runner: job B queues behind job A
  KaminoEngine engine(opts);
  auto model = engine.Fit(ds.table, constraints, TestConfig(31));
  ASSERT_TRUE(model.ok()) << model.status();

  BlockingSink blocker;
  SynthesisRequest blocked;
  blocked.num_shards = 2;
  blocked.sink = &blocker;
  auto job_a = engine.Submit(model.value(), blocked);
  blocker.WaitForFirstChunk();  // the single runner is now held by A

  auto job_b = engine.Submit(model.value(), {});
  job_b->Cancel();  // still queued: must be skipped, never run
  blocker.Release();

  auto result_b = job_b->Wait();
  ASSERT_FALSE(result_b.ok());
  EXPECT_EQ(result_b.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(job_b->progress().phase, SynthesisJob::Phase::kCancelled);
  EXPECT_EQ(job_b->progress().rows_sampled, 0u) << "a skipped job ran";

  auto result_a = job_a->Wait();
  EXPECT_TRUE(result_a.ok()) << result_a.status();
}

/// Cancels a job handle from inside its own first chunk delivery, to pin
/// the cancellation point to a shard boundary.
class CancellingSink : public RowSink {
 public:
  Status OnChunk(const TableChunk&) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return job_ != nullptr; });
    ++delivered_;
    job_->Cancel();
    return Status::OK();
  }

  void SetJob(std::shared_ptr<SynthesisJob> job) {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = std::move(job);
    cv_.notify_all();
  }

  size_t delivered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return delivered_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<SynthesisJob> job_;
  size_t delivered_ = 0;
};

TEST(EngineJobTest, CancelStopsARunningJobAtAShardBoundary) {
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(80, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoEngine engine;
  auto model = engine.Fit(ds.table, constraints, TestConfig(31));
  ASSERT_TRUE(model.ok()) << model.status();

  CancellingSink sink;
  SynthesisRequest request;
  request.num_shards = 4;
  request.sink = &sink;
  auto job = engine.Submit(model.value(), request);
  sink.SetJob(job);

  // The sink cancels during the first delivery; the next shard-boundary
  // poll (before chunk 2) must stop the job — no deadlock, no partial
  // delivery beyond the boundary, a clean kCancelled result.
  auto result = job->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(sink.delivered(), 1u);
  EXPECT_EQ(job->progress().phase, SynthesisJob::Phase::kCancelled);
  EXPECT_EQ(job->progress().chunks_delivered, 1u);
}

TEST(EngineJobTest, ImmediateCancelNeverDeadlocks) {
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(80, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoEngine engine;
  auto model = engine.Fit(ds.table, constraints, TestConfig(31));
  ASSERT_TRUE(model.ok()) << model.status();

  SynthesisRequest request;
  request.num_shards = 4;
  auto job = engine.Submit(model.value(), request);
  job->Cancel();
  // Depending on timing the job is skipped, cancelled at a boundary, or
  // (rarely) already complete — but Wait() must always return.
  auto result = job->Wait();
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  EXPECT_TRUE(job->finished());
}

/// Rendezvous sink: every participating job waits at its first chunk
/// until all parties arrived (with a timeout escape so a test failure
/// surfaces as an assertion, not a hang).
class BarrierSink : public RowSink {
 public:
  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    size_t arrived = 0;
    size_t parties = 0;
  };

  BarrierSink(Barrier* barrier) : barrier_(barrier) {}

  Status OnChunk(const TableChunk& chunk) override {
    if (chunk.shard == 0) {
      std::unique_lock<std::mutex> lock(barrier_->mu);
      ++barrier_->arrived;
      barrier_->cv.notify_all();
      barrier_->cv.wait_for(lock, std::chrono::seconds(30), [this] {
        return barrier_->arrived >= barrier_->parties;
      });
    }
    return Status::OK();
  }

 private:
  Barrier* barrier_;
};

TEST(EngineJobTest, OverlappingJobsAtDifferentThreadBudgetsMatchGoldens) {
  // The concurrency contract core/kamino.h promises: concurrent runs are
  // safe even when they resize the global thread budget under each other,
  // because the budget only steers scheduling, never the output. Two
  // overlapping jobs at different budgets must both reproduce the tables
  // their requests produce in isolation.
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoEngine::Options opts;
  opts.max_concurrent_jobs = 2;
  KaminoEngine engine(opts);
  auto model = engine.Fit(ds.table, constraints, TestConfig(77));
  ASSERT_TRUE(model.ok()) << model.status();

  SynthesisRequest req_a;
  req_a.num_shards = 4;
  req_a.num_threads = 1;
  SynthesisRequest req_b;
  req_b.seed = 123;
  req_b.num_shards = 2;
  req_b.num_threads = 4;

  // Single-run goldens, computed in isolation first.
  SynthesisRequest golden_a = req_a;
  SynthesisRequest golden_b = req_b;
  golden_a.sink = nullptr;
  golden_b.sink = nullptr;
  auto want_a = engine.Synthesize(model.value(), golden_a);
  auto want_b = engine.Synthesize(model.value(), golden_b);
  ASSERT_TRUE(want_a.ok() && want_b.ok());

  // Overlap for real: both jobs rendezvous at their first chunk before
  // either may finish delivery.
  BarrierSink::Barrier barrier;
  barrier.parties = 2;
  BarrierSink sink_a(&barrier);
  BarrierSink sink_b(&barrier);
  req_a.sink = &sink_a;
  req_b.sink = &sink_b;
  auto job_a = engine.Submit(model.value(), req_a);
  auto job_b = engine.Submit(model.value(), req_b);
  auto got_a = job_a->Wait();
  auto got_b = job_b->Wait();
  runtime::SetGlobalNumThreads(0);
  ASSERT_TRUE(got_a.ok()) << got_a.status();
  ASSERT_TRUE(got_b.ok()) << got_b.status();
  {
    std::lock_guard<std::mutex> lock(barrier.mu);
    EXPECT_EQ(barrier.arrived, 2u) << "jobs did not actually overlap";
  }

  ExpectSameTable(want_a.value().synthetic, got_a.value().synthetic);
  ExpectSameTable(want_b.value().synthetic, got_b.value().synthetic);
}

TEST(EngineJobTest, EngineDestructorCancelsOutstandingJobs) {
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(80, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();

  std::shared_ptr<SynthesisJob> queued;
  BlockingSink blocker;
  std::atomic<bool> destroying{false};
  // The running job is blocked inside its sink; release it only once the
  // engine destructor is underway (after its cancel sweep), so the runner
  // wakes straight into a cancellation point instead of finishing the
  // delivery and starting the queued job.
  std::thread releaser([&] {
    while (!destroying.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    blocker.Release();
  });
  {
    KaminoEngine::Options opts;
    opts.max_concurrent_jobs = 1;
    KaminoEngine engine(opts);
    auto model = engine.Fit(ds.table, constraints, TestConfig(31));
    ASSERT_TRUE(model.ok()) << model.status();

    SynthesisRequest blocked;
    blocked.num_shards = 2;
    blocked.sink = &blocker;
    auto running = engine.Submit(model.value(), blocked);
    blocker.WaitForFirstChunk();
    queued = engine.Submit(model.value(), {});
    destroying.store(true);
  }  // ~KaminoEngine cancels both jobs, then drains the queue
  releaser.join();
  // The queued handle outlives the engine and resolves as cancelled
  // (skipped before running) — never deadlocks.
  auto result = queued->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace kamino
