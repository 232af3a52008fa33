// Tests for the parallel execution runtime: ParallelFor correctness under
// contention, Status/exception propagation, deterministic RNG streams, and
// the end-to-end guarantee that RunKamino output is bit-identical at any
// thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/core/kamino.h"
#include "kamino/data/generators.h"
#include "kamino/dc/constraint.h"
#include "kamino/runtime/parallel_for.h"
#include "kamino/runtime/rng_stream.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

using runtime::ParallelFor;
using runtime::ParallelForEach;
using runtime::RngStream;
using runtime::SetGlobalNumThreads;
using runtime::ThreadPool;

/// Restores the global thread budget when a test scope ends, so tests do
/// not leak their setting into each other.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n) { SetGlobalNumThreads(n); }
  ~ScopedNumThreads() { SetGlobalNumThreads(0); }
};

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  const int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (done.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done.load() == kTasks; });
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnceUnderContention) {
  ScopedNumThreads threads(4);
  const size_t n = 100000;
  std::vector<int> hits(n, 0);
  std::atomic<long long> sum{0};
  ParallelForEach(0, n, 97, [&](size_t i) {
    ++hits[i];  // disjoint slots: no synchronization needed
    sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ParallelForTest, ChunkBoundariesIndependentOfThreadCount) {
  auto chunks_at = [](size_t num_threads) {
    ScopedNumThreads threads(num_threads);
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> chunks;
    Status st = ParallelFor(3, 250, 17, [&](size_t lo, size_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(lo, hi);
      return Status::OK();
    });
    EXPECT_TRUE(st.ok());
    return chunks;
  };
  const auto serial = chunks_at(1);
  const auto parallel = chunks_at(4);
  EXPECT_EQ(serial, parallel);
  // Chunks tile [3, 250) without gap or overlap.
  size_t expected_lo = 3;
  for (const auto& [lo, hi] : serial) {
    EXPECT_EQ(lo, expected_lo);
    EXPECT_LE(hi, 250u);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 250u);
}

TEST(ParallelForTest, PropagatesFirstErrorInSerialOrder) {
  ScopedNumThreads threads(4);
  Status st = ParallelFor(0, 1000, 10, [&](size_t lo, size_t /*hi*/) {
    if (lo >= 500) {
      return Status::InvalidArgument("chunk " + std::to_string(lo));
    }
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // The failing chunk with the smallest begin index wins, as a serial
  // loop would report, regardless of which thread failed first.
  EXPECT_EQ(st.message(), "chunk 500");
}

TEST(ParallelForTest, ConvertsExceptionsToInternalStatus) {
  ScopedNumThreads threads(4);
  Status st = ParallelFor(0, 64, 8, [&](size_t lo, size_t /*hi*/) -> Status {
    if (lo == 32) throw std::runtime_error("boom");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("boom"), std::string::npos);
}

TEST(ParallelForTest, NestedLoopsRunInlineWithoutDeadlock) {
  ScopedNumThreads threads(4);
  std::atomic<long long> sum{0};
  ParallelForEach(0, 16, 1, [&](size_t i) {
    // A body that itself fans out must not block on the saturated pool.
    ParallelForEach(0, 100, 7, [&](size_t j) {
      sum.fetch_add(static_cast<long long>(i * 100 + j),
                    std::memory_order_relaxed);
    });
  });
  long long expected = 0;
  for (size_t i = 0; i < 16; ++i) {
    for (size_t j = 0; j < 100; ++j) expected += i * 100 + j;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelForTest, EmptyRangeIsOkAndNeverInvokesBody) {
  ScopedNumThreads threads(4);
  bool invoked = false;
  Status st = ParallelFor(5, 5, 1, [&](size_t, size_t) {
    invoked = true;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(invoked);
}

TEST(RngStreamTest, SubSeedsAreDeterministicAndDistinct) {
  RngStream a(42), b(42), c(43);
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.SubSeed(i), b.SubSeed(i));
    seen.insert(a.SubSeed(i));
    EXPECT_NE(a.SubSeed(i), c.SubSeed(i));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions among adjacent streams
  EXPECT_NE(a.SubSeed(0), a.root());
  EXPECT_EQ(a.Fork(7).root(), a.SubSeed(7));
}

TEST(RngStreamTest, StreamsYieldIndependentDrawSequences) {
  RngStream stream(2024);
  Rng r0(stream.SubSeed(0));
  Rng r1(stream.SubSeed(1));
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (r0.UniformInt(0, 1 << 30) == r1.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

/// Runs the full pipeline on a soft-DC workload (exercising the parallel
/// violation matrix, DP-SGD gradients and batched MCMC) at the given
/// thread budget.
KaminoResult RunPipelineWithThreads(size_t num_threads) {
  BenchmarkDataset ds = MakeBr2000Like(80, 11);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema());
  KAMINO_CHECK(constraints.ok());
  KaminoConfig config;
  config.options.non_private = true;  // keep the test fast and focused
  config.options.iterations = 8;
  config.options.weight_iterations = 10;
  config.options.mcmc_resamples = 50;  // spans two MCMC batches
  config.options.seed = 99;
  config.options.num_threads = num_threads;
  auto result = RunKamino(ds.table, constraints.value(), config);
  KAMINO_CHECK(result.ok()) << result.status();
  return std::move(result).TakeValue();
}

TEST(RuntimeDeterminismTest, RunKaminoOutputIdenticalAcrossThreadCounts) {
  const KaminoResult serial = RunPipelineWithThreads(1);
  const KaminoResult parallel = RunPipelineWithThreads(4);
  SetGlobalNumThreads(0);

  EXPECT_EQ(serial.timings.num_threads, 1u);
  EXPECT_EQ(parallel.timings.num_threads, 4u);
  EXPECT_GT(parallel.telemetry.mcmc_batches, 0);

  ASSERT_EQ(serial.synthetic.num_rows(), parallel.synthetic.num_rows());
  ASSERT_EQ(serial.synthetic.num_columns(), parallel.synthetic.num_columns());
  ASSERT_EQ(serial.dc_weights, parallel.dc_weights);
  ASSERT_EQ(serial.sequence, parallel.sequence);
  for (size_t r = 0; r < serial.synthetic.num_rows(); ++r) {
    for (size_t c = 0; c < serial.synthetic.num_columns(); ++c) {
      ASSERT_TRUE(serial.synthetic.at(r, c) == parallel.synthetic.at(r, c))
          << "cell (" << r << ", " << c << ") diverged: "
          << serial.synthetic.CellToString(r, c) << " vs "
          << parallel.synthetic.CellToString(r, c);
    }
  }
}

// --- The cancellable-job queue (the async-serving substrate). ---

using runtime::CancelToken;
using runtime::JobQueue;

TEST(JobQueueTest, RunsJobsInSubmissionOrder) {
  std::mutex mu;
  std::vector<int> order;
  JobQueue queue(1);  // one runner: strict FIFO
  std::vector<std::shared_ptr<JobQueue::Job>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(queue.Submit([&mu, &order, i](const CancelToken&) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    }));
  }
  for (const auto& job : jobs) {
    EXPECT_EQ(job->Wait(), JobQueue::JobState::kDone);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(JobQueueTest, CancelledQueuedJobIsSkippedWithoutRunning) {
  // Declared before the queue so they outlive its runner thread.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool first_running = false;
  JobQueue queue(1);
  auto first = queue.Submit([&](const CancelToken&) {
    std::unique_lock<std::mutex> lock(mu);
    first_running = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    // The single runner is now (or will be) held by the first job.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return first_running; });
  }
  std::atomic<bool> second_ran{false};
  auto second =
      queue.Submit([&](const CancelToken&) { second_ran.store(true); });
  second->Cancel();
  EXPECT_EQ(second->state(), JobQueue::JobState::kQueued);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(first->Wait(), JobQueue::JobState::kDone);
  EXPECT_EQ(second->Wait(), JobQueue::JobState::kSkipped);
  EXPECT_FALSE(second_ran.load()) << "a skipped job body ran";
}

TEST(JobQueueTest, RunningJobObservesItsToken) {
  // Declared before the queue so they outlive its runner thread.
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  std::atomic<bool> saw_cancel{false};
  JobQueue queue(1);
  auto job = queue.Submit([&](const CancelToken& token) {
    {
      std::lock_guard<std::mutex> lock(mu);
      started = true;
    }
    cv.notify_all();
    while (!token.cancel_requested()) std::this_thread::yield();
    saw_cancel.store(true);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  job->Cancel();
  // A running job completes as kDone — the body decides what a cancelled
  // run produces; the queue only transports the request.
  EXPECT_EQ(job->Wait(), JobQueue::JobState::kDone);
  EXPECT_TRUE(saw_cancel.load());
}

TEST(JobQueueTest, DestructorSkipsQueuedJobsAndJoinsRunners) {
  std::shared_ptr<JobQueue::Job> running;
  std::shared_ptr<JobQueue::Job> waiting;
  std::atomic<bool> waiting_ran{false};
  std::atomic<bool> destroying{false};
  // Declared before the queue scope: the job body uses them, so they must
  // outlive the runner thread (the queue destructor joins it last).
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  // The running job spins on its token; release it only once destruction
  // is underway, so the destructor provably orphans the queued job while
  // the runner is still busy (rather than racing it to the queue).
  std::thread releaser([&] {
    while (!destroying.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    running->Cancel();
  });
  {
    JobQueue queue(1);
    running = queue.Submit([&](const CancelToken& token) {
      {
        std::lock_guard<std::mutex> lock(mu);
        started = true;
      }
      cv.notify_all();
      while (!token.cancel_requested()) std::this_thread::yield();
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return started; });
    }
    waiting = queue.Submit(
        [&](const CancelToken&) { waiting_ran.store(true); });
    destroying.store(true);
  }  // ~JobQueue: skips `waiting`, then joins once `running` winds down
  releaser.join();
  EXPECT_EQ(running->Wait(), JobQueue::JobState::kDone);
  EXPECT_EQ(waiting->Wait(), JobQueue::JobState::kSkipped);
  EXPECT_FALSE(waiting_ran.load());
}

}  // namespace
}  // namespace kamino
