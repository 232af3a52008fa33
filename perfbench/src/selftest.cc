// Self-tests of the benchmark's own arithmetic (`perfbench --selftest`):
// medians, the end-to-end summary, the histogram median, and self time
// with job attribution over hand-built span lists that include
// cross-thread children and dropped events.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/stats.h"

namespace kamino::perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
  }
}

#define EXPECT_TRUE(cond) Expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b) \
  Expect(std::fabs((a) - (b)) < 1e-9, #a " ~= " #b, __LINE__)

SpanRecord Span(const char* name, uint64_t id, uint64_t parent, uint32_t tid,
                double ts, double dur, int64_t shard = -1) {
  SpanRecord s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.tid = tid;
  s.ts_us = ts;
  s.dur_us = dur;
  s.shard = shard;
  return s;
}

void TestMedian() {
  EXPECT_NEAR(Median({}), 0.0);
  EXPECT_NEAR(Median({4.0}), 4.0);
  EXPECT_NEAR(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_NEAR(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

void TestSummarize() {
  // rows_per_s divides summed rows by summed time: a 1 s and a 3 s job
  // of 100 rows each give 50 rows/s, not the 66.7 a mean of rates gives.
  std::vector<JobSample> jobs(2);
  jobs[0].job_s = 1.0;
  jobs[0].first_chunk_s = 0.25;
  jobs[0].rows = 100;
  jobs[1].job_s = 3.0;
  jobs[1].first_chunk_s = 0.75;
  jobs[1].rows = 100;
  const EndToEndSummary s = Summarize(jobs);
  EXPECT_NEAR(s.rows_per_s, 50.0);
  EXPECT_NEAR(s.job_p50_s, 2.0);
  EXPECT_NEAR(s.first_chunk_p50_s, 0.5);
  jobs.push_back(jobs[0]);
  EXPECT_NEAR(Summarize(jobs).job_p50_s, 1.0);
  EXPECT_NEAR(Summarize(jobs).rows_per_s, 300.0 / 5.0);
  EXPECT_NEAR(Summarize({}).rows_per_s, 0.0);
}

void TestHistogramMedian() {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  EXPECT_NEAR(HistogramMedian(bounds, {0, 0, 0, 0}), 0.0);
  // Half of 4 samples falls at the top of the (1, 2] bucket.
  EXPECT_NEAR(HistogramMedian(bounds, {0, 2, 2, 0}), 2.0);
  EXPECT_NEAR(HistogramMedian(bounds, {1, 0, 3, 0}), 2.0 + 2.0 / 3.0);
  EXPECT_NEAR(HistogramMedian(bounds, {2, 0, 0, 0}), 0.5);
  // The unbounded bucket reports its lower bound.
  EXPECT_NEAR(HistogramMedian(bounds, {0, 0, 0, 5}), 4.0);
  // A malformed bucket count is rejected, not read out of bounds.
  EXPECT_NEAR(HistogramMedian(bounds, {1, 1}), 0.0);
}

void TestSelfTime() {
  std::vector<SpanRecord> spans = {
      // A job on the runner thread (tid 0)...
      Span("service/job", 1, 0, 0, 0.0, 100.0),
      // ...with a freeze that emits a chunk, which calls the sink.
      Span("sampler/prefix_merge", 2, 1, 0, 10.0, 50.0, 0),
      Span("sampler/chunk", 3, 2, 0, 40.0, 15.0, 0),
      Span("bench/on_chunk", 4, 3, 0, 45.0, 5.0),
      // Two overlapping children of the job count once (union [60, 90)).
      Span("sampler/prefix_merge", 5, 1, 0, 60.0, 20.0, 1),
      Span("sampler/spill", 6, 1, 0, 70.0, 20.0, 1),
      // A worker-thread shard overlapping the job: a root by parent.
      Span("sampler/shard", 7, 0, 1, 5.0, 80.0, 0),
      // A span whose parent (id 99) was dropped: a root again.
      Span("sampler/chunk", 8, 99, 0, 95.0, 3.0),
      // A child sticking out of its parent is clipped to it.
      Span("sampler/chunk", 9, 7, 1, 80.0, 10.0),
      // A span after the job ends belongs to no job.
      Span("sampler/shard", 10, 0, 1, 150.0, 10.0),
  };
  const std::vector<double> self = SelfTimesUs(spans);
  EXPECT_NEAR(self[0], 100.0 - 50.0 - 30.0);  // job minus [10,60)+[60,90)
  EXPECT_NEAR(self[1], 50.0 - 15.0);          // freeze minus its chunk
  EXPECT_NEAR(self[2], 15.0 - 5.0);           // chunk minus the sink call
  EXPECT_NEAR(self[3], 5.0);
  EXPECT_NEAR(self[6], 80.0 - 5.0);  // worker shard minus clipped [80,85)
  EXPECT_NEAR(self[7], 3.0);         // dropped parent: nothing subtracted
  EXPECT_NEAR(self[9], 10.0);

  const std::vector<int> owner = AssignToJobs(spans, "service/job");
  EXPECT_TRUE(owner[0] == 0);
  EXPECT_TRUE(owner[3] == 0);  // via parent chain 4 -> 3 -> 2 -> 1
  EXPECT_TRUE(owner[6] == 0);  // worker root, by time
  EXPECT_TRUE(owner[7] == 0);  // dropped parent, by time
  EXPECT_TRUE(owner[8] == 0);  // child of a worker root, by its root's time
  EXPECT_TRUE(owner[9] == -1);

  // Two jobs back to back: time attribution picks the right one, and a
  // child whose job span was dropped falls back to time as well.
  std::vector<SpanRecord> two = {
      Span("service/job", 1, 0, 0, 0.0, 100.0),
      Span("service/job", 2, 0, 0, 200.0, 100.0),
      Span("sampler/shard", 3, 0, 1, 210.0, 50.0),
      Span("sampler/prefix_merge", 4, 2, 0, 260.0, 30.0),
      Span("sampler/prefix_merge", 5, 77, 0, 20.0, 30.0),
  };
  const std::vector<int> o2 = AssignToJobs(two, "service/job");
  EXPECT_TRUE(o2[2] == 1);
  EXPECT_TRUE(o2[3] == 1);
  EXPECT_TRUE(o2[4] == 0);
  const std::vector<double> s2 = SelfTimesUs(two);
  EXPECT_NEAR(s2[0], 100.0);  // the orphan (parent 77) is not its child
  EXPECT_NEAR(s2[1], 70.0);   // the worker shard is not its child either
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  TestMedian();
  TestSummarize();
  TestHistogramMedian();
  TestSelfTime();
  std::printf("perfbench selftest: %s (%d failures)\n",
              g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace kamino::perfbench
