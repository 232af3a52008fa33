#ifndef KAMINO_PERFBENCH_STATS_H_
#define KAMINO_PERFBENCH_STATS_H_

// The benchmark's arithmetic, kept apart from the engine calls so the
// self-tests (selftest.cc) can check it on hand-built inputs: medians,
// the end-to-end summary of a closed-loop job list, a histogram median,
// and per-span self time with job attribution over a trace snapshot.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kamino::perfbench {

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty list.
double Median(std::vector<double> values);

/// One closed-loop job as the client saw it.
struct JobSample {
  /// Submit to Wait returning.
  double job_s = 0.0;
  /// Submit to the first OnChunk call.
  double first_chunk_s = 0.0;
  /// Rows the sink received.
  size_t rows = 0;
};

struct EndToEndSummary {
  double job_p50_s = 0.0;
  double first_chunk_p50_s = 0.0;
  /// Rows delivered divided by summed job wall time (not the mean of
  /// per-job rates: a slow job weighs by its duration).
  double rows_per_s = 0.0;
};

EndToEndSummary Summarize(const std::vector<JobSample>& jobs);

/// Median of a fixed-boundary histogram (`bounds` ascending upper bounds,
/// `buckets` one longer, the last bucket unbounded), interpolated
/// linearly inside the bucket that holds it; the first bucket starts at
/// 0 and the unbounded one reports its lower bound. 0 when empty.
double HistogramMedian(const std::vector<double>& bounds,
                       const std::vector<int64_t>& buckets);

/// One complete span of a trace snapshot (instant events are left out).
struct SpanRecord {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
  uint64_t id = 0;
  /// Span open on the same thread when this one began; 0 for a root.
  uint64_t parent = 0;
  /// The "shard" annotation, or -1 without one.
  int64_t shard = -1;
};

/// Self time of every span in microseconds: its duration minus the part
/// of it covered by the union of its children's intervals. A child is a
/// span whose `parent` names it (always the same thread). Spans on other
/// threads never reduce a span's self time, however they overlap it, and
/// a span whose parent is not in the list (a dropped event) is a root.
std::vector<double> SelfTimesUs(const std::vector<SpanRecord>& spans);

/// For every span, the index in `spans` of the job span (`name ==
/// job_name`) it belongs to, or -1. A span belongs to the job span it
/// descends from through parent links; a root that descends from none
/// (a worker-thread span, or one whose parent was dropped) belongs to
/// the job span whose interval contains its start.
std::vector<int> AssignToJobs(const std::vector<SpanRecord>& spans,
                              const std::string& job_name);

}  // namespace kamino::perfbench

#endif  // KAMINO_PERFBENCH_STATS_H_
