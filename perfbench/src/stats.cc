#include "perfbench/src/stats.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace kamino::perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

EndToEndSummary Summarize(const std::vector<JobSample>& jobs) {
  EndToEndSummary out;
  std::vector<double> job_s, first_s;
  double total_s = 0.0;
  size_t rows = 0;
  for (const JobSample& j : jobs) {
    job_s.push_back(j.job_s);
    first_s.push_back(j.first_chunk_s);
    total_s += j.job_s;
    rows += j.rows;
  }
  out.job_p50_s = Median(job_s);
  out.first_chunk_p50_s = Median(first_s);
  out.rows_per_s = total_s > 0.0 ? static_cast<double>(rows) / total_s : 0.0;
  return out;
}

double HistogramMedian(const std::vector<double>& bounds,
                       const std::vector<int64_t>& buckets) {
  int64_t total = 0;
  for (int64_t b : buckets) total += b;
  if (total == 0 || buckets.size() != bounds.size() + 1) return 0.0;
  const double half = 0.5 * static_cast<double>(total);
  double below = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double count = static_cast<double>(buckets[i]);
    if (count > 0.0 && below + count >= half) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      if (i == bounds.size()) return lo;
      return lo + (bounds[i] - lo) * (half - below) / count;
    }
    below += count;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> SelfTimesUs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  // Child intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;  // parent dropped: s is a root
    const SpanRecord& p = spans[it->second];
    const double lo = std::max(s.ts_us, p.ts_us);
    const double hi = std::min(s.ts_us + s.dur_us, p.ts_us + p.dur_us);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    double union_us = 0.0;
    double end = -1e300;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, end);
      if (hi > from) union_us += hi - from;
      end = std::max(end, hi);
    }
    self[i] = std::max(0.0, spans[i].dur_us - union_us);
  }
  return self;
}

std::vector<int> AssignToJobs(const std::vector<SpanRecord>& spans,
                              const std::string& job_name) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<size_t> jobs;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == job_name) jobs.push_back(i);
  }
  std::vector<int> out(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    // Walk up the parent chain; the hop bound guards a malformed cycle.
    size_t at = i;
    for (size_t hops = 0; hops <= spans.size(); ++hops) {
      if (spans[at].name == job_name) {
        out[i] = static_cast<int>(at);
        break;
      }
      auto it = spans[at].parent == 0 ? by_id.end()
                                      : by_id.find(spans[at].parent);
      if (it == by_id.end()) break;
      at = it->second;
    }
    if (out[i] >= 0) continue;
    // A root outside every job's own tree: attribute by time.
    const double ts = spans[at].ts_us;
    for (size_t j : jobs) {
      if (ts >= spans[j].ts_us && ts <= spans[j].ts_us + spans[j].dur_us) {
        out[i] = static_cast<int>(j);
        break;
      }
    }
  }
  return out;
}

}  // namespace kamino::perfbench
