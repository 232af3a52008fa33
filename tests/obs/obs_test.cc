// Tests for the observability layer (kamino/obs/): metrics registry
// concurrency and merge determinism, span nesting/parenting, capacity
// bounds, well-formedness of the exported JSON, and the engine-level
// span tree a fit + async synthesize is expected to produce.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "kamino/core/kamino.h"
#include "kamino/data/generators.h"
#include "kamino/obs/metrics.h"
#include "kamino/obs/trace.h"
#include "kamino/runtime/thread_pool.h"
#include "kamino/service/engine.h"

namespace kamino {
namespace {

/// Minimal recursive-descent JSON validator: accepts exactly the RFC 8259
/// grammar (objects, arrays, strings with escapes, numbers, true/false/
/// null) and nothing else. Enough to assert the exported metrics/trace
/// documents are loadable by any real parser.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!Digits()) return false;
    if (Peek() == '.') {
      ++pos_;
      if (!Digits()) return false;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!Digits()) return false;
    }
    return pos_ > start;
  }

  bool Digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// Restores the global recorder to a pristine disabled state when a trace
/// test scope ends (tests may share a process when the binary runs
/// directly rather than under ctest's per-test discovery).
class ScopedGlobalTracing {
 public:
  ScopedGlobalTracing() {
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::Global().SetEnabled(true);
  }
  ~ScopedGlobalTracing() {
    obs::TraceRecorder::Global().SetEnabled(false);
    obs::TraceRecorder::Global().SetCapacity(size_t{1} << 20);
    obs::TraceRecorder::Global().Clear();
  }
};

class ScopedGlobalMetrics {
 public:
  ScopedGlobalMetrics() {
    obs::MetricsRegistry::Global().Reset();
    obs::MetricsRegistry::Global().SetEnabled(true);
  }
  ~ScopedGlobalMetrics() {
    obs::MetricsRegistry::Global().SetEnabled(false);
    obs::MetricsRegistry::Global().Reset();
  }
};

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  obs::MetricsRegistry registry;
  registry.SetEnabled(true);
  obs::Counter* counter = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(registry.Snapshot().counters.at("test.hits"),
            int64_t{kThreads} * kPerThread);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsWrites) {
  obs::MetricsRegistry registry;  // disabled by default
  registry.counter("test.c")->Increment(5);
  registry.histogram("test.h", {1.0, 2.0})->Record(1.5);
  registry.gauge("test.g")->Add(3);
  EXPECT_EQ(registry.counter("test.c")->Value(), 0);
  EXPECT_EQ(registry.histogram("test.h", {})->Snapshot().count, 0);
  EXPECT_EQ(registry.gauge("test.g")->Value(), 0);
  // Absolute Set is the exception: a level written while disabled must be
  // correct in the first snapshot, not stuck at a stale zero.
  registry.gauge("test.g")->Set(7);
  EXPECT_EQ(registry.gauge("test.g")->Value(), 7);
}

TEST(MetricsRegistryTest, HistogramBucketsSamplesByUpperBound) {
  obs::MetricsRegistry registry;
  registry.SetEnabled(true);
  obs::Histogram* hist = registry.histogram("test.h", {1.0, 10.0, 100.0});
  for (const double v : {0.5, 1.0, 5.0, 10.0, 42.0, 1000.0}) hist->Record(v);
  const obs::HistogramSnapshot snap = hist->Snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2);  // 0.5, 1.0 (bucket counts <= bound)
  EXPECT_EQ(snap.buckets[1], 2);  // 5.0, 10.0
  EXPECT_EQ(snap.buckets[2], 1);  // 42.0
  EXPECT_EQ(snap.buckets[3], 1);  // 1000.0 -> +inf bucket
  EXPECT_EQ(snap.count, 6);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 5.0 + 10.0 + 42.0 + 1000.0);
}

TEST(MetricsRegistryTest, HistogramMergeIsDeterministic) {
  // The same recorded multiset must snapshot to the same struct no matter
  // which threads recorded which samples: concurrent writers land in
  // different stripes, the merge walks stripes in fixed order.
  auto run = [](int rotate) {
    obs::MetricsRegistry registry;
    registry.SetEnabled(true);
    obs::Histogram* hist = registry.histogram("test.h", {1.0, 10.0});
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([hist, t, rotate] {
        for (int i = 0; i < 1000; ++i) {
          hist->Record(static_cast<double>((i + t + rotate) % 20));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return hist->Snapshot();
  };
  const obs::HistogramSnapshot a = run(0);
  const obs::HistogramSnapshot b = run(0);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
}

TEST(MetricsRegistryTest, FirstHistogramRegistrationBoundsWin) {
  obs::MetricsRegistry registry;
  obs::Histogram* first = registry.histogram("test.h", {1.0, 2.0});
  obs::Histogram* again = registry.histogram("test.h", {9.0});
  EXPECT_EQ(first, again);
  EXPECT_EQ(again->Snapshot().bounds, (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, SnapshotJsonIsWellFormed) {
  obs::MetricsRegistry registry;
  registry.SetEnabled(true);
  registry.counter("test.counter \"quoted\\name\"")->Increment(3);
  registry.gauge("test.gauge")->Set(-4);
  registry.histogram("test.hist", {0.5, 1.5})->Record(1.0);
  const std::string json = registry.ToJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesEveryMetricAndKeepsHandles) {
  obs::MetricsRegistry registry;
  registry.SetEnabled(true);
  obs::Counter* counter = registry.counter("test.c");
  obs::Histogram* hist = registry.histogram("test.h", {1.0});
  counter->Increment(9);
  hist->Record(0.5);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(hist->Snapshot().count, 0);
  counter->Increment();  // handle still live after Reset
  EXPECT_EQ(counter->Value(), 1);
}

TEST(TraceRecorderTest, SpansRecordNestingAndParentage) {
  ScopedGlobalTracing tracing;
  {
    obs::TraceSpan outer("outer");
    {
      obs::TraceSpan inner("inner");
      obs::TraceInstant("tick");
    }
    obs::TraceSpan sibling("sibling");
  }
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 4u);
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* sibling = nullptr;
  const obs::TraceEvent* tick = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "sibling") sibling = &e;
    if (e.name == "tick") tick = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(sibling->parent, outer->id);
  EXPECT_EQ(tick->parent, inner->id);
  EXPECT_EQ(tick->ph, 'i');
  // The inner span's [ts, ts+dur] range nests inside the outer's.
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
}

TEST(TraceRecorderTest, FinishReturnsElapsedEvenWhenDisabled) {
  ASSERT_FALSE(obs::TraceRecorder::Global().enabled());
  obs::TraceRecorder::Global().Clear();
  obs::TraceSpan span("unrecorded");
  const double seconds = span.Finish();
  EXPECT_GE(seconds, 0.0);
  EXPECT_EQ(span.Finish(), seconds);  // idempotent
  EXPECT_TRUE(obs::TraceRecorder::Global().Snapshot().empty());
}

TEST(TraceRecorderTest, CapacityBoundsBufferAndCountsDrops) {
  ScopedGlobalTracing tracing;
  obs::TraceRecorder::Global().SetCapacity(8);
  for (int i = 0; i < 50; ++i) {
    obs::TraceSpan span("tiny");
  }
  EXPECT_LE(obs::TraceRecorder::Global().Snapshot().size(), 8u);
  EXPECT_GT(obs::TraceRecorder::Global().dropped(), 0u);
}

TEST(TraceRecorderTest, ConcurrentSpansFromManyThreadsAllRecorded) {
  ScopedGlobalTracing tracing;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::TraceSpan span("worker");
        span.AddArg("i", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Snapshot();
  EXPECT_EQ(events.size(), size_t{kThreads} * kPerThread);
  // Span ids are unique across threads.
  std::vector<uint64_t> ids;
  ids.reserve(events.size());
  for (const obs::TraceEvent& e : events) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(TraceRecorderTest, TraceJsonIsWellFormed) {
  ScopedGlobalTracing tracing;
  {
    obs::TraceSpan span("outer \"escaped\\name\"");
    span.AddArg("rows", 150);
    obs::TraceInstant("tick");
  }
  const std::string json = obs::TraceRecorder::Global().ToJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(ObsEngineTest, FitAndAsyncSynthesizeProduceExpectedSpanTree) {
  ScopedGlobalTracing tracing;
  ScopedGlobalMetrics metrics;
  runtime::SetGlobalNumThreads(2);

  BenchmarkDataset ds = MakeAdultLike(80, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 6;
  config.options.seed = 11;
  config.options.enable_tracing = true;
  config.options.enable_metrics = true;

  KaminoEngine engine;
  auto model = engine.Fit(ds.table, constraints, config);
  ASSERT_TRUE(model.ok()) << model.status();

  class CountingSink : public RowSink {
   public:
    Status OnChunk(const TableChunk& chunk) override {
      rows += chunk.num_rows();
      ++chunks;
      return Status::OK();
    }
    size_t rows = 0;
    size_t chunks = 0;
  };
  CountingSink sink;
  SynthesisRequest request;
  request.seed = 5;
  request.num_shards = 3;
  request.sink = &sink;
  auto job = engine.Submit(model.value(), request);
  ASSERT_GT(job->id(), 0u);
  auto result = job->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(sink.rows, 80u);
  EXPECT_EQ(sink.chunks, 3u);

  const std::string trace = engine.DumpTrace();
  JsonChecker checker(trace);
  EXPECT_TRUE(checker.Valid());
  for (const char* name :
       {"\"fit\"", "\"fit/sequencing\"", "\"fit/parameter_search\"",
        "\"fit/training\"", "\"fit/weights\"", "\"service/job\"",
        "\"synthesize\"", "\"sampler/shard\"", "\"sampler/prefix_merge\"",
        "\"sampler/chunk\""}) {
    EXPECT_NE(trace.find(name), std::string::npos)
        << "span " << name << " missing from the exported trace";
  }

  // The per-shard sampling and chunk delivery nest under the job span.
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Snapshot();
  uint64_t job_span = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "service/job") job_span = e.id;
  }
  ASSERT_NE(job_span, 0u);
  bool synthesize_under_job = false;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "synthesize" && e.parent == job_span) {
      synthesize_under_job = true;
    }
  }
  EXPECT_TRUE(synthesize_under_job);

  const std::string metrics_json = engine.DumpMetrics();
  JsonChecker metrics_checker(metrics_json);
  EXPECT_TRUE(metrics_checker.Valid());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_GE(reg.counter("kamino.service.jobs_submitted")->Value(), 1);
  EXPECT_GE(reg.counter("kamino.service.jobs_done")->Value(), 1);
  EXPECT_GE(reg.counter("kamino.service.rows_delivered")->Value(), 80);
  EXPECT_GE(reg.counter("kamino.sampler.rows_sampled")->Value(), 80);
  EXPECT_EQ(reg.counter("kamino.sampler.shards_sampled")->Value(), 3);
  EXPECT_GE(reg.counter("kamino.jobqueue.done")->Value(), 1);

  runtime::SetGlobalNumThreads(0);
}

TEST(ObsEngineTest, ValidateRejectsTracingWithZeroCapacity) {
  KaminoOptions options;
  options.enable_tracing = true;
  options.trace_capacity_events = 0;
  const Status status = options.Validate();
  EXPECT_FALSE(status.ok());
  options.trace_capacity_events = 1;
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace kamino
