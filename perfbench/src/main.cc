// Service-level synthesis benchmark: drives `KaminoEngine` the way a
// client does — a closed loop, one client, one job in flight, each job a
// Submit then a Wait with rows streamed into a RowSink — and prints every
// metric by name and unit, ending with one JSON result line. See
// perfbench/README.md for the workloads and the metric catalogue.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--smoke]
//   perfbench --selftest
//   perfbench --catalog
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// reports the per-layer metrics from a traced run plus layer probes.
// Every run ends with an untimed verification job whose rows are
// checked; a failed job or check makes the exit code non-zero.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "kamino/data/chunk_codec.h"
#include "kamino/data/generators.h"
#include "kamino/dc/violations.h"
#include "kamino/obs/metrics.h"
#include "kamino/obs/trace.h"
#include "kamino/service/engine.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/stats.h"

namespace kamino::perfbench {

int RunSelfTests();  // selftest.cc

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Metric catalogue: the names, units and order of the result line. The
// same list is in BENCHMARK.json (run.py --selftest compares them).

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"rows_per_s", "1/s"},
      {"job_p50_s", "s"},
      {"first_chunk_p50_s", "s"},
      {"peak_rss_mb", "MB"},
      {"marginal_1way_dist", "ratio"},
      {"marginal_2way_dist", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"service.dispatch_s", "s"},
      {"service.drain_s", "s"},
      {"service.sampling_s", "s"},
      {"fit.sequencing_s", "s"},
      {"fit.parameter_search_s", "s"},
      {"fit.training_s", "s"},
      {"fit.weights_s", "s"},
      {"sampler.shard_s", "s"},
      {"sampler.shard0_s", "s"},
      {"sampler.chunk_s", "s"},
      {"sampler.rows_sampled", "count"},
      {"merge.freeze_s", "s"},
      {"merge.freeze0_s", "s"},
      {"merge.cross_violations", "count"},
      {"merge.conflict_rows", "count"},
      {"merge.resamples", "count"},
      {"merge.resamples_per_conflict_row", "ratio"},
      {"merge.early_stops", "count"},
      {"merge.fd_rewrites", "count"},
      {"merge.order_alignments", "count"},
      {"merge.live_row_scans", "count"},
      {"merge.frozen_row_scans", "count"},
      {"merge.pair_scan_share", "ratio"},
      {"nn.predict_categorical_us", "us"},
      {"nn.predict_gaussian_us", "us"},
      {"nn.discriminative_units", "count"},
      {"dc.count_new_us.fd", "us"},
      {"dc.count_new_us.order", "us"},
      {"dc.count_new_us.other", "us"},
      {"dc.add_row_us", "us"},
      {"dc.pair_scan_ns", "ns"},
      {"dc.count_against_s", "s"},
      {"data.encode_mb_s", "MB/s"},
      {"data.decode_mb_s", "MB/s"},
      {"data.compression_ratio", "ratio"},
      {"store.spill_s", "s"},
      {"store.spill_bytes", "bytes"},
      {"store.spill_blocks", "count"},
      {"store.peak_resident_rows", "rows"},
      {"store.append_mb_s", "MB/s"},
      {"store.read_mb_s", "MB/s"},
      {"runtime.task_p50_s", "s"},
      {"runtime.queue_depth_max", "count"},
      {"sampler.parallel_score_dispatches", "count"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"obs.dropped_events", "count"},
  };
  return defs;
}

// ---------------------------------------------------------------------
// Workloads. Each is a behaviour: the input, the request shape and the
// thread budget; the knob names below are how the library spells that
// behaviour today.

struct Workload {
  const char* name;
  bool tax;               // MakeTaxLike input, else MakeAdultLike
  size_t request_rows;    // rows per job
  size_t shards;          // request.num_shards
  size_t threads;         // engine and request thread budget
  bool progressive;       // chunk emitted as each shard freezes
  bool out_of_core;       // frozen slices spilled to the store
  bool compress_chunks;   // chunks travel as codec payloads
  bool collect_table;     // result also carries the whole table
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = {
      {"seq_adult", false, 4800, 1, 1, false, false, false, false},
      {"stream_adult", false, 4800, 4, 2, true, false, false, false},
      {"ooc_tax", true, 1200, 4, 2, true, true, true, true},
  };
  return all;
}

/// Input rows every workload fits on.
constexpr size_t kInputRows = 600;
/// Sizes of the smoke mode, which runs every path at toy scale.
constexpr size_t kSmokeInputRows = 160;
constexpr size_t kSmokeRequestRows = 320;
/// Inputs per run: each is generated and fitted in its own set-up
/// (`setup_s` is their median), and the closed loop walks them in turn,
/// so a run's figures do not hang on one input's model.
constexpr size_t kPanelInputs = 12;
/// Request seeds generated per run; jobs walk the list in order.
constexpr size_t kRequestSeeds = 64;
/// Pair-sampling seeds the 2-way marginal distance is averaged over.
constexpr uint64_t kMarginalPairSeeds = 8;

struct RunConfig {
  Workload workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/perfbench-work";

  size_t input_rows() const { return smoke ? kSmokeInputRows : kInputRows; }
  size_t request_rows() const {
    return smoke ? kSmokeRequestRows : workload.request_rows;
  }
};

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The run's request seeds, a pure function of the benchmark seed (never
/// 0, which would resume the fit's own RNG stream instead).
std::vector<uint64_t> RequestSeeds(uint64_t seed) {
  uint64_t state = seed ^ 0x5eed5eed5eed5eedull;
  std::vector<uint64_t> seeds;
  while (seeds.size() < kRequestSeeds) {
    const uint64_t s = SplitMix64(&state);
    if (s != 0) seeds.push_back(s);
  }
  return seeds;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Set-up: input generation, engine construction and Fit.

struct Session {
  BenchmarkDataset input;
  std::unique_ptr<KaminoEngine> engine;
  FittedModel model;
  double seconds = 0.0;
};

/// Seed of input `p` of the run's panel; input 0 is the benchmark seed's
/// own (the one the verification job and the traced run use).
uint64_t PanelSeed(uint64_t seed, size_t p) {
  uint64_t state = seed + 0x9a9e1ull * p;
  return p == 0 ? seed : SplitMix64(&state);
}

KaminoConfig FitConfig(const RunConfig& rc, uint64_t input_seed,
                       bool traced) {
  KaminoConfig config = bench::BenchKaminoConfig(1.0, input_seed * 2 + 1);
  config.options.num_threads = rc.workload.threads;
  config.options.spill_dir = rc.work_dir;
  config.options.enable_tracing = traced;
  config.options.enable_metrics = traced;
  return config;
}

Result<Session> SetUp(const RunConfig& rc, uint64_t input_seed, bool traced) {
  Session s;
  const auto t0 = Clock::now();
  s.input = rc.workload.tax ? MakeTaxLike(rc.input_rows(), input_seed)
                            : MakeAdultLike(rc.input_rows(), input_seed);
  KaminoEngine::Options options;
  options.num_threads = rc.workload.threads;
  options.max_concurrent_jobs = 1;
  s.engine = std::make_unique<KaminoEngine>(options);
  obs::TraceSpan span("bench/fit");
  KAMINO_ASSIGN_OR_RETURN(
      s.model, s.engine->Fit(s.input.table, bench::Constraints(s.input),
                             FitConfig(rc, input_seed, traced)));
  span.Finish();
  s.seconds = SecondsBetween(t0, Clock::now());
  return s;
}

// ---------------------------------------------------------------------
// The client: sink, one job, verification.

/// Clocks chunk arrival, checks the streaming contract (ascending,
/// gapless, exactly-once tiling of [0, n) with `last` on the final
/// chunk), and keeps the rows when asked to.
class BenchSink : public RowSink {
 public:
  BenchSink(const Schema& schema, bool keep) : keep_(keep), rows_(schema) {}

  Status OnChunk(const TableChunk& chunk) override {
    obs::TraceSpan span("bench/on_chunk");
    const Clock::time_point now = Clock::now();
    if (chunks_ == 0) first_ = now;
    if (chunk.row_offset != delivered_ || saw_last_ ||
        chunk.shard != chunks_) {
      tiling_ok_ = false;
    }
    delivered_ += chunk.num_rows();
    saw_last_ = chunk.last;
    ++chunks_;
    if (keep_) {
      if (chunk.compressed()) {
        Result<Table> decoded =
            DecodeChunkColumns(chunk.rows.schema(), chunk.encoded);
        if (!decoded.ok()) return decoded.status();
        rows_.AppendRowsFrom(decoded.value(), 0, decoded.value().num_rows());
      } else {
        rows_.AppendRowsFrom(chunk.rows, 0, chunk.rows.num_rows());
      }
    }
    last_return_ = Clock::now();
    return Status::OK();
  }

  bool TiledExactly(size_t rows, size_t shards) const {
    return tiling_ok_ && saw_last_ && delivered_ == rows && chunks_ == shards;
  }

  size_t delivered() const { return delivered_; }
  size_t chunks() const { return chunks_; }
  Clock::time_point first() const { return first_; }
  Clock::time_point last_return() const { return last_return_; }
  const Table& rows() const { return rows_; }

 private:
  bool keep_;
  Table rows_;
  size_t delivered_ = 0;
  size_t chunks_ = 0;
  bool saw_last_ = false;
  bool tiling_ok_ = true;
  Clock::time_point first_;
  Clock::time_point last_return_;
};

struct JobOutcome {
  Status status;
  bool tiled = false;
  JobSample sample;
  /// Last OnChunk return to Wait return.
  double drain_s = 0.0;
  SynthesisResult result;
};

SynthesisRequest MakeRequest(const RunConfig& rc, uint64_t seed,
                             size_t threads, RowSink* sink) {
  SynthesisRequest req;
  req.num_rows = rc.request_rows();
  req.seed = seed;
  req.num_shards = rc.workload.shards;
  req.num_threads = threads;
  req.sink = sink;
  req.progressive_merge = rc.workload.progressive;
  req.out_of_core = rc.workload.out_of_core;
  req.compress_chunks = rc.workload.compress_chunks;
  req.collect_table = rc.workload.collect_table;
  return req;
}

JobOutcome RunJob(const RunConfig& rc, Session* s, uint64_t seed,
                  size_t threads, BenchSink* sink) {
  JobOutcome out;
  const SynthesisRequest req = MakeRequest(rc, seed, threads, sink);
  const Clock::time_point t0 = Clock::now();
  std::shared_ptr<SynthesisJob> job;
  {
    obs::TraceSpan span("bench/submit");
    job = s->engine->Submit(s->model, req);
  }
  Result<SynthesisResult> result = [&] {
    obs::TraceSpan span("bench/wait");
    return job->Wait();
  }();
  const Clock::time_point t1 = Clock::now();
  out.status = result.status();
  out.tiled = sink->TiledExactly(req.num_rows, rc.workload.shards);
  out.sample.job_s = SecondsBetween(t0, t1);
  out.sample.first_chunk_s = sink->chunks() > 0
                                  ? SecondsBetween(t0, sink->first())
                                  : out.sample.job_s;
  out.sample.rows = sink->delivered();
  out.drain_s = sink->chunks() > 0 ? SecondsBetween(sink->last_return(), t1)
                                   : 0.0;
  if (result.ok()) out.result = std::move(result).TakeValue();
  return out;
}

struct Verdict {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;

  void Job(const JobOutcome& job, const char* what) {
    ++attempted;
    if (!job.status.ok()) {
      ++failed;
      failures.push_back(std::string(what) + ": " + job.status.ToString());
    } else if (!job.tiled) {
      ++failed;
      failures.push_back(std::string(what) + ": chunks did not tile [0, n)");
    }
  }
};

/// The untimed verification job and its checks. Returns the delivered
/// rows (empty on failure).
Table Verify(const RunConfig& rc, Session* s, uint64_t seed, Verdict* v) {
  const size_t other_threads = rc.workload.threads > 1 ? 1 : 2;
  BenchSink sink(s->input.table.schema(), /*keep=*/true);
  const JobOutcome job = RunJob(rc, s, seed, rc.workload.threads, &sink);
  v->Job(job, "verification job");
  BenchSink ref_sink(s->input.table.schema(), /*keep=*/true);
  const JobOutcome ref = RunJob(rc, s, seed, other_threads, &ref_sink);
  v->Job(ref, "verification job (other thread count)");
  const size_t failed_before = v->failures.size();
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) v->failures.push_back("verification: " + what);
  };
  if (job.status.ok() && ref.status.ok()) {
    const Table& rows = sink.rows();
    check(rows.num_rows() == rc.request_rows(), "row count");
    for (const WeightedConstraint& wc : s->model.artifacts().weighted) {
      if (!wc.hard) continue;
      const int64_t fast = CountViolations(wc.dc, rows);
      const int64_t naive = CountViolationsNaive(wc.dc, rows);
      check(fast == 0 && naive == 0,
            "hard DC violated: CountViolations=" + std::to_string(fast) +
                " CountViolationsNaive=" + std::to_string(naive));
    }
    char digests[96];
    std::snprintf(digests, sizeof(digests), "%016" PRIx64 " vs %016" PRIx64,
                  TableDigest(rows), TableDigest(ref_sink.rows()));
    check(SameBits(rows, ref_sink.rows()),
          std::string("row digest differs across thread counts: ") + digests);
    if (rc.workload.collect_table) {
      check(SameBits(rows, job.result.synthetic),
            "collected table differs from the delivered chunks");
    }
  }
  // A verification job whose checks fail counts as a failed job.
  if (v->failures.size() > failed_before && job.status.ok() && job.tiled) {
    ++v->failed;
  }
  return sink.rows();
}

/// Harness MarginalQuality (Metric III) of `rows` against `input`: the
/// 1-way and 2-way mean distances. One call scores 10 sampled attribute
/// pairs; the mean over fixed pair-sampling seeds covers most pairs, so
/// the 2-way figure tracks the rows rather than which pairs were drawn.
std::pair<double, double> MarginalDistances(const Table& rows,
                                            const Table& input) {
  double one_way = 0.0, two_way = 0.0;
  for (uint64_t pair_seed = 1; pair_seed <= kMarginalPairSeeds; ++pair_seed) {
    const bench::MarginalSummary m =
        bench::MarginalQuality(rows, input, pair_seed);
    one_way += m.one_way_mean / kMarginalPairSeeds;
    two_way += m.two_way_mean / kMarginalPairSeeds;
  }
  return {one_way, two_way};
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

/// Sets up the run's panel of inputs, one fitted session each.
Result<std::vector<std::unique_ptr<Session>>> SetUpPanel(
    const RunConfig& rc, size_t size, std::vector<double>* seconds) {
  std::vector<std::unique_ptr<Session>> panel;
  for (size_t p = 0; p < size; ++p) {
    KAMINO_ASSIGN_OR_RETURN(Session s,
                            SetUp(rc, PanelSeed(rc.seed, p), /*traced=*/false));
    seconds->push_back(s.seconds);
    panel.push_back(std::make_unique<Session>(std::move(s)));
  }
  return panel;
}

int RunEndToEnd(const RunConfig& rc, MetricMap* metrics, Verdict* v) {
  std::vector<double> setups;
  Result<std::vector<std::unique_ptr<Session>>> made =
      SetUpPanel(rc, rc.smoke ? 2 : kPanelInputs, &setups);
  if (!made.ok()) {
    v->failures.push_back("set-up: " + made.status().ToString());
    return 1;
  }
  const std::vector<std::unique_ptr<Session>> panel =
      std::move(made).TakeValue();
  (*metrics)["setup_s"] = Median(setups);

  // The closed loop walks the panel and the request seeds together; the
  // first pass over the panel also keeps its rows for the marginals.
  const std::vector<uint64_t> seeds = RequestSeeds(rc.seed);
  std::vector<JobSample> samples;
  double one_way = 0.0, two_way = 0.0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;
       i < panel.size() || SecondsBetween(start, Clock::now()) < rc.seconds;
       ++i) {
    Session* s = panel[i % panel.size()].get();
    const bool keep = i < panel.size();
    BenchSink sink(s->input.table.schema(), keep);
    const JobOutcome job =
        RunJob(rc, s, seeds[i % seeds.size()], rc.workload.threads, &sink);
    v->Job(job, "measured job");
    if (job.status.ok()) samples.push_back(job.sample);
    if (keep) {
      const auto [one, two] = MarginalDistances(sink.rows(), s->input.table);
      one_way += one / static_cast<double>(panel.size());
      two_way += two / static_cast<double>(panel.size());
    }
    if (v->failed > 0) break;  // the run is failed; stop loading it
  }
  const EndToEndSummary sum = Summarize(samples);
  (*metrics)["rows_per_s"] = sum.rows_per_s;
  (*metrics)["job_p50_s"] = sum.job_p50_s;
  (*metrics)["first_chunk_p50_s"] = sum.first_chunk_p50_s;
  (*metrics)["peak_rss_mb"] = PeakRssMb();
  (*metrics)["marginal_1way_dist"] = one_way;
  (*metrics)["marginal_2way_dist"] = two_way;
  std::fprintf(stderr, "perfbench: %zu measured jobs over %zu inputs\n",
               samples.size(), panel.size());
  Verify(rc, panel[0].get(), seeds[0], v);
  return 0;
}

// ---------------------------------------------------------------------
// Traced run: the per-layer metrics.

std::vector<SpanRecord> SnapshotSpans() {
  std::vector<SpanRecord> spans;
  for (const obs::TraceEvent& e : obs::TraceRecorder::Global().Snapshot()) {
    if (e.ph != 'X') continue;
    SpanRecord s;
    s.name = e.name;
    s.ts_us = e.ts_us;
    s.dur_us = e.dur_us;
    s.tid = e.tid;
    s.id = e.id;
    s.parent = e.parent;
    for (const auto& [key, value] : e.args) {
      if (key == "shard") s.shard = value;
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

void SetObservability(bool on) {
  obs::TraceRecorder::Global().SetEnabled(on);
  obs::MetricsRegistry::Global().SetEnabled(on);
}

/// Polls the runtime queue-depth gauge while a traced job runs.
class QueueDepthPoller {
 public:
  QueueDepthPoller()
      : gauge_(obs::MetricsRegistry::Global().gauge(
            "kamino.runtime.queue_depth")),
        thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            max_ = std::max(max_.load(), gauge_->Value());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }) {}
  ~QueueDepthPoller() { Stop(); }
  QueueDepthPoller(const QueueDepthPoller&) = delete;
  QueueDepthPoller& operator=(const QueueDepthPoller&) = delete;

  int64_t Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return max_.load();
  }

 private:
  obs::Gauge* gauge_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> max_{0};
  std::thread thread_;
};

/// Per-layer values of one traced job.
MetricMap TracedJobMetrics(const JobOutcome& job, int64_t queue_depth_max,
                           std::vector<std::string>* failures) {
  MetricMap m;
  const SynthesisTelemetry& t = job.result.telemetry;
  m["service.dispatch_s"] =
      job.sample.first_chunk_s - t.first_chunk_seconds;
  m["service.drain_s"] = job.drain_s;
  m["service.sampling_s"] = job.result.sampling_seconds;

  const std::vector<SpanRecord> spans = SnapshotSpans();
  const std::vector<double> self = SelfTimesUs(spans);
  const std::vector<int> owner = AssignToJobs(spans, "service/job");
  for (const char* key :
       {"sampler.shard_s", "sampler.shard0_s", "sampler.chunk_s",
        "merge.freeze_s", "merge.freeze0_s", "store.spill_s"}) {
    m[key] = 0.0;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (owner[i] < 0) continue;
    const SpanRecord& s = spans[i];
    const double self_s = self[i] * 1e-6;
    if (s.name == "sampler/shard") {
      m["sampler.shard_s"] += self_s;
      if (s.shard == 0) m["sampler.shard0_s"] = s.dur_us * 1e-6;
    } else if (s.name == "sampler/chunk") {
      m["sampler.chunk_s"] += self_s;
    } else if (s.name == "sampler/prefix_merge") {
      m["merge.freeze_s"] += self_s;
      if (s.shard == 0) m["merge.freeze0_s"] = self_s;
    } else if (s.name == "sampler/spill") {
      m["store.spill_s"] += self_s;
    }
  }

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  auto counter = [&](const std::string& name) -> int64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const int64_t live_scans =
      counter("kamino.sampler.merge_penalty_live_row_scans");
  if (live_scans != t.merge_penalty_live_row_scans) {
    failures->push_back("trace: live_row_scans counter " +
                        std::to_string(live_scans) + " != telemetry " +
                        std::to_string(t.merge_penalty_live_row_scans));
  }
  // The freeze never re-reads a frozen row (the sampler's constant-memory
  // contract); a nonzero count is a broken program, not a slow one.
  if (t.merge_penalty_frozen_row_scans != 0) {
    failures->push_back("trace: frozen rows were re-scanned");
  }
  m["sampler.rows_sampled"] =
      static_cast<double>(counter("kamino.sampler.rows_sampled"));
  m["merge.cross_violations"] = static_cast<double>(t.merge_cross_violations);
  m["merge.conflict_rows"] = static_cast<double>(t.merge_conflict_rows);
  m["merge.resamples"] = static_cast<double>(t.merge_resamples);
  m["merge.resamples_per_conflict_row"] =
      t.merge_conflict_rows > 0
          ? static_cast<double>(t.merge_resamples) /
                static_cast<double>(t.merge_conflict_rows)
          : 0.0;
  m["merge.early_stops"] = static_cast<double>(t.merge_early_stops);
  m["merge.fd_rewrites"] = static_cast<double>(t.merge_fd_rewrites);
  m["merge.order_alignments"] = static_cast<double>(t.merge_order_alignments);
  m["merge.live_row_scans"] = static_cast<double>(live_scans);
  m["merge.frozen_row_scans"] = static_cast<double>(
      counter("kamino.sampler.merge_penalty_frozen_row_scans"));
  m["store.spill_bytes"] =
      static_cast<double>(counter("kamino.store.spill_bytes"));
  m["store.spill_blocks"] =
      static_cast<double>(counter("kamino.store.spill_blocks"));
  m["store.peak_resident_rows"] = static_cast<double>(t.peak_resident_rows);
  auto hist = snap.histograms.find("kamino.runtime.task_seconds");
  m["runtime.task_p50_s"] =
      hist == snap.histograms.end()
          ? 0.0
          : HistogramMedian(hist->second.bounds, hist->second.buckets);
  m["runtime.queue_depth_max"] = static_cast<double>(queue_depth_max);
  m["sampler.parallel_score_dispatches"] =
      static_cast<double>(t.parallel_score_dispatches);
  return m;
}

int RunTraced(const RunConfig& rc, MetricMap* metrics, Verdict* v) {
  // Two fits of the same input and config give the same model; one is
  // served untraced, the other with tracing and metrics on, so the two
  // job streams differ only in observability.
  Result<Session> plain = SetUp(rc, rc.seed, /*traced=*/false);
  if (!plain.ok()) {
    v->failures.push_back("set-up: " + plain.status().ToString());
    return 1;
  }
  Session s = std::move(plain).TakeValue();
  obs::TraceRecorder::Global().Clear();
  SetObservability(true);  // so the bench's own fit span records too
  obs::TraceSpan fit_span("bench/fit");
  Result<FittedModel> traced_model = s.engine->Fit(
      s.input.table, bench::Constraints(s.input), FitConfig(rc, rc.seed, true));
  fit_span.Finish();
  if (!traced_model.ok()) {
    v->failures.push_back("traced fit: " + traced_model.status().ToString());
    return 1;
  }
  {
    const std::vector<SpanRecord> spans = SnapshotSpans();
    const std::vector<double> self = SelfTimesUs(spans);
    for (const char* phase :
         {"sequencing", "parameter_search", "training", "weights"}) {
      double sum = 0.0;
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == std::string("fit/") + phase) sum += self[i];
      }
      (*metrics)[std::string("fit.") + phase + "_s"] = sum * 1e-6;
    }
  }
  const FittedModel untraced_model = s.model;

  const std::vector<uint64_t> seeds = RequestSeeds(rc.seed);
  std::vector<double> untraced_s, traced_s;
  std::vector<MetricMap> per_job;
  uint64_t dropped = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;
       per_job.size() < 2 || SecondsBetween(start, Clock::now()) < rc.seconds;
       ++i) {
    const uint64_t seed = seeds[(i / 2) % seeds.size()];
    BenchSink sink(s.input.table.schema(), /*keep=*/false);
    if (i % 2 == 0) {
      SetObservability(false);
      s.model = untraced_model;
      const JobOutcome job = RunJob(rc, &s, seed, rc.workload.threads, &sink);
      v->Job(job, "untraced job");
      if (job.status.ok()) untraced_s.push_back(job.sample.job_s);
    } else {
      obs::TraceRecorder::Global().Clear();
      obs::MetricsRegistry::Global().Reset();
      SetObservability(true);
      s.model = traced_model.value();
      QueueDepthPoller poller;
      const JobOutcome job = RunJob(rc, &s, seed, rc.workload.threads, &sink);
      const int64_t depth = poller.Stop();
      v->Job(job, "traced job");
      if (!job.status.ok()) break;
      traced_s.push_back(job.sample.job_s);
      per_job.push_back(TracedJobMetrics(job, depth, &v->failures));
      dropped += obs::TraceRecorder::Global().dropped();
    }
    if (v->failed > 0) break;
  }
  // Keep the last traced job's spans for inspection in Perfetto.
  const std::string trace_path =
      rc.work_dir + "/trace_" + rc.workload.name + ".json";
  if (FILE* f = std::fopen(trace_path.c_str(), "w")) {
    const std::string json = s.engine->DumpTrace();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  SetObservability(false);
  obs::TraceRecorder::Global().Clear();
  if (per_job.empty() || untraced_s.empty()) {
    v->failures.push_back("trace: no completed job pair");
    return 1;
  }
  if (dropped > 0) {
    v->failures.push_back("trace: " + std::to_string(dropped) +
                          " events dropped, per-layer figures incomplete");
  }

  for (const auto& [name, unused] : per_job.front()) {
    std::vector<double> values;
    for (const MetricMap& m : per_job) values.push_back(m.at(name));
    (*metrics)[name] = Median(values);
  }
  (*metrics)["obs.trace_overhead_ratio"] =
      Median(untraced_s) > 0.0 ? Median(traced_s) / Median(untraced_s) : 0.0;
  (*metrics)["obs.dropped_events"] = static_cast<double>(dropped);

  s.model = untraced_model;
  const Table rows = Verify(rc, &s, seeds[0], v);
  // The codec and store probes run only where the workload's jobs call
  // those layers; elsewhere their metrics stay 0.
  RunLayerProbes(s.model.artifacts(), rows, rc.work_dir,
                 /*codec_and_store=*/rc.workload.out_of_core, metrics,
                 &v->failures);
  const double freeze_s = (*metrics)["merge.freeze_s"];
  (*metrics)["merge.pair_scan_share"] =
      freeze_s > 0.0 ? (*metrics)["merge.live_row_scans"] *
                           (*metrics)["dc.pair_scan_ns"] * 1e-9 / freeze_s
                     : 0.0;
  return 0;
}

// ---------------------------------------------------------------------
// Output.

void PrintResult(const std::vector<MetricDef>& defs, const MetricMap& metrics,
                 const Verdict& v, bool correct) {
  auto value_of = [&](const char* name) {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
  };
  for (const MetricDef& d : defs) {
    std::printf("  %-36s %18.6g %s\n", d.name, value_of(d.name), d.unit);
  }
  std::printf("  %-36s %18.6g %s\n", "fail_ratio",
              v.attempted > 0 ? static_cast<double>(v.failed) /
                                    static_cast<double>(v.attempted)
                              : 1.0,
              "ratio");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<size_t>(1, v.attempted));
  json += ", \"failed\": " + std::to_string(v.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", value_of(defs[i].name));
    json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--smoke]\n"
               "       perfbench --selftest | --catalog\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig rc;
  std::string workload;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--selftest") return RunSelfTests();
    if (arg == "--catalog") {
      for (const Workload& w : Workloads()) {
        std::printf("workload %s\n", w.name);
      }
      for (const MetricDef& d : EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      }
      for (const MetricDef& d : PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", d.name, d.unit);
      }
      return 0;
    }
    if (arg == "--smoke") {
      rc.smoke = true;
      continue;
    }
    const char* value = next();
    if (value == nullptr) return Usage();
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      rc.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      rc.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      rc.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--work-dir") {
      rc.work_dir = value;
    } else {
      return Usage();
    }
  }
  bool found = false;
  for (const Workload& w : Workloads()) {
    if (workload == w.name) {
      rc.workload = w;
      found = true;
    }
  }
  if (!found || !have_seed || !(rc.seconds > 0.0)) return Usage();

  MetricMap metrics;
  Verdict v;
  const int rc_code = rc.trace ? RunTraced(rc, &metrics, &v)
                               : RunEndToEnd(rc, &metrics, &v);
  const std::vector<MetricDef>& defs =
      rc.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricDef& d : defs) {
    if (rc_code == 0 && metrics.count(d.name) == 0) {
      v.failures.push_back(std::string("metric not measured: ") + d.name);
    }
  }
  for (const std::string& f : v.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  if (rc_code != 0) return 1;
  const bool correct = v.failures.empty() && v.failed == 0;
  PrintResult(defs, metrics, v, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace kamino::perfbench

int main(int argc, char** argv) {
  return kamino::perfbench::Main(argc, argv);
}
