// Session API: fit once, synthesize many, stream rows as they finalize.
//
// Builds the quickstart's toy employee table, fits a model through
// `KaminoEngine::Fit` (the only step that spends privacy budget), then
// shows the three ways to sample from it:
//
//   1. synchronous `Synthesize` — three independent instances from one
//      fit, each a pure function of its request seed;
//   2. an async `Submit` job with progress polling;
//   3. a streaming job whose `RowSink` receives `TableChunk`s as shards
//      clear reconciliation, before the job completes: each prefix
//      freezes and is emitted while later shards still sample.
//
// Pass a file path as the first argument to run with tracing + metrics
// enabled: the Chrome trace-event JSON of the whole session is written
// there (load it in Perfetto / chrome://tracing) and the metrics snapshot
// is printed to stdout.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "kamino/data/chunk_codec.h"
#include "kamino/data/table.h"
#include "kamino/dc/violations.h"
#include "kamino/service/engine.h"

namespace {

kamino::Table MakeEmployees(size_t n, uint64_t seed) {
  using kamino::Attribute;
  using kamino::Value;
  kamino::Rng rng(seed);
  std::vector<Attribute> attrs = {
      Attribute::MakeCategorical("dept", {"eng", "sales", "hr", "ops"}),
      Attribute::MakeCategorical("floor", {"f1", "f2", "f3", "f4"}),
      Attribute::MakeCategorical("level", {"junior", "senior", "staff"}),
      Attribute::MakeNumeric("salary", 40000, 200000, 1000),
      Attribute::MakeNumeric("bonus", 0, 40000, 100),
  };
  kamino::Table table((kamino::Schema(attrs)));
  for (size_t i = 0; i < n; ++i) {
    const int dept = static_cast<int>(rng.UniformInt(0, 3));
    const int level = static_cast<int>(rng.Discrete({0.5, 0.3, 0.2}));
    const double salary =
        50000 + 35000 * level + 8000 * dept + 5000 * rng.Gaussian();
    const double bonus =
        std::clamp(10000.0 * std::floor(salary / 50000.0), 0.0, 40000.0);
    kamino::Row row = {
        Value::Categorical(dept),
        Value::Categorical(dept),  // floor == dept index: hard FD
        Value::Categorical(level),
        Value::Numeric(std::clamp(salary, 40000.0, 200000.0)),
        Value::Numeric(bonus),
    };
    table.AppendRowUnchecked(std::move(row));
  }
  return table;
}

/// True when `a` and `b` hold the same cells, row for row.
bool SameCells(const kamino::Table& a, const kamino::Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!(a.at(r, c) == b.at(r, c))) return false;
    }
  }
  return true;
}

/// Prints each chunk as it arrives — a stand-in for a network writer.
class PrintingSink : public kamino::RowSink {
 public:
  kamino::Status OnChunk(const kamino::TableChunk& chunk) override {
    std::printf("    chunk: shard=%zu rows=[%zu, %zu)%s\n", chunk.shard,
                chunk.row_offset, chunk.row_offset + chunk.num_rows(),
                chunk.last ? "  (last)" : "");
    return kamino::Status::OK();
  }
};

/// Decodes compressed chunks back to rows and re-assembles the instance —
/// the receive side of a compressed stream.
class DecodingSink : public kamino::RowSink {
 public:
  kamino::Status OnChunk(const kamino::TableChunk& chunk) override {
    if (!chunk.compressed()) {
      return kamino::Status::InvalidArgument("expected a compressed chunk");
    }
    encoded_bytes_ += chunk.encoded.size();
    raw_bytes_ +=
        chunk.num_rows() * chunk.rows.schema().size() * sizeof(kamino::Value);
    auto rows =
        kamino::DecodeChunkColumns(chunk.rows.schema(), chunk.encoded);
    if (!rows.ok()) return rows.status();
    if (assembled_.num_rows() == 0) {
      assembled_ = kamino::Table(chunk.rows.schema());
    }
    assembled_.AppendRowsFrom(rows.value(), 0, rows.value().num_rows());
    ++chunks_;
    return kamino::Status::OK();
  }

  const kamino::Table& assembled() const { return assembled_; }
  size_t chunks() const { return chunks_; }
  size_t encoded_bytes() const { return encoded_bytes_; }
  size_t raw_bytes() const { return raw_bytes_; }

 private:
  kamino::Table assembled_;
  size_t chunks_ = 0;
  size_t encoded_bytes_ = 0;
  size_t raw_bytes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = argc > 1 ? argv[1] : nullptr;
  const kamino::Table truth = MakeEmployees(400, /*seed=*/7);
  const std::vector<std::string> specs = {
      "!(t1.dept == t2.dept & t1.floor != t2.floor)",
      "!(t1.salary > t2.salary & t1.bonus < t2.bonus)",
  };
  auto constraints =
      kamino::ParseConstraints(specs, {true, true}, truth.schema());
  if (!constraints.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 constraints.status().ToString().c_str());
    return 1;
  }

  kamino::KaminoConfig config;
  config.epsilon = 1.0;
  config.delta = 1e-6;
  config.options.seed = 42;
  config.options.iterations = 150;
  if (trace_path != nullptr) {
    config.options.enable_tracing = true;
    config.options.enable_metrics = true;
  }

  kamino::KaminoEngine engine;

  // --- Fit once: the entire privacy spend. ---
  auto model = engine.Fit(truth, constraints.value(), config);
  if (!model.ok()) {
    std::fprintf(stderr, "fit failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  std::printf("Kamino session service\n");
  std::printf("  fit: epsilon spent = %.3f (budget 1.0), train = %.2fs\n",
              model.value().epsilon_spent(),
              model.value().fit_timings().training);

  // --- Synthesize many: three instances, no additional privacy cost. ---
  std::printf("  synthesize-many (one fit, three instances):\n");
  for (uint64_t seed : {0ull, 11ull, 12ull}) {
    kamino::SynthesisRequest request;
    request.seed = seed;
    auto result = engine.Synthesize(model.value(), request);
    if (!result.ok()) {
      std::fprintf(stderr, "synthesize failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const auto& dc = constraints.value()[0].dc;
    std::printf("    seed=%llu: %zu rows in %.2fs, hard-FD violations %.3f%%\n",
                static_cast<unsigned long long>(seed),
                result.value().synthetic.num_rows(),
                result.value().sampling_seconds,
                kamino::ViolationRatePercent(dc, result.value().synthetic));
  }

  // --- Async job with progress polling. ---
  kamino::SynthesisRequest async_request;
  async_request.seed = 21;
  async_request.num_shards = 4;
  auto job = engine.Submit(model.value(), async_request);
  std::printf("  async job (4 shards): submitted\n");
  while (!job->finished()) {
    const auto p = job->progress();
    std::printf("    progress: phase=%d sampled=%zu/%zu committed=%zu\n",
                static_cast<int>(p.phase), p.rows_sampled, p.rows_total,
                p.rows_committed);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  auto async_result = job->Wait();
  if (!async_result.ok()) {
    std::fprintf(stderr, "job failed: %s\n",
                 async_result.status().ToString().c_str());
    return 1;
  }
  std::printf("    done: %zu rows, %lld cross-shard merge violations\n",
              async_result.value().synthetic.num_rows(),
              static_cast<long long>(
                  async_result.value().telemetry.merge_cross_violations));

  // --- Streaming delivery: each shard's chunk leaves as soon as the
  // prefix through it freezes, before later shards are done. The first
  // chunk should arrive well before the job finishes — `bound` is OK when
  // first-chunk latency is under 0.75x the job total. One thread runs the
  // shards inline (sample -> freeze -> emit, shard by shard), the schedule
  // the bound describes; with a thread per shard these small shards all
  // finish sampling at once and there is nothing left to overlap. The
  // thread budget is process-wide, so the jobs below also run on one
  // thread; their rows do not depend on it. ---
  PrintingSink sink;
  kamino::SynthesisRequest streaming;
  streaming.seed = 23;
  streaming.num_shards = 4;
  streaming.num_threads = 1;
  streaming.sink = &sink;
  streaming.collect_table = false;  // rows leave through the sink only
  std::printf("  streaming job (4 shards):\n");
  auto stream_job = engine.Submit(model.value(), streaming);
  auto stream_result = stream_job->Wait();
  if (!stream_result.ok()) {
    std::fprintf(stderr, "streaming job failed: %s\n",
                 stream_result.status().ToString().c_str());
    return 1;
  }
  {
    const auto& telemetry = stream_result.value().telemetry;
    const double first = telemetry.first_chunk_seconds;
    const double total = stream_result.value().sampling_seconds;
    std::printf("    delivered %zu chunks / %zu rows through the sink\n",
                stream_job->progress().chunks_delivered,
                stream_job->progress().rows_committed);
    std::printf(
        "    first_chunk=%.4fs job_total=%.4fs ratio=%.2f bound=%s\n",
        first, total, total > 0.0 ? first / total : 0.0,
        first < 0.75 * total ? "OK" : "SLOW");
    std::printf("    prefix freezes=%lld frozen_rows=%lld\n",
                static_cast<long long>(telemetry.merge_prefix_freezes),
                static_cast<long long>(telemetry.merge_frozen_rows));
  }

  // --- Out-of-core streaming: `out_of_core` keeps at most two shards in
  // flight. A run that collects its table still returns all n rows, cell
  // for cell the in-memory run's (same seed, same shard count). A run
  // that keeps no table streams the same rows with ~2 shard widths
  // resident at most. Neither writes to disk. ---
  kamino::SynthesisRequest in_memory_ref;
  in_memory_ref.seed = 23;
  in_memory_ref.num_shards = 4;
  auto in_memory_out = engine.Synthesize(model.value(), in_memory_ref);
  kamino::SynthesisRequest out_of_core = in_memory_ref;
  out_of_core.out_of_core = true;
  auto ooc_collected = engine.Synthesize(model.value(), out_of_core);
  DecodingSink ooc_sink;
  out_of_core.collect_table = false;
  out_of_core.compress_chunks = true;
  out_of_core.sink = &ooc_sink;
  std::printf("  out-of-core streaming job (4 shards):\n");
  auto ooc_streamed = engine.Synthesize(model.value(), out_of_core);
  if (!in_memory_out.ok() || !ooc_collected.ok() || !ooc_streamed.ok()) {
    std::fprintf(stderr, "out-of-core synthesis failed\n");
    return 1;
  }
  {
    const kamino::Table& mem_rows = in_memory_out.value().synthetic;
    const bool collected_same =
        SameCells(mem_rows, ooc_collected.value().synthetic);
    const bool streamed_same = SameCells(mem_rows, ooc_sink.assembled());
    const long long peak =
        ooc_streamed.value().telemetry.peak_resident_rows;
    const long long shard_width =
        static_cast<long long>((mem_rows.num_rows() + 3) / 4);
    const bool bounded = peak > 0 && peak <= 2 * shard_width;
    const bool ok = collected_same && streamed_same && bounded;
    std::printf(
        "    collected table identical=%s; no-table run streamed %zu rows "
        "in %zu chunks identical=%s, peak_resident_rows=%lld "
        "(bound 2x%lld), out_of_core=%s\n",
        collected_same ? "yes" : "no", ooc_sink.assembled().num_rows(),
        ooc_sink.chunks(), streamed_same ? "yes" : "no", peak, shard_width,
        ok ? "OK" : "MISMATCH");
    if (!ok) return 1;
  }

  // --- Compressed streaming: same rows, encoded per-column payloads. ---
  // The sink decodes every chunk and re-assembles the instance; a second
  // collect_table run with the same seed verifies the round trip.
  DecodingSink decoder;
  kamino::SynthesisRequest compressed;
  compressed.seed = 22;
  compressed.num_shards = 4;
  compressed.sink = &decoder;
  compressed.collect_table = true;
  compressed.compress_chunks = true;
  std::printf("  compressed streaming job (4 shards):\n");
  auto compressed_result = engine.Synthesize(model.value(), compressed);
  if (!compressed_result.ok()) {
    std::fprintf(stderr, "compressed streaming failed: %s\n",
                 compressed_result.status().ToString().c_str());
    return 1;
  }
  const kamino::Table& direct = compressed_result.value().synthetic;
  const kamino::Table& decoded = decoder.assembled();
  const bool round_trip = SameCells(direct, decoded);
  std::printf(
      "    compressed stream: %zu chunks, encoded=%zu bytes raw=%zu bytes "
      "(%.1fx), round_trip=%s\n",
      decoder.chunks(), decoder.encoded_bytes(), decoder.raw_bytes(),
      decoder.encoded_bytes() == 0
          ? 0.0
          : static_cast<double>(decoder.raw_bytes()) /
                static_cast<double>(decoder.encoded_bytes()),
      round_trip ? "OK" : "MISMATCH");
  if (!round_trip) return 1;

  // --- Model artifacts: save the fit, load it in a fresh engine, and
  // check the reloaded model synthesizes the exact same instance. ---
  const std::string artifact_path = "employees_model.kam";
  auto artifact_bytes = model.value().Serialize();
  if (!artifact_bytes.ok()) {
    std::fprintf(stderr, "serialize failed: %s\n",
                 artifact_bytes.status().ToString().c_str());
    return 1;
  }
  if (auto saved = model.value().Save(artifact_path); !saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  kamino::KaminoEngine fresh;  // no fit: the artifact carries everything
  if (auto loaded = fresh.LoadModel("employees", artifact_path);
      !loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  kamino::SynthesisRequest check;
  check.seed = 33;
  auto original_out = engine.Synthesize(model.value(), check);
  auto reloaded_out = fresh.Synthesize("employees", check);
  if (!original_out.ok() || !reloaded_out.ok()) {
    std::fprintf(stderr, "artifact check synthesis failed\n");
    return 1;
  }
  const kamino::Table& from_fit = original_out.value().synthetic;
  const kamino::Table& from_disk = reloaded_out.value().synthetic;
  const bool artifact_match = SameCells(from_fit, from_disk);
  std::printf("  artifact: %zu bytes, reloaded synthesis match=%s\n",
              artifact_bytes.value().size(), artifact_match ? "OK" : "MISMATCH");
  if (!artifact_match) return 1;

  // --- Observability dump (only when a trace path was given). ---
  if (trace_path != nullptr) {
    const std::string trace = engine.DumpTrace();
    std::FILE* f = std::fopen(trace_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path);
      return 1;
    }
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::printf("  trace: %zu bytes written to %s (open in Perfetto)\n",
                trace.size(), trace_path);
    std::printf("  metrics: %s\n", engine.DumpMetrics().c_str());
  }
  return 0;
}
