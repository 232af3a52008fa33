// Tests for out-of-core synthesis (SampleSpec::out_of_core): bounding
// the shards in flight to two must not change a single sampled bit
// relative to the in-memory sharded run at any thread or shard count,
// the sequential golden digest must survive the flag, hard DCs stay
// exact after every freeze, frozen rows are never re-scanned by the
// repair penalty kernel (the constant-memory contract, asserted by
// counters), a run that keeps no table stays within ~2 shard widths of
// resident rows while a collecting run holds all n, compressed chunks
// decode to the uncompressed rows, and no run, cancelled or not, leaves
// any entry under `spill_dir` (synthesis writes nothing to disk).

#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/core/kamino.h"
#include "kamino/core/sequencing.h"
#include "kamino/data/chunk_codec.h"
#include "kamino/data/generators.h"
#include "kamino/dc/violations.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n) { runtime::SetGlobalNumThreads(n); }
  ~ScopedNumThreads() { runtime::SetGlobalNumThreads(0); }
};

/// FNV-1a over an exact textual rendering of every cell, so equal digests
/// mean bit-identical tables (same hash as ProgressiveMergeTest).
uint64_t TableDigest(const Table& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const char* s) {
    for (; *s; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 1099511628211ull;
    }
  };
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Value& v = t.at(r, c);
      char buf[64];
      if (v.is_numeric()) {
        std::snprintf(buf, sizeof(buf), "n:%.17g;", v.numeric());
      } else {
        std::snprintf(buf, sizeof(buf), "c:%d;", v.category());
      }
      mix(buf);
    }
  }
  return h;
}

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

int64_t NaiveViolations(const DenialConstraint& dc, const Table& table) {
  std::unique_ptr<ViolationIndex> oracle = MakeNaiveViolationIndex(dc);
  int64_t total = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    total += oracle->CountNew(table.row(r));
    oracle->AddRow(table.row(r));
  }
  return total;
}

struct RunConfig {
  size_t num_threads = 1;
  size_t num_shards = 4;
  bool out_of_core = false;
  bool compress_chunks = false;
  bool collect_table = true;
};

struct RunOutput {
  Table out;
  SynthesisTelemetry telemetry;
  std::vector<TableChunk> chunks;
};

/// A model trained on one dataset with fixed seeds, so runs are
/// comparable across configs.
struct Trained {
  std::vector<WeightedConstraint> constraints;
  KaminoOptions options;
  ProbabilisticDataModel model;
};

Trained Train(const BenchmarkDataset& ds, size_t num_shards) {
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 8;
  options.mcmc_resamples = 40;
  options.seed = 77;
  options.num_shards = num_shards;
  Rng rng(77);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  return {std::move(constraints), options, std::move(model)};
}

/// Synthesizes `n` sharded rows from `trained`, with the threads and
/// delivery settings of `config`, capturing every chunk.
RunOutput RunMerge(const Trained& trained, size_t n, const RunConfig& config) {
  ScopedNumThreads threads(config.num_threads);
  RunOutput run;
  SynthesisHooks hooks;
  hooks.on_chunk = [&run](const TableChunk& chunk) {
    run.chunks.push_back(chunk);
    return Status::OK();
  };
  SampleSpec spec{n};
  spec.num_shards = config.num_shards;
  spec.out_of_core = config.out_of_core;
  spec.compress_chunks = config.compress_chunks;
  spec.collect_table = config.collect_table;
  Rng srng(17);
  run.out = Synthesize(trained.model, trained.constraints, trained.options,
                       spec, &srng, &run.telemetry, &hooks)
                .TakeValue();
  return run;
}

/// Trains on `ds` and runs `config` once.
RunOutput RunMerge(const BenchmarkDataset& ds, size_t n,
                   const RunConfig& config) {
  ScopedNumThreads threads(config.num_threads);
  return RunMerge(Train(ds, config.num_shards), n, config);
}

/// The rows of `chunk`, decoded when it travels compressed.
Table ChunkRows(const TableChunk& chunk) {
  if (!chunk.compressed()) return chunk.rows;
  return DecodeChunkColumns(chunk.rows.schema(), chunk.encoded).TakeValue();
}

TEST(OutOfCoreTest, BitIdenticalToInMemoryProgressiveAcrossThreadsAndShards) {
  // The acceptance grid: {1, 4} threads x {2, 4} shards x every delivery
  // setting (out_of_core x collect_table x compress_chunks) must deliver
  // the same rows, collect the same table and report the same merge
  // telemetry. Every collecting run holds all n rows at its peak; an
  // out-of-core run that keeps no table stays within 2 shard widths.
  const BenchmarkDataset ds = MakeAdultLike(100, 13);
  const size_t n = 120;
  const Trained trained = Train(ds, 1);
  for (const size_t num_shards : {size_t{2}, size_t{4}}) {
    const int64_t shard_width =
        static_cast<int64_t>((n + num_shards - 1) / num_shards);
    RunOutput baseline;
    bool have_baseline = false;
    for (const size_t num_threads : {size_t{1}, size_t{4}}) {
      for (const bool out_of_core : {false, true}) {
        for (const bool collect_table : {true, false}) {
          for (const bool compress_chunks : {false, true}) {
            RunConfig config;
            config.num_threads = num_threads;
            config.num_shards = num_shards;
            config.out_of_core = out_of_core;
            config.collect_table = collect_table;
            config.compress_chunks = compress_chunks;
            RunOutput run = RunMerge(trained, n, config);
            SCOPED_TRACE(testing::Message()
                         << "shards=" << num_shards
                         << " threads=" << num_threads
                         << " out_of_core=" << out_of_core
                         << " collect_table=" << collect_table
                         << " compress_chunks=" << compress_chunks);
            EXPECT_EQ(run.telemetry.num_shards, num_shards);
            if (collect_table) {
              EXPECT_EQ(run.telemetry.peak_resident_rows,
                        static_cast<int64_t>(n));
            } else if (out_of_core) {
              EXPECT_LE(run.telemetry.peak_resident_rows, 2 * shard_width);
            }
            if (!collect_table) EXPECT_EQ(run.out.num_rows(), 0u);
            if (!have_baseline) {
              ASSERT_TRUE(collect_table && !compress_chunks);
              baseline = std::move(run);
              have_baseline = true;
              continue;
            }
            ASSERT_EQ(run.chunks.size(), baseline.chunks.size());
            for (size_t k = 0; k < run.chunks.size(); ++k) {
              EXPECT_EQ(run.chunks[k].compressed(), compress_chunks);
              EXPECT_EQ(run.chunks[k].row_offset,
                        baseline.chunks[k].row_offset);
              ExpectSameTable(ChunkRows(baseline.chunks[k]),
                              ChunkRows(run.chunks[k]));
            }
            if (collect_table) {
              ExpectSameTable(baseline.out, run.out);
              EXPECT_EQ(TableDigest(baseline.out), TableDigest(run.out));
            }
            const SynthesisTelemetry& a = baseline.telemetry;
            const SynthesisTelemetry& b = run.telemetry;
            EXPECT_EQ(a.merge_cross_violations, b.merge_cross_violations);
            EXPECT_EQ(a.merge_conflict_rows, b.merge_conflict_rows);
            EXPECT_EQ(a.merge_resamples, b.merge_resamples);
            EXPECT_EQ(a.merge_budget, b.merge_budget);
            EXPECT_EQ(a.merge_early_stops, b.merge_early_stops);
            EXPECT_EQ(a.merge_fd_rewrites, b.merge_fd_rewrites);
            EXPECT_EQ(a.merge_order_alignments, b.merge_order_alignments);
            EXPECT_EQ(a.merge_prefix_freezes, b.merge_prefix_freezes);
            EXPECT_EQ(a.merge_frozen_rows, b.merge_frozen_rows);
            EXPECT_EQ(a.merge_penalty_live_row_scans,
                      b.merge_penalty_live_row_scans);
            EXPECT_EQ(a.merge_penalty_frozen_row_scans,
                      b.merge_penalty_frozen_row_scans);
          }
        }
      }
    }
  }
}

TEST(OutOfCoreTest, GoldenDigestUnchangedAtSingleShard) {
  // The golden scenario (same pin as ShardedSamplerTest): out_of_core on
  // at the default num_shards=1 has a one-shard window, which is the
  // whole run, so the digest holds.
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema())
          .TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 12;
  options.mcmc_resamples = 48;
  options.seed = 31;
  ASSERT_EQ(options.num_shards, 1u);
  Rng rng(31);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  SampleSpec spec{150};
  spec.out_of_core = true;
  Rng srng(17);
  SynthesisTelemetry telemetry;
  Table out = Synthesize(model, constraints, options, spec, &srng, &telemetry)
                  .TakeValue();
  EXPECT_EQ(TableDigest(out), 0x214d31f811dbdd0full)
      << "out_of_core changed the one-shard output";
}

TEST(OutOfCoreTest, ChunksTileAndMatchTheRebuiltTable) {
  // The final table is collected from the frozen slices; every chunk
  // must reappear bit-identical in it, and the chunks must tile [0, n) in
  // ascending order.
  const BenchmarkDataset ds = MakeTaxLike(100, 13);
  RunConfig config;
  config.num_threads = 4;
  config.out_of_core = true;
  const RunOutput run = RunMerge(ds, 110, config);
  ASSERT_EQ(run.chunks.size(), 4u);
  size_t next_offset = 0;
  for (size_t s = 0; s < run.chunks.size(); ++s) {
    EXPECT_EQ(run.chunks[s].shard, s);
    EXPECT_EQ(run.chunks[s].row_offset, next_offset);
    EXPECT_EQ(run.chunks[s].last, s + 1 == run.chunks.size());
    const Table slice = run.out.Slice(run.chunks[s].row_offset,
                                      run.chunks[s].num_rows());
    ExpectSameTable(run.chunks[s].rows, slice);
    next_offset += run.chunks[s].num_rows();
  }
  EXPECT_EQ(next_offset, run.out.num_rows());
}

TEST(OutOfCoreTest, HardDcsExactAfterEveryFreezeWhileSpilling) {
  const BenchmarkDataset ds = MakeTaxLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  RunConfig config;
  config.out_of_core = true;
  const RunOutput run = RunMerge(ds, 100, config);
  ASSERT_EQ(run.chunks.size(), 4u);
  Table prefix(run.out.schema());
  for (size_t s = 0; s < run.chunks.size(); ++s) {
    prefix.AppendRowsFrom(run.chunks[s].rows, 0, run.chunks[s].num_rows());
    for (size_t l = 0; l < constraints.size(); ++l) {
      if (!constraints[l].hard) continue;
      EXPECT_EQ(NaiveViolations(constraints[l].dc, prefix), 0)
          << "hard DC " << l << " violated after freeze " << s;
    }
  }
  EXPECT_GT(run.telemetry.merge_cross_violations, 0);
}

TEST(OutOfCoreTest, FrozenRowsNeverRescannedAndResidencyBounded) {
  // The constant-memory contract, asserted by counters: the repair runs
  // and scores through the violation indices without pair-scanning any
  // row, frozen or live, and an out-of-core run that keeps no table
  // stays within 2 shard widths of resident rows, while a run that
  // collects the table (out-of-core or not) holds all n. Tax's order DC
  // is made soft so that the repair owns it and runs; the hard FDs stay
  // with the exact pass.
  BenchmarkDataset ds = MakeTaxLike(100, 13);
  ds.hardness.back() = false;
  const size_t n = 120;
  const size_t num_shards = 4;
  const int64_t shard_width =
      static_cast<int64_t>((n + num_shards - 1) / num_shards);
  for (const size_t num_threads : {size_t{1}, size_t{4}}) {
    for (const bool collect_table : {false, true}) {
      RunConfig config;
      config.num_threads = num_threads;
      config.num_shards = num_shards;
      config.out_of_core = true;
      config.collect_table = collect_table;
      const RunOutput run = RunMerge(ds, n, config);
      SCOPED_TRACE(testing::Message() << "threads=" << num_threads
                                      << " collect_table=" << collect_table);
      EXPECT_EQ(run.telemetry.merge_penalty_frozen_row_scans, 0);
      EXPECT_GT(run.telemetry.merge_resamples, 0);
      EXPECT_EQ(run.telemetry.merge_penalty_live_row_scans, 0);
      if (collect_table) {
        EXPECT_EQ(run.telemetry.peak_resident_rows, static_cast<int64_t>(n));
      } else {
        EXPECT_LE(run.telemetry.peak_resident_rows, 2 * shard_width);
        EXPECT_GT(run.telemetry.peak_resident_rows, 0);
      }
    }
  }
  // The in-memory run accumulates the full instance.
  RunConfig in_memory;
  in_memory.num_shards = num_shards;
  const RunOutput mem = RunMerge(ds, n, in_memory);
  EXPECT_EQ(mem.telemetry.peak_resident_rows, static_cast<int64_t>(n));
}

TEST(OutOfCoreTest, CompressedChunksPassThroughTheSpilledPayload) {
  // compress_chunks + out_of_core: the chunk carries an encoded payload;
  // decoding it reproduces the uncompressed run's rows bit for bit, and
  // both runs collect the same table.
  const BenchmarkDataset ds = MakeAdultLike(100, 13);
  RunConfig plain;
  plain.out_of_core = true;
  RunConfig compressed = plain;
  compressed.compress_chunks = true;
  const RunOutput a = RunMerge(ds, 110, plain);
  const RunOutput b = RunMerge(ds, 110, compressed);
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (size_t s = 0; s < b.chunks.size(); ++s) {
    ASSERT_TRUE(b.chunks[s].compressed());
    EXPECT_EQ(b.chunks[s].rows.num_rows(), 0u);
    Table decoded =
        DecodeChunkColumns(b.chunks[s].rows.schema(), b.chunks[s].encoded)
            .TakeValue();
    ExpectSameTable(decoded, a.chunks[s].rows);
  }
  ExpectSameTable(a.out, b.out);
}

TEST(OutOfCoreTest, DiscardResultSkipsTheRebuild) {
  // With collect_table off the sampler returns a schema-only table — the
  // rows exist solely as delivered chunks (the constant-memory path).
  const BenchmarkDataset ds = MakeAdultLike(100, 13);
  ScopedNumThreads threads(1);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 8;
  options.seed = 77;
  options.num_shards = 4;
  Rng rng(77);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  size_t delivered = 0;
  SampleSpec spec{120};
  spec.out_of_core = true;
  spec.collect_table = false;
  SynthesisHooks hooks;
  hooks.on_chunk = [&delivered](const TableChunk& chunk) {
    delivered += chunk.num_rows();
    return Status::OK();
  };
  Rng srng(17);
  SynthesisTelemetry telemetry;
  Table out =
      Synthesize(model, constraints, options, spec, &srng, &telemetry, &hooks)
          .TakeValue();
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(delivered, 120u);
}

/// Entries in `dir` other than "." / "..".
size_t DirEntryCount(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* e = ::readdir(d)) {
    if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0) {
      continue;
    }
    ++count;
  }
  ::closedir(d);
  return count;
}

TEST(OutOfCoreTest, CancellationMidSpillLeavesNoOrphanedFiles) {
  // Cancel a collecting out-of-core run after its second delivered chunk,
  // with `spill_dir` pointed at an empty parent: the run returns
  // kCancelled and, since synthesis writes nothing to disk, the parent is
  // still empty afterwards.
  char parent_template[] = "/tmp/kamino-ooc-test-XXXXXX";
  char* parent = ::mkdtemp(parent_template);
  ASSERT_NE(parent, nullptr);
  const std::string parent_dir(parent);
  {
    const BenchmarkDataset ds = MakeAdultLike(100, 13);
    ScopedNumThreads threads(1);
    auto constraints =
        ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema())
            .TakeValue();
    auto sequence = SequenceSchema(ds.table.schema(), constraints);
    KaminoOptions options;
    options.non_private = true;
    options.iterations = 8;
    options.seed = 77;
    options.num_shards = 4;
    options.spill_dir = parent_dir;
    Rng rng(77);
    auto model =
        ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
            .TakeValue();
    std::atomic<size_t> chunks{0};
    SynthesisHooks hooks;
    hooks.keep_going = [&chunks] {
      return chunks.load(std::memory_order_relaxed) < 2;
    };
    hooks.on_chunk = [&chunks](const TableChunk&) {
      chunks.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    };
    SampleSpec spec{120};
    spec.out_of_core = true;
    Rng srng(17);
    SynthesisTelemetry telemetry;
    const auto result =
        Synthesize(model, constraints, options, spec, &srng, &telemetry,
                   &hooks);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_GE(chunks.load(), 2u);  // it really was mid-run
  }
  EXPECT_EQ(DirEntryCount(parent_dir), 0u)
      << "orphaned files under " << parent_dir;
  ::rmdir(parent_dir.c_str());
}

TEST(OutOfCoreTest, NoTableRunCreatesNoSpillDirectory) {
  // out_of_core with collect_table off keeps no table and writes nothing:
  // the `spill_dir` parent stays empty while chunks are delivered.
  char parent_template[] = "/tmp/kamino-ooc-test-XXXXXX";
  char* parent = ::mkdtemp(parent_template);
  ASSERT_NE(parent, nullptr);
  const std::string parent_dir(parent);
  const BenchmarkDataset ds = MakeAdultLike(100, 13);
  ScopedNumThreads threads(1);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 8;
  options.seed = 77;
  options.num_shards = 4;
  options.spill_dir = parent_dir;
  Rng rng(77);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  std::vector<size_t> entries_at_chunk;
  SynthesisHooks hooks;
  hooks.on_chunk = [&](const TableChunk&) {
    entries_at_chunk.push_back(DirEntryCount(parent_dir));
    return Status::OK();
  };
  SampleSpec spec{120};
  spec.out_of_core = true;
  spec.collect_table = false;
  Rng srng(17);
  SynthesisTelemetry telemetry;
  const auto result =
      Synthesize(model, constraints, options, spec, &srng, &telemetry, &hooks);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(entries_at_chunk.size(), 4u);
  for (size_t k = 0; k < entries_at_chunk.size(); ++k) {
    EXPECT_EQ(entries_at_chunk[k], 0u)
        << "entries under " << parent_dir << " at chunk " << k;
  }
  EXPECT_EQ(DirEntryCount(parent_dir), 0u);
  ::rmdir(parent_dir.c_str());
}

}  // namespace
}  // namespace kamino
