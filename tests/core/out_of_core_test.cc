// Tests for out-of-core synthesis (KaminoOptions::out_of_core): spilling
// frozen slices through src/kamino/store/ must not change a single
// sampled bit relative to the in-memory sharded run at any thread
// or shard count, the sequential golden digest must survive the flag,
// hard DCs stay exact after every freeze, frozen rows are never
// re-scanned by the repair penalty kernel (the constant-memory
// contract, asserted by counters), residency stays bounded to ~2 shard
// widths, compressed chunks pass the spilled payload through, and
// cancellation mid-spill leaves no orphaned spill files.

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
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
};

struct RunOutput {
  Table out;
  SynthesisTelemetry telemetry;
  std::vector<TableChunk> chunks;
};

/// Trains on `ds` (fixed seeds, comparable across configs) and
/// synthesizes `n` sharded rows, in-memory or out-of-core per `config`,
/// capturing every chunk.
RunOutput RunMerge(const BenchmarkDataset& ds, size_t n,
                   const RunConfig& config) {
  ScopedNumThreads threads(config.num_threads);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 8;
  options.mcmc_resamples = 40;
  options.seed = 77;
  options.num_shards = config.num_shards;
  options.out_of_core = config.out_of_core;
  options.compress_chunks = config.compress_chunks;
  Rng rng(77);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  RunOutput run;
  SynthesisHooks hooks;
  hooks.on_chunk = [&run](const TableChunk& chunk) {
    run.chunks.push_back(chunk);
    return Status::OK();
  };
  Rng srng(17);
  run.out = Synthesize(model, constraints, n, options, &srng, &run.telemetry,
                       &hooks)
                .TakeValue();
  return run;
}

TEST(OutOfCoreTest, BitIdenticalToInMemoryProgressiveAcrossThreadsAndShards) {
  // The acceptance grid: {1, 4} threads x {2, 4} shards, spilling on vs
  // off, must agree on every bit and on the merge telemetry.
  const BenchmarkDataset ds = MakeAdultLike(100, 13);
  for (const size_t num_shards : {size_t{2}, size_t{4}}) {
    RunOutput baseline;
    bool have_baseline = false;
    for (const size_t num_threads : {size_t{1}, size_t{4}}) {
      for (const bool out_of_core : {false, true}) {
        RunConfig config;
        config.num_threads = num_threads;
        config.num_shards = num_shards;
        config.out_of_core = out_of_core;
        RunOutput run = RunMerge(ds, 120, config);
        EXPECT_EQ(run.telemetry.num_shards, num_shards);
        if (!have_baseline) {
          baseline = std::move(run);
          have_baseline = true;
          continue;
        }
        ExpectSameTable(baseline.out, run.out);
        EXPECT_EQ(TableDigest(baseline.out), TableDigest(run.out))
            << "shards=" << num_shards << " threads=" << num_threads
            << " out_of_core=" << out_of_core;
        EXPECT_EQ(baseline.telemetry.merge_cross_violations,
                  run.telemetry.merge_cross_violations);
        EXPECT_EQ(baseline.telemetry.merge_resamples,
                  run.telemetry.merge_resamples);
        EXPECT_EQ(baseline.telemetry.merge_fd_rewrites,
                  run.telemetry.merge_fd_rewrites);
      }
    }
  }
}

TEST(OutOfCoreTest, GoldenDigestUnchangedAtSingleShard) {
  // The golden scenario (same pin as ShardedSamplerTest): out_of_core on
  // at the default num_shards=1 spills the one frozen slice and rebuilds
  // the table from it; the round trip is bit-exact, so the digest holds.
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
  options.out_of_core = true;
  ASSERT_EQ(options.num_shards, 1u);
  Rng rng(31);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  Rng srng(17);
  SynthesisTelemetry telemetry;
  Table out = Synthesize(model, constraints, 150, options, &srng, &telemetry)
                  .TakeValue();
  EXPECT_EQ(TableDigest(out), 0x214d31f811dbdd0full)
      << "out_of_core changed the one-shard output";
  EXPECT_EQ(telemetry.spill_blocks, 1);
  EXPECT_EQ(telemetry.spilled_rows, 150);
}

TEST(OutOfCoreTest, ChunksTileAndMatchTheRebuiltTable) {
  // The final table is rebuilt from the spill file; every chunk must
  // reappear bit-identical in it (the codec + frame round trip is exact),
  // and the chunks must tile [0, n) in ascending order.
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
  // row, frozen or live, every row ends up in the spill store, and the
  // resident high-water mark stays within 2 shard widths while the
  // in-memory run grows to n. Tax's order DC is made soft so that the
  // repair owns it and runs; the hard FDs stay with the exact pass.
  BenchmarkDataset ds = MakeTaxLike(100, 13);
  ds.hardness.back() = false;
  const size_t n = 120;
  const size_t num_shards = 4;
  for (const size_t num_threads : {size_t{1}, size_t{4}}) {
    RunConfig config;
    config.num_threads = num_threads;
    config.num_shards = num_shards;
    config.out_of_core = true;
    const RunOutput run = RunMerge(ds, n, config);
    EXPECT_EQ(run.telemetry.merge_penalty_frozen_row_scans, 0);
    EXPECT_GT(run.telemetry.merge_resamples, 0);
    EXPECT_EQ(run.telemetry.merge_penalty_live_row_scans, 0);
    EXPECT_EQ(run.telemetry.spill_blocks, static_cast<int64_t>(num_shards));
    EXPECT_EQ(run.telemetry.spilled_rows, static_cast<int64_t>(n));
    EXPECT_GT(run.telemetry.spill_bytes, 0);
    const int64_t shard_width =
        static_cast<int64_t>((n + num_shards - 1) / num_shards);
    EXPECT_LE(run.telemetry.peak_resident_rows, 2 * shard_width)
        << "threads=" << num_threads;
    EXPECT_GT(run.telemetry.peak_resident_rows, 0);
  }
  // The in-memory run accumulates the full instance.
  RunConfig in_memory;
  in_memory.num_shards = num_shards;
  const RunOutput mem = RunMerge(ds, n, in_memory);
  EXPECT_EQ(mem.telemetry.peak_resident_rows, static_cast<int64_t>(n));
  EXPECT_EQ(mem.telemetry.spill_blocks, 0);
}

TEST(OutOfCoreTest, CompressedChunksPassThroughTheSpilledPayload) {
  // compress_chunks + out_of_core: the chunk carries the exact encoded
  // payload sealed into the spill store; decoding it reproduces the
  // uncompressed run's rows bit for bit.
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
  // With discard_result the sampler returns a schema-only table — the
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
  options.out_of_core = true;
  Rng rng(77);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  size_t delivered = 0;
  SynthesisHooks hooks;
  hooks.discard_result = true;
  hooks.on_chunk = [&delivered](const TableChunk& chunk) {
    delivered += chunk.num_rows();
    return Status::OK();
  };
  Rng srng(17);
  SynthesisTelemetry telemetry;
  Table out =
      Synthesize(model, constraints, 120, options, &srng, &telemetry, &hooks)
          .TakeValue();
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(delivered, 120u);
  EXPECT_EQ(telemetry.spilled_rows, 120);
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
  // Cancel after the second delivered chunk: blocks are already sealed in
  // the spill file when the run aborts, and the store's unwind must
  // remove the file and its private directory from the parent we point
  // it at.
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
    options.out_of_core = true;
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
    Rng srng(17);
    SynthesisTelemetry telemetry;
    const auto result =
        Synthesize(model, constraints, 120, options, &srng, &telemetry, &hooks);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_GE(telemetry.spill_blocks, 2);  // it really was mid-spill
  }
  EXPECT_EQ(DirEntryCount(parent_dir), 0u)
      << "orphaned spill files under " << parent_dir;
  ::rmdir(parent_dir.c_str());
}

}  // namespace
}  // namespace kamino
