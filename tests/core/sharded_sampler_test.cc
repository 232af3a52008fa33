// Tests for the shard-parallel synthesis engine: the (seed, num_shards)
// determinism contract, exactness of the hard-FD reconciliation, the
// adaptive repair budget, and pinned output digests — num_shards=1
// reproduces the sequential paper-semantics sampler bit for bit (a digest
// captured from the pre-refactor sequential implementation), and the
// sharded digests pin the prefix-frozen reconciliation path.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/core/kamino.h"
#include "kamino/core/pipeline.h"
#include "kamino/core/sequencing.h"
#include "kamino/data/generators.h"
#include "kamino/dc/violations.h"
#include "kamino/obs/metrics.h"
#include "kamino/obs/trace.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

/// Restores the global thread budget when a test scope ends.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n) { runtime::SetGlobalNumThreads(n); }
  ~ScopedNumThreads() { runtime::SetGlobalNumThreads(0); }
};

/// FNV-1a over an exact textual rendering of every cell (17 significant
/// digits round-trips doubles), so equal digests mean bit-identical
/// tables.
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

TEST(ShardedSamplerTest, NumShardsOneMatchesPreRefactorSequentialSampler) {
  // Digest of this exact scenario captured from the sequential sampler
  // BEFORE the shard refactor (same compiler/libstdc++ as CI). If this
  // fails after an *intentional* sampler or training change, re-capture:
  // the failure message prints the new digest.
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 12;
  options.mcmc_resamples = 48;
  options.seed = 31;
  ASSERT_EQ(options.num_shards, 1u);  // the default is paper semantics
  Rng rng(31);
  auto model =
      ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
          .TakeValue();
  Rng srng(17);
  SynthesisTelemetry telemetry;
  Table out = Synthesize(model, constraints, options, SampleSpec{150}, &srng,
                         &telemetry)
                  .TakeValue();
  EXPECT_EQ(telemetry.num_shards, 1u);
  EXPECT_EQ(telemetry.merge_resamples, 0);
  EXPECT_EQ(telemetry.merge_fd_rewrites, 0);
  char actual[32];
  std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, TableDigest(out));
  EXPECT_EQ(std::string(actual), "0x214d31f811dbdd0f")
      << "sequential sampler output changed";
}

TEST(ShardedSamplerTest, GoldenDigestUnchangedWithTracingOn) {
  // The observability invariant: recording spans and metrics never
  // influences control flow, so the exact golden scenario above must
  // produce the same digest with tracing + metrics enabled — at one
  // thread and at four (events interleave differently; output must not).
  obs::TraceRecorder::Global().SetEnabled(true);
  obs::MetricsRegistry::Global().SetEnabled(true);
  BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 12;
  options.mcmc_resamples = 48;
  options.seed = 31;
  for (const size_t num_threads : {size_t{1}, size_t{4}}) {
    ScopedNumThreads threads(num_threads);
    Rng rng(31);
    auto model =
        ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
            .TakeValue();
    Rng srng(17);
    Table out = Synthesize(model, constraints, options, SampleSpec{150}, &srng)
                    .TakeValue();
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, TableDigest(out));
    EXPECT_EQ(std::string(actual), "0x214d31f811dbdd0f")
        << "tracing changed the output at num_threads=" << num_threads;
  }
  // The run actually recorded something (the invariant is about output,
  // not about tracing being a no-op).
  EXPECT_FALSE(obs::TraceRecorder::Global().Snapshot().empty());
  EXPECT_GT(
      obs::MetricsRegistry::Global().counter("kamino.sampler.runs")->Value(),
      0);
  obs::TraceRecorder::Global().SetEnabled(false);
  obs::TraceRecorder::Global().Clear();
  obs::MetricsRegistry::Global().SetEnabled(false);
  obs::MetricsRegistry::Global().Reset();
}

TEST(ShardedSamplerTest, GoldenDigestGridAcrossThreadsAndShards) {
  // The regression grid: the golden scenario at every num_threads in
  // {1, 4} x num_shards in {1, 2, 4}. Output is a pure function of
  // (seed, num_shards), so each shard count has one pinned digest that
  // must hold at every thread budget. shards=1 is the pre-refactor
  // sequential digest; shards=2 and shards=4 are the prefix-frozen
  // reconciliation's output, captured when it was still opt-in (it has
  // since become the only sharded path, which must not change its rows).
  // If one fails after an *intentional* sampler change, re-capture from
  // the failure message.
  BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  const std::pair<size_t, const char*> pinned[] = {
      {1, "0x214d31f811dbdd0f"},
      {2, "0x3c8e7b81d508b22b"},
      {4, "0xd6d3abdd6252121d"},
  };
  for (const auto& [num_shards, expected] : pinned) {
    for (const size_t num_threads : {size_t{1}, size_t{4}}) {
      ScopedNumThreads threads(num_threads);
      KaminoOptions options;
      options.non_private = true;
      options.iterations = 12;
      options.mcmc_resamples = 48;
      options.seed = 31;
      options.num_shards = num_shards;
      Rng rng(31);
      auto model =
          ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
              .TakeValue();
      Rng srng(17);
      Table out =
          Synthesize(model, constraints, options, SampleSpec{150}, &srng)
              .TakeValue();
      char actual[32];
      std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, TableDigest(out));
      EXPECT_EQ(std::string(actual), expected)
          << "digest drifted at num_shards=" << num_shards
          << " num_threads=" << num_threads;
    }
  }
}

TEST(ShardedSamplerTest, Br2000McmcAndRepairDigestsPinned) {
  // BR2000's soft DCs score through the composite and naive indices, in
  // the MCMC pass and, at 4 shards, in the freeze repair; the Adult
  // golden grid above reaches neither. Pinned per shard count, at every
  // thread budget. If one fails after an *intentional* sampler change,
  // re-capture from the failure message.
  const BenchmarkDataset ds = MakeBr2000Like(200, 5);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 12;
  options.mcmc_resamples = 64;
  options.seed = 31;
  Rng rng(31);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  const std::pair<size_t, const char*> pinned[] = {
      {1, "0x8d84349eae2e4b82"},
      {4, "0xe80f21b1c9681f8d"},
  };
  for (const auto& [num_shards, expected] : pinned) {
    for (const size_t num_threads : {size_t{1}, size_t{4}}) {
      ScopedNumThreads threads(num_threads);
      options.num_shards = num_shards;
      Rng srng(17);
      SynthesisTelemetry telemetry;
      Table out = Synthesize(model, constraints, options, SampleSpec{200},
                             &srng, &telemetry)
                      .TakeValue();
      EXPECT_GT(telemetry.mcmc_resamples, 0);
      if (num_shards > 1) {
        EXPECT_GT(telemetry.merge_resamples, 0);
      }
      char actual[32];
      std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, TableDigest(out));
      EXPECT_EQ(std::string(actual), expected)
          << "digest drifted at num_shards=" << num_shards
          << " num_threads=" << num_threads;
    }
  }
}

TEST(ShardedSamplerTest, MultiBlockAdultDigestsPinned) {
  // The goldens above sample 150 rows, under 3 order-index blocks per
  // group. At 2400 rows the cap_gain/cap_loss order DC's one group holds
  // tens of blocks in the sampling index, the MCMC full-table index and
  // the freeze's merged index, so candidate scoring runs the batched
  // one-walk count. Pinned per shard count, at every thread budget. If
  // one fails after an *intentional* sampler change, re-capture from the
  // failure message.
  const BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 12;
  options.mcmc_resamples = 256;
  options.seed = 31;
  Rng rng(31);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  const std::pair<size_t, const char*> pinned[] = {
      {1, "0x4e8e18a6ff45f04a"},
      {4, "0xe1437c8a0de35fd3"},
  };
  for (const auto& [num_shards, expected] : pinned) {
    for (const size_t num_threads : {size_t{1}, size_t{4}}) {
      ScopedNumThreads threads(num_threads);
      options.num_shards = num_shards;
      Rng srng(17);
      SynthesisTelemetry telemetry;
      Table out = Synthesize(model, constraints, options, SampleSpec{2400},
                             &srng, &telemetry)
                      .TakeValue();
      EXPECT_GT(telemetry.mcmc_resamples, 0);
      char actual[32];
      std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, TableDigest(out));
      EXPECT_EQ(std::string(actual), expected)
          << "digest drifted at num_shards=" << num_shards
          << " num_threads=" << num_threads;
    }
  }
}

/// Samples recorded by the pool's per-task latency histogram so far (0
/// before any task ran).
int64_t PoolTaskCount() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const auto it = snap.histograms.find("kamino.runtime.task_seconds");
  return it == snap.histograms.end() ? 0 : it->second.count;
}

TEST(ShardedSamplerTest, OneShardScoringSubmitsNoPoolTask) {
  // Candidate scoring runs inline: without MCMC, a one-shard run at four
  // threads submits no pool task at all, and samples the 1-thread rows.
  // The fit runs at one thread, so none of its tasks can land late.
  ScopedNumThreads threads(1);
  const BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 12;
  config.options.mcmc_resamples = 0;
  config.options.seed = 31;
  config.options.num_threads = 1;
  const FitArtifacts fitted =
      FitPipeline(ds.table, constraints, config).TakeValue();
  SampleSpec spec;
  spec.num_rows = 1200;
  spec.seed = 17;
  spec.num_shards = 1;
  spec.num_threads = 1;
  const Table serial = SamplePipeline(fitted, spec).TakeValue();

  obs::MetricsRegistry::Global().SetEnabled(true);
  const int64_t tasks_before = PoolTaskCount();
  spec.num_threads = 4;
  SynthesisTelemetry telemetry;
  const Table parallel =
      SamplePipeline(fitted, spec, nullptr, &telemetry).TakeValue();
  const int64_t tasks_after = PoolTaskCount();
  obs::MetricsRegistry::Global().SetEnabled(false);
  obs::MetricsRegistry::Global().Reset();

  EXPECT_EQ(telemetry.num_threads, 4u);
  EXPECT_EQ(telemetry.num_shards, 1u);
  EXPECT_EQ(tasks_after, tasks_before)
      << "one-shard sampling submitted pool tasks";
  ExpectSameTable(serial, parallel);
}

/// Full pipeline on a mixed hard-DC workload (FD + order DC) at the given
/// thread and shard budget; `all_soft` flips every Adult DC soft.
KaminoResult RunPipeline(size_t num_threads, size_t num_shards,
                         bool all_soft = false) {
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  std::vector<bool> hardness = ds.hardness;
  if (all_soft) hardness.assign(ds.hardness.size(), false);
  auto constraints =
      ParseConstraints(ds.dc_specs, hardness, ds.table.schema());
  KAMINO_CHECK(constraints.ok());
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 8;
  config.options.mcmc_resamples = 40;
  config.options.seed = 77;
  config.options.num_threads = num_threads;
  config.options.num_shards = num_shards;
  auto result = RunKamino(ds.table, constraints.value(), config);
  KAMINO_CHECK(result.ok()) << result.status();
  runtime::SetGlobalNumThreads(0);
  return std::move(result).TakeValue();
}

TEST(ShardedSamplerTest, OutputPureFunctionOfSeedAndShardsAcrossThreads) {
  // The acceptance grid: num_shards in {1, 4} x num_threads in {1, 4} —
  // within a shard count, thread budget must not change a single bit.
  const KaminoResult s1_t1 = RunPipeline(1, 1);
  const KaminoResult s1_t4 = RunPipeline(4, 1);
  const KaminoResult s4_t1 = RunPipeline(1, 4);
  const KaminoResult s4_t4 = RunPipeline(4, 4);

  EXPECT_EQ(s1_t1.telemetry.num_shards, 1u);
  EXPECT_EQ(s4_t1.telemetry.num_shards, 4u);
  EXPECT_EQ(s4_t4.timings.num_shards, 4u);
  ExpectSameTable(s1_t1.synthetic, s1_t4.synthetic);
  ExpectSameTable(s4_t1.synthetic, s4_t4.synthetic);
}

TEST(ShardedSamplerTest, MergedOutputSatisfiesHardFdsExactly) {
  const KaminoResult sharded = RunPipeline(4, 4);
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  for (const WeightedConstraint& wc : constraints) {
    std::vector<size_t> lhs;
    size_t rhs = 0;
    if (wc.hard && wc.dc.AsFd(&lhs, &rhs)) {
      EXPECT_EQ(CountViolations(wc.dc, sharded.synthetic), 0)
          << "cross-shard FD group maps one LHS to two RHS values";
    }
  }
  // The shard merge actually ran and its timing was surfaced.
  EXPECT_EQ(sharded.telemetry.num_shards, 4u);
  EXPECT_GE(sharded.timings.shard_merge, 0.0);
  EXPECT_LE(sharded.timings.shard_merge, sharded.timings.sampling + 1e-9);
}

TEST(ShardedSamplerTest, TaxWorkloadHardDcsExactAfterMerge) {
  // Tax has 6 hard DCs, including two FDs sharing an RHS attribute
  // (areacode -> state, zip -> state: exercises the joint component
  // canonicalization; per-DC sweeps would oscillate) and a per-state
  // salary/rate order dependency (exercises grouped rank alignment). One
  // shard is the same freeze against an empty prefix.
  BenchmarkDataset ds = MakeTaxLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  for (const size_t num_shards : {size_t{1}, size_t{4}}) {
    KaminoConfig config;
    config.options.non_private = true;
    config.options.iterations = 8;
    config.options.seed = 77;
    config.options.num_shards = num_shards;
    auto result = RunKamino(ds.table, constraints, config);
    ASSERT_TRUE(result.ok()) << result.status();
    runtime::SetGlobalNumThreads(0);
    for (size_t l = 0; l < constraints.size(); ++l) {
      EXPECT_EQ(CountViolations(constraints[l].dc, result.value().synthetic),
                0)
          << "hard DC " << l << " ("
          << constraints[l].dc.ToString(ds.table.schema())
          << ") violated after the shard merge at num_shards=" << num_shards;
    }
    // The hard DCs were reconciled by the exact passes, not luck: against
    // the frozen prefix, or inside the one shard when there is none.
    const SynthesisTelemetry& t = result.value().telemetry;
    if (num_shards == 1) {
      EXPECT_GT(t.merge_fd_rewrites + t.merge_order_alignments, 0);
    } else {
      EXPECT_GT(t.merge_cross_violations, 0);
    }
  }
}

TEST(ShardedSamplerTest, ShardCountZeroUsesOneShardPerWorker) {
  const KaminoResult r = RunPipeline(3, 0);
  EXPECT_EQ(r.telemetry.num_shards, 3u);
  EXPECT_EQ(r.timings.num_shards, 3u);
}

TEST(ShardedSamplerTest, ShardedRunsAreReproducible) {
  // Same (seed, num_shards) twice => identical output (no hidden global
  // state leaks between runs) — for Adult's hard DCs and for the same DCs
  // all flipped soft (learned weights, no exact hard-DC passes).
  for (const bool all_soft : {false, true}) {
    const KaminoResult a = RunPipeline(4, 4, all_soft);
    const KaminoResult b = RunPipeline(4, 4, all_soft);
    ExpectSameTable(a.synthetic, b.synthetic);
    EXPECT_EQ(a.telemetry.merge_cross_violations,
              b.telemetry.merge_cross_violations);
    EXPECT_EQ(a.telemetry.merge_resamples, b.telemetry.merge_resamples);
    EXPECT_EQ(a.telemetry.merge_budget, b.telemetry.merge_budget);
    EXPECT_EQ(a.telemetry.merge_fd_rewrites, b.telemetry.merge_fd_rewrites);
  }
}

TEST(ShardedSamplerTest, AdaptiveMergeBudgetScalesWithConflicts) {
  // Each freeze with rows queued for repair gets a budget of
  // 16 + 2 * those rows; the run's budget is the sum over freezes. The
  // per-freeze conflict counts come from the sampler/prefix_merge spans.
  // Adult's DCs are flipped soft: hard, they are owned by the exact
  // passes and never reach the repair.
  obs::TraceRecorder::Global().Clear();
  obs::TraceRecorder::Global().SetEnabled(true);
  const KaminoResult a = RunPipeline(1, 4, /*all_soft=*/true);
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Snapshot();
  obs::TraceRecorder::Global().SetEnabled(false);
  obs::TraceRecorder::Global().Clear();
  int64_t expected_budget = 0;
  int64_t conflict_rows = 0;
  size_t freezes = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name != "sampler/prefix_merge") continue;
    ++freezes;
    for (const auto& [key, value] : e.args) {
      if (key != "conflict_rows") continue;
      conflict_rows += value;
      if (value > 0) expected_budget += 16 + 2 * value;
    }
  }
  EXPECT_EQ(freezes, 4u);
  EXPECT_EQ(conflict_rows, a.telemetry.merge_conflict_rows);
  EXPECT_GT(a.telemetry.merge_conflict_rows, 0);
  EXPECT_EQ(a.telemetry.merge_budget, expected_budget);
  EXPECT_GT(a.telemetry.merge_resamples, 0);
  EXPECT_LE(a.telemetry.merge_resamples, a.telemetry.merge_budget);
  // Deterministic: same seed + shards => same table, budget and stops.
  const KaminoResult b = RunPipeline(1, 4, /*all_soft=*/true);
  ExpectSameTable(a.synthetic, b.synthetic);
  EXPECT_EQ(a.telemetry.merge_budget, b.telemetry.merge_budget);
  EXPECT_EQ(a.telemetry.merge_early_stops, b.telemetry.merge_early_stops);
}

TEST(ShardedSamplerTest, ShardCountIsClampedToRows) {
  BenchmarkDataset ds = MakeTpchLike(60, 21);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 5;
  config.options.seed = 3;
  config.options.num_shards = 1000;  // far more shards than rows
  config.output_rows = 12;
  auto result = RunKamino(ds.table, constraints, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().synthetic.num_rows(), 12u);
  EXPECT_EQ(result.value().telemetry.num_shards, 12u);
}

}  // namespace
}  // namespace kamino
