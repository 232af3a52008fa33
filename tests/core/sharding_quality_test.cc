// Differential quality oracle for shard-parallel synthesis: sharded output
// may differ from the sequential sampler's, but it must not be measurably
// worse. One fit is sampled at 1, 2 and 4 shards over three request
// seeds, and the sharded runs are held to the 1-shard run:
//  - Adult and Tax (hard DCs, owned by the exact passes at every shard
//    count): mean 1-way and 2-way marginal distances within the
//    end-to-end bounds of BENCHMARK.json (+15% and +25%), with zero
//    hard-DC violations by the naive pair scan at 1, 2 and 4 shards.
//  - BR2000 (soft DCs only, all owned by the freeze repair): total
//    soft-DC violations within a fixed factor of the 1-shard total.
//  - Adult with its order DC soft (the freeze repair owns an order pair):
//    order-violating pairs at or below fixed ceilings.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "kamino/core/pipeline.h"
#include "kamino/data/generators.h"
#include "kamino/dc/violations.h"
#include "kamino/eval/marginals.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

constexpr int kNumericBins = 16;

struct Quality {
  double one_way = 0.0;
  double two_way = 0.0;
  int64_t hard_violations = 0;
  int64_t soft_violations = 0;
};

/// Mean marginal distances to `truth` over request seeds 1..3, plus the
/// total hard- and soft-DC violations of those runs.
Quality MeasureAtShards(const FitArtifacts& fitted, const Table& truth,
                        size_t num_rows, size_t num_shards) {
  constexpr uint64_t kSeeds = 3;
  Quality q;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SampleSpec spec;
    spec.num_rows = num_rows;
    spec.seed = seed;
    spec.num_shards = num_shards;
    Result<Table> out = SamplePipeline(fitted, spec);
    EXPECT_TRUE(out.ok()) << out.status();
    if (!out.ok()) return q;
    const Table& rows = out.value();
    q.one_way +=
        MeanOf(OneWayMarginalDistances(rows, truth, kNumericBins)) / kSeeds;
    // More pairs than the schema has: every pair is scored, so the RNG
    // does not pick which ones.
    Rng pair_rng(1);
    q.two_way += MeanOf(TwoWayMarginalDistances(rows, truth, kNumericBins,
                                                /*num_pairs=*/1000,
                                                &pair_rng)) /
                 kSeeds;
    for (const WeightedConstraint& wc : fitted.weighted) {
      (wc.hard ? q.hard_violations : q.soft_violations) +=
          CountViolationsNaive(wc.dc, rows);
    }
  }
  return q;
}

/// The non-private single-thread fit both legs sample from.
Result<FitArtifacts> Fit(const BenchmarkDataset& ds) {
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 40;
  config.options.seed = 77;
  config.options.num_threads = 1;
  return FitPipeline(ds.table, constraints, config);
}

TEST(ShardingQualityTest, ShardedMarginalsWithinBoundOfSequential) {
  for (const BenchmarkDataset& ds :
       {MakeAdultLike(600, 13), MakeTaxLike(600, 13)}) {
    Result<FitArtifacts> fitted = Fit(ds);
    ASSERT_TRUE(fitted.ok()) << fitted.status();

    const size_t n = 1200;
    const Quality sequential = MeasureAtShards(fitted.value(), ds.table, n, 1);
    EXPECT_EQ(sequential.hard_violations, 0)
        << ds.name << ": hard DCs violated at num_shards=1";
    for (const size_t num_shards : {size_t{2}, size_t{4}}) {
      const Quality sharded =
          MeasureAtShards(fitted.value(), ds.table, n, num_shards);
      EXPECT_LE(sharded.one_way, 1.15 * sequential.one_way)
          << ds.name << ": 1-way marginals degraded at num_shards="
          << num_shards;
      EXPECT_LE(sharded.two_way, 1.25 * sequential.two_way)
          << ds.name << ": 2-way marginals degraded at num_shards="
          << num_shards;
      EXPECT_EQ(sharded.hard_violations, 0)
          << ds.name << ": hard DCs violated at num_shards=" << num_shards;
    }
  }
  runtime::SetGlobalNumThreads(0);
}

TEST(ShardingQualityTest, ShardedSoftDcViolationsWithinFactorOfSequential) {
  // The freeze repair is what keeps soft DCs in check across shards: the
  // per-shard sampling never sees its pairs with earlier shards. With the
  // repair this input's 2- and 4-shard totals are 1.86x and 1.44x the
  // 1-shard total; with the repair skipped they are 4.19x and 4.30x.
  constexpr double kMaxFactor = 2.5;
  const BenchmarkDataset ds = MakeBr2000Like(600, 13);
  Result<FitArtifacts> fitted = Fit(ds);
  ASSERT_TRUE(fitted.ok()) << fitted.status();

  const size_t n = 1200;
  const Quality sequential = MeasureAtShards(fitted.value(), ds.table, n, 1);
  ASSERT_GT(sequential.soft_violations, 0);
  for (const size_t num_shards : {size_t{2}, size_t{4}}) {
    const Quality sharded =
        MeasureAtShards(fitted.value(), ds.table, n, num_shards);
    EXPECT_LE(static_cast<double>(sharded.soft_violations),
              kMaxFactor * static_cast<double>(sequential.soft_violations))
        << "soft-DC violations at num_shards=" << num_shards << " vs "
        << sequential.soft_violations << " at 1 shard";
  }
  runtime::SetGlobalNumThreads(0);
}

TEST(ShardingQualityTest, SoftOrderDcRepairStaysWithinCeiling) {
  // With the order DC soft the freeze repair owns it, and the values of
  // the rows nearest under the order pair — the repair's numeric seeds —
  // are often the only candidates that violate nothing. The ceilings are
  // this harness's totals under the earlier seeding rule (the 4
  // distance-nearest of frozen and live rows). A 1-shard multiple cannot
  // serve: that rule read 73x and 81x the 1-shard total (205) here, and
  // with no repair seeding at all the totals are 40006 and 20033.
  BenchmarkDataset ds = MakeAdultLike(600, 13);
  ds.hardness = {true, false};  // the FD stays hard, the order DC is soft
  Result<FitArtifacts> fitted = Fit(ds);
  ASSERT_TRUE(fitted.ok()) << fitted.status();

  const size_t n = 4800;
  const struct {
    size_t num_shards;
    int64_t ceiling;
  } kCeilings[] = {{2, 14950}, {4, 16659}};
  for (const auto& [num_shards, ceiling] : kCeilings) {
    const Quality sharded =
        MeasureAtShards(fitted.value(), ds.table, n, num_shards);
    EXPECT_EQ(sharded.hard_violations, 0)
        << "hard FD violated at num_shards=" << num_shards;
    EXPECT_LE(sharded.soft_violations, ceiling)
        << "order-violating pairs at num_shards=" << num_shards;
  }
  runtime::SetGlobalNumThreads(0);
}

}  // namespace
}  // namespace kamino
