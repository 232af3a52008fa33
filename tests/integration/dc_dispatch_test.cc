// Dispatch guard for the violation engine: the exact-count oracles cannot
// tell a subquadratic engine from the O(n^2) fallback, because both return
// the same integers. This suite fits each generated workload with metrics
// on, synthesizes at 1 and 4 shards, and reads the engine's dispatch
// counters: no DC of Adult, Tax or TPC-H may reach the naive index or the
// naive count. BR2000's phi3 (three order residuals) is outside the
// composite class and still builds a naive index.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "kamino/core/pipeline.h"
#include "kamino/data/generators.h"
#include "kamino/obs/metrics.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

struct DispatchCounts {
  int64_t naive_indices = 0;
  int64_t naive_counts = 0;
  int64_t indices = 0;  // every index kind
};

/// Fits `ds` and samples it at 1 and 4 shards with metrics on, returning
/// the violation engine's dispatch counters over the whole run.
DispatchCounts RunWithMetrics(const BenchmarkDataset& ds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 10;
  config.options.seed = 5;
  config.options.num_threads = 1;
  config.options.enable_metrics = true;
  Result<FitArtifacts> fitted = FitPipeline(ds.table, constraints, config);
  EXPECT_TRUE(fitted.ok()) << fitted.status();
  DispatchCounts counts;
  if (!fitted.ok()) return counts;
  for (const size_t num_shards : {size_t{1}, size_t{4}}) {
    SampleSpec spec;
    spec.num_rows = ds.table.num_rows();
    spec.seed = 3;
    spec.num_shards = num_shards;
    Result<Table> out = SamplePipeline(fitted.value(), spec);
    EXPECT_TRUE(out.ok()) << out.status();
  }
  auto value = [&reg](const std::string& name) {
    return reg.counter("kamino.dc." + name)->Value();
  };
  counts.naive_indices = value("index_built.naive");
  counts.naive_counts = value("count.naive");
  for (const char* kind :
       {"unary", "fd", "order", "composite", "naive", "never"}) {
    counts.indices += value(std::string("index_built.") + kind);
  }
  reg.SetEnabled(false);
  reg.Reset();
  runtime::SetGlobalNumThreads(0);
  return counts;
}

TEST(DcDispatchTest, GeneratedWorkloadsNeverReachTheNaiveEngine) {
  for (const BenchmarkDataset& ds :
       {MakeAdultLike(200, 9), MakeTaxLike(200, 9), MakeTpchLike(200, 9)}) {
    const DispatchCounts counts = RunWithMetrics(ds);
    EXPECT_GT(counts.indices, 0) << ds.name << ": no index was built";
    EXPECT_EQ(counts.naive_indices, 0) << ds.name;
    EXPECT_EQ(counts.naive_counts, 0) << ds.name;
  }
}

TEST(DcDispatchTest, Br2000Phi3StillBuildsANaiveIndex) {
  // phi3 has three order residuals, so it decomposes to kGeneral. A
  // subquadratic dominance term for it would turn this count to zero.
  const DispatchCounts counts = RunWithMetrics(MakeBr2000Like(200, 9));
  EXPECT_GT(counts.naive_indices, 0);
}

}  // namespace
}  // namespace kamino
