// Tests for the engine's LRU model registry: register/lookup semantics,
// least-recently-used eviction at capacity, the by-id Synthesize/Submit
// entry points and the file-backed LoadModel path, plus the eviction and
// hit/miss metrics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kamino/common/rng.h"
#include "kamino/core/kamino.h"
#include "kamino/core/sequencing.h"
#include "kamino/data/generators.h"
#include "kamino/obs/metrics.h"
#include "kamino/runtime/thread_pool.h"
#include "kamino/service/engine.h"

namespace kamino {
namespace {

class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n) { runtime::SetGlobalNumThreads(n); }
  ~ScopedNumThreads() { runtime::SetGlobalNumThreads(0); }
};

/// A small fitted model; `tag` seeds the fit so distinct tags produce
/// distinguishable models.
FittedModel MakeModel(uint64_t tag) {
  Schema schema({Attribute::MakeCategorical("c", {"x", "y", "z"}),
                 Attribute::MakeNumeric("n", 0, 10, 11)});
  Table table(schema);
  for (int i = 0; i < 20; ++i) {
    table.AppendRowUnchecked(
        {Value::Categorical(i % 3), Value::Numeric(i % 11)});
  }
  KaminoOptions options;
  options.non_private = true;
  options.embed_dim = 4;
  options.iterations = 2;
  options.seed = tag;
  auto sequence = SequenceSchema(schema, {});
  Rng rng(tag);
  FitArtifacts fitted;
  fitted.model =
      ProbabilisticDataModel::Train(table, sequence, options, &rng).TakeValue();
  fitted.sequence = fitted.model.sequence();
  fitted.resolved_options = options;
  fitted.input_rows = table.num_rows();
  fitted.sampling_engine = std::mt19937_64(tag);
  return FittedModel::FromArtifacts(std::move(fitted));
}

TEST(ModelRegistryTest, RegisterAndGet) {
  KaminoEngine engine;
  FittedModel model = MakeModel(1);
  ASSERT_TRUE(engine.RegisterModel("adult-v1", model).ok());
  EXPECT_EQ(engine.registry_size(), 1u);
  auto got = engine.GetModel("adult-v1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().input_rows(), model.input_rows());
  // Re-registering the same id overwrites in place, no growth.
  ASSERT_TRUE(engine.RegisterModel("adult-v1", MakeModel(2)).ok());
  EXPECT_EQ(engine.registry_size(), 1u);
}

TEST(ModelRegistryTest, RejectsBadRegistrations) {
  KaminoEngine engine;
  EXPECT_EQ(engine.RegisterModel("", MakeModel(1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RegisterModel("id", FittedModel()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.registry_size(), 0u);
}

TEST(ModelRegistryTest, MissReturnsNotFound) {
  KaminoEngine engine;
  auto got = engine.GetModel("never-registered");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, LruEvictsLeastRecentlyUsed) {
  KaminoEngine::Options options;
  options.model_registry_capacity = 2;
  KaminoEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("a", MakeModel(1)).ok());
  ASSERT_TRUE(engine.RegisterModel("b", MakeModel(2)).ok());
  // Touch "a" so "b" becomes the least recently used entry.
  ASSERT_TRUE(engine.GetModel("a").ok());
  ASSERT_TRUE(engine.RegisterModel("c", MakeModel(3)).ok());
  EXPECT_EQ(engine.registry_size(), 2u);
  EXPECT_TRUE(engine.GetModel("a").ok());
  EXPECT_TRUE(engine.GetModel("c").ok());
  auto evicted = engine.GetModel("b");
  ASSERT_FALSE(evicted.ok());
  EXPECT_EQ(evicted.status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, CapacityKnobValidated) {
  // The engine clamps a zero capacity to 1 (a constructor cannot return a
  // Status).
  KaminoEngine::Options engine_options;
  engine_options.model_registry_capacity = 0;
  KaminoEngine engine(engine_options);
  ASSERT_TRUE(engine.RegisterModel("only", MakeModel(1)).ok());
  EXPECT_EQ(engine.registry_size(), 1u);
}

TEST(ModelRegistryTest, LoadModelByIdFromFile) {
  ScopedNumThreads threads(1);
  const std::string path =
      ::testing::TempDir() + "/kamino_registry_model.kam";
  ASSERT_TRUE(MakeModel(5).Save(path).ok());
  KaminoEngine engine;
  auto loaded = engine.LoadModel("from-disk", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(engine.registry_size(), 1u);
  SynthesisRequest request;
  request.num_rows = 12;
  request.seed = 7;
  auto result = engine.Synthesize("from-disk", request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().synthetic.num_rows(), 12u);
  // A bad path surfaces the Load error and registers nothing.
  auto missing = engine.LoadModel("ghost", path + ".missing");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(engine.registry_size(), 1u);
}

TEST(ModelRegistryTest, SynthesizeByUnknownIdIsNotFound) {
  KaminoEngine engine;
  auto result = engine.Synthesize("nope", SynthesisRequest());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, SubmitByModelId) {
  ScopedNumThreads threads(1);
  KaminoEngine engine;
  ASSERT_TRUE(engine.RegisterModel("async", MakeModel(4)).ok());
  SynthesisRequest request;
  request.num_rows = 10;
  request.seed = 3;
  auto submitted = engine.Submit("async", request);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto result = submitted.value()->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().synthetic.num_rows(), 10u);
  auto unknown = engine.Submit("nope", request);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, ByIdSynthesisMatchesHandleSynthesis) {
  ScopedNumThreads threads(1);
  KaminoEngine engine;
  FittedModel model = MakeModel(8);
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  SynthesisRequest request;
  request.num_rows = 16;
  request.seed = 9;
  auto by_id = engine.Synthesize("m", request);
  auto by_handle = engine.Synthesize(model, request);
  ASSERT_TRUE(by_id.ok());
  ASSERT_TRUE(by_handle.ok());
  const Table& a = by_id.value().synthetic;
  const Table& b = by_handle.value().synthetic;
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_TRUE(a.at(r, c) == b.at(r, c));
    }
  }
}

TEST(ModelRegistryTest, EvictionMetrics) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.SetEnabled(true);
  const int64_t evictions_before =
      reg.counter("kamino.registry.evictions")->Value();
  const int64_t hits_before = reg.counter("kamino.registry.hits")->Value();
  const int64_t misses_before = reg.counter("kamino.registry.misses")->Value();
  KaminoEngine::Options options;
  options.model_registry_capacity = 1;
  KaminoEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("a", MakeModel(1)).ok());
  ASSERT_TRUE(engine.RegisterModel("b", MakeModel(2)).ok());  // evicts "a"
  ASSERT_TRUE(engine.GetModel("b").ok());                     // hit
  ASSERT_FALSE(engine.GetModel("a").ok());                    // miss
  EXPECT_EQ(reg.counter("kamino.registry.evictions")->Value(),
            evictions_before + 1);
  EXPECT_EQ(reg.counter("kamino.registry.hits")->Value(), hits_before + 1);
  EXPECT_EQ(reg.counter("kamino.registry.misses")->Value(), misses_before + 1);
}

}  // namespace
}  // namespace kamino
