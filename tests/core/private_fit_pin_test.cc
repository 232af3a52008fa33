// Digest pins of a *private* fit. Every other digest in the suite comes from
// a non-private fit, where neither the DP parameter search nor the DP-SGD
// noise path runs. These fit Adult and Tax at 600 rows and epsilon = 1 with
// the benchmark configuration (40 base iterations, embed_dim 10), at one
// and four threads, and pin:
//  - every exported tensor of the fitted model (encoder stores, network
//    heads and noisy histograms), with the resolved DP parameters and the
//    learned DC weights;
//  - the table of a 1200-row synthesis from the fit's RNG snapshot.
// If one fails after an *intentional* change to training, re-capture both
// digests from the failure messages and say why in the change log.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kamino/core/kamino.h"
#include "kamino/core/pipeline.h"
#include "kamino/data/generators.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

/// FNV-1a over raw bytes.
class Fnv1a {
 public:
  void Mix(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void MixDouble(double v) { Mix(&v, sizeof(v)); }
  void MixSize(size_t v) {
    const uint64_t u = v;
    Mix(&u, sizeof(u));
  }
  std::string Hex() const {
    char out[32];
    std::snprintf(out, sizeof(out), "0x%016" PRIx64, h_);
    return out;
  }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// The serialized model (schema, sequence, encoder stores, heads and
/// histograms), the DP parameters the search chose and the learned weights.
std::string FitDigest(const FitArtifacts& fitted) {
  Fnv1a h;
  std::vector<uint8_t> bytes;
  fitted.model.SerializeTo(&bytes);
  h.Mix(bytes.data(), bytes.size());
  const KaminoOptions& o = fitted.resolved_options;
  h.MixSize(o.iterations);
  h.MixSize(o.batch_size);
  h.MixDouble(o.sigma_d);
  h.MixDouble(o.sigma_g);
  h.MixDouble(o.sigma_w);
  h.MixDouble(fitted.epsilon_spent);
  for (double w : fitted.dc_weights) h.MixDouble(w);
  return h.Hex();
}

/// FNV-1a over an exact textual rendering of every cell (the rendering of
/// the sampler golden tests).
std::string TableDigest(const Table& t) {
  Fnv1a h;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Value v = t.at(r, c);
      char buf[64];
      if (v.is_numeric()) {
        std::snprintf(buf, sizeof(buf), "n:%.17g;", v.numeric());
      } else {
        std::snprintf(buf, sizeof(buf), "c:%d;", v.category());
      }
      h.Mix(buf, std::strlen(buf));
    }
  }
  return h.Hex();
}

/// The benchmark configuration (bench/harness.cc `BenchKaminoConfig`) at
/// epsilon = 1, with the given seed and thread budget.
KaminoConfig PrivateConfig(uint64_t seed, size_t num_threads) {
  KaminoConfig config;
  config.epsilon = 1.0;
  config.delta = 1e-6;
  config.options.seed = seed;
  config.options.iterations = 40;
  config.options.embed_dim = 10;
  config.options.num_threads = num_threads;
  return config;
}

void ExpectPrivateFitPinned(const BenchmarkDataset& ds, uint64_t seed,
                            const std::string& fit_pin,
                            const std::string& table_pin) {
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  for (const size_t num_threads : {size_t{1}, size_t{4}}) {
    auto fitted =
        FitPipeline(ds.table, constraints, PrivateConfig(seed, num_threads));
    ASSERT_TRUE(fitted.ok()) << fitted.status();
    EXPECT_FALSE(fitted.value().resolved_options.non_private);
    EXPECT_LE(fitted.value().epsilon_spent, 1.0);
    EXPECT_EQ(FitDigest(fitted.value()), fit_pin)
        << "fit digest drifted at num_threads=" << num_threads;
    SampleSpec spec;
    spec.num_rows = 1200;
    auto table = SamplePipeline(fitted.value(), spec);
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ(TableDigest(table.value()), table_pin)
        << "table digest drifted at num_threads=" << num_threads;
  }
  runtime::SetGlobalNumThreads(0);
}

TEST(PrivateFitPinTest, Adult600AtEpsilonOne) {
  ExpectPrivateFitPinned(MakeAdultLike(600, 2), 5, "0x7b7615a83df2c713",
                         "0x9d5129345d0eda11");
}

TEST(PrivateFitPinTest, Tax600AtEpsilonOne) {
  ExpectPrivateFitPinned(MakeTaxLike(600, 2), 5, "0x03d8067de26990b0",
                         "0x75ff04f9ca6b0259");
}

}  // namespace
}  // namespace kamino
