// The privacy accounting's reuse of earlier work: `SampledGaussianRdp`
// reads log C(alpha, k) from a per-order table, and `SearchDpParameters`
// reuses the cost of an unchanged option set. Both must be exact: the
// accountant's epsilon equals an uncached reference bit for bit, and the
// search chooses the options an uncached search chooses.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "kamino/core/model.h"
#include "kamino/core/params.h"
#include "kamino/core/sequencing.h"
#include "kamino/data/generators.h"
#include "kamino/dp/rdp.h"

namespace kamino {
namespace {

uint64_t Bits(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// --- Uncached reference accounting: the formulas, evaluated afresh. ---

double RefLogBinomial(int n, int k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
         std::lgamma(n - k + 1.0);
}

double RefSampledGaussianRdp(double sigma, double q, int alpha) {
  if (q == 0.0) return 0.0;
  if (q == 1.0) return GaussianRdp(sigma, alpha);
  const double log_q = std::log(q);
  const double log_1mq = std::log1p(-q);
  std::vector<double> terms;
  for (int k = 0; k <= alpha; ++k) {
    const double moment =
        static_cast<double>(k) * (k - 1) / (2.0 * sigma * sigma);
    terms.push_back(RefLogBinomial(alpha, k) + (alpha - k) * log_1mq +
                    k * log_q + moment);
  }
  double mx = -std::numeric_limits<double>::infinity();
  for (double x : terms) mx = std::max(mx, x);
  double log_a = mx;
  if (std::isfinite(mx)) {
    double sum = 0.0;
    for (double x : terms) sum += std::exp(x - mx);
    log_a = mx + std::log(sum);
  }
  return std::max(0.0, log_a / (alpha - 1));
}

double RefKaminoEpsilon(const KaminoPrivacyParams& p, double delta) {
  const std::vector<int>& orders = RdpOrders();
  std::vector<double> costs(orders.size(), 0.0);
  const int64_t histograms = static_cast<int64_t>(p.num_histograms);
  const int64_t steps = static_cast<int64_t>(p.iterations) *
                        static_cast<int64_t>(p.num_models);
  const double q_d = std::min(1.0, static_cast<double>(p.batch_size) /
                                       static_cast<double>(p.num_rows));
  const double q_w = std::min(1.0, static_cast<double>(p.weight_sample) /
                                       static_cast<double>(p.num_rows));
  for (size_t i = 0; i < orders.size(); ++i) {
    costs[i] += histograms * GaussianRdp(p.sigma_g, orders[i]);
  }
  for (size_t i = 0; i < orders.size(); ++i) {
    costs[i] += steps * RefSampledGaussianRdp(p.sigma_d, q_d, orders[i]);
  }
  if (p.learn_weights) {
    for (size_t i = 0; i < orders.size(); ++i) {
      costs[i] += int64_t{1} * RefSampledGaussianRdp(p.sigma_w, q_w, orders[i]);
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < orders.size(); ++i) {
    best = std::min(best, costs[i] + std::log(1.0 / delta) / (orders[i] - 1));
  }
  return best;
}

/// Algorithm 6 as `SearchDpParameters` runs it, with every cost computed
/// afresh by the reference accountant.
KaminoOptions RefSearch(double epsilon, double delta, const Schema& schema,
                        const std::vector<size_t>& sequence, size_t num_rows,
                        bool learn_weights, const KaminoOptions& base) {
  KaminoOptions options = base;
  const std::vector<ModelUnit> units =
      ProbabilisticDataModel::PlanUnits(schema, sequence, options);
  size_t num_histograms = 0;
  for (const ModelUnit& u : units) {
    if (u.kind == ModelUnit::Kind::kHistogram) ++num_histograms;
  }
  const size_t num_models = units.size() - num_histograms;
  const double sigma_g_max =
      4.0 * std::sqrt(std::log(1.25 / delta)) / epsilon;
  const double sigma_d_max = 1.5;
  const size_t t_min = std::max<size_t>(10, base.iterations / 5);
  const size_t b_min = 16;
  options.sigma_g = std::max(0.5, base.sigma_g * 0.25);
  options.sigma_d = 1.0;
  options.iterations = base.iterations;
  options.batch_size = std::max<size_t>(b_min, base.batch_size);
  auto cost = [&]() {
    KaminoPrivacyParams p;
    p.sigma_g = options.sigma_g;
    p.num_histograms = std::max<size_t>(1, num_histograms);
    p.sigma_d = options.sigma_d;
    p.batch_size = options.batch_size;
    p.iterations = options.iterations;
    p.num_models = num_models;
    p.num_rows = num_rows;
    p.learn_weights = learn_weights;
    p.sigma_w = options.sigma_w;
    p.weight_sample = options.weight_sample;
    return RefKaminoEpsilon(p, delta);
  };
  int guard = 0;
  while (cost() > epsilon && guard++ < 10000) {
    bool changed = false;
    if (options.iterations > t_min) {
      options.iterations =
          std::max(t_min, static_cast<size_t>(options.iterations * 0.8));
      changed = true;
    }
    if (cost() <= epsilon) break;
    if (options.sigma_d < sigma_d_max) {
      options.sigma_d = std::min(sigma_d_max, options.sigma_d + 0.05);
      changed = true;
    }
    if (cost() <= epsilon) break;
    if (options.sigma_g < sigma_g_max) {
      options.sigma_g = std::min(sigma_g_max, options.sigma_g * 1.3);
      changed = true;
    }
    if (cost() <= epsilon) break;
    if (options.batch_size > b_min) {
      options.batch_size =
          std::max(b_min, static_cast<size_t>(options.batch_size / 2));
      changed = true;
    }
    if (!changed) {
      options.sigma_d *= 1.2;
      options.sigma_g *= 1.2;
      options.sigma_w *= 1.2;
    }
  }
  return options;
}

TEST(ParameterSearchCacheTest, SampledGaussianRdpMatchesReferenceBitwise) {
  Rng rng(41);
  std::vector<int> alphas = RdpOrders();
  for (int off_grid : {65, 79, 100, 513, 600}) alphas.push_back(off_grid);
  for (int trial = 0; trial < 40; ++trial) {
    const double sigma = rng.Uniform(0.3, 6.0);
    const double q = rng.Uniform(0.0, 0.5);
    for (int alpha : alphas) {
      EXPECT_EQ(Bits(SampledGaussianRdp(sigma, q, alpha)),
                Bits(RefSampledGaussianRdp(sigma, q, alpha)))
          << "sigma " << sigma << " q " << q << " alpha " << alpha;
    }
  }
}

TEST(ParameterSearchCacheTest, KaminoEpsilonMatchesReferenceBitwise) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    KaminoPrivacyParams p;
    p.sigma_g = rng.Uniform(0.3, 30.0);
    p.num_histograms = static_cast<size_t>(rng.UniformInt(1, 4));
    p.sigma_d = rng.Uniform(0.4, 5.0);
    p.batch_size = static_cast<size_t>(rng.UniformInt(1, 256));
    p.iterations = static_cast<size_t>(rng.UniformInt(1, 500));
    p.num_models = static_cast<size_t>(rng.UniformInt(1, 20));
    p.num_rows = static_cast<size_t>(rng.UniformInt(50, 20000));
    p.learn_weights = rng.Bernoulli(0.5);
    p.sigma_w = rng.Uniform(0.4, 5.0);
    p.weight_sample = static_cast<size_t>(rng.UniformInt(10, 400));
    const double delta = trial % 3 == 0 ? 1e-6 : trial % 3 == 1 ? 1e-5 : 1e-3;
    EXPECT_EQ(Bits(KaminoEpsilon(p, delta)), Bits(RefKaminoEpsilon(p, delta)))
        << "trial " << trial;
  }
}

TEST(ParameterSearchCacheTest, SearchChoosesTheUncachedOptions) {
  const BenchmarkDataset datasets[] = {MakeAdultLike(60, 1),
                                       MakeBr2000Like(60, 1),
                                       MakeTaxLike(60, 1), MakeTpchLike(60, 1)};
  // The benchmark's base T = 40, and T = 400. Epsilon 8 adds searches that
  // stop right after cutting T, where a cost reused across the cut would
  // show.
  KaminoOptions bench_base;
  bench_base.iterations = 40;
  bench_base.embed_dim = 10;
  KaminoOptions long_base = bench_base;
  long_base.iterations = 400;
  for (const BenchmarkDataset& ds : datasets) {
    const Schema& schema = ds.table.schema();
    auto constraints =
        ParseConstraints(ds.dc_specs, ds.hardness, schema).TakeValue();
    const std::vector<size_t> sequence = SequenceSchema(schema, constraints);
    for (const KaminoOptions& base : {bench_base, long_base}) {
      for (size_t rows : {size_t{600}, size_t{2400}, size_t{9600}}) {
        for (double epsilon : {0.25, 1.0, 4.0, 8.0}) {
          SCOPED_TRACE(::testing::Message()
                       << ds.name << " rows " << rows << " epsilon "
                       << epsilon << " base T " << base.iterations);
          auto got = SearchDpParameters(epsilon, 1e-6, schema, sequence,
                                        rows, /*learn_weights=*/true, base);
          ASSERT_TRUE(got.ok()) << got.status();
          const KaminoOptions want =
              RefSearch(epsilon, 1e-6, schema, sequence, rows,
                        /*learn_weights=*/true, base);
          const KaminoOptions& o = got.value();
          EXPECT_EQ(o.iterations, want.iterations);
          EXPECT_EQ(o.batch_size, want.batch_size);
          EXPECT_EQ(Bits(o.sigma_d), Bits(want.sigma_d));
          EXPECT_EQ(Bits(o.sigma_g), Bits(want.sigma_g));
          EXPECT_EQ(Bits(o.sigma_w), Bits(want.sigma_w));
        }
      }
    }
  }
}

}  // namespace
}  // namespace kamino
