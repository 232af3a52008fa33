#include "kamino/core/params.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "kamino/core/model.h"
#include "kamino/dp/rdp.h"

namespace kamino {

double PrivacyCostEpsilon(const KaminoOptions& options, size_t num_rows,
                          size_t num_histograms, size_t num_models,
                          bool learn_weights, double delta) {
  KaminoPrivacyParams params;
  params.sigma_g = options.sigma_g;
  params.num_histograms = std::max<size_t>(1, num_histograms);
  params.sigma_d = options.sigma_d;
  params.batch_size = options.batch_size;
  params.iterations = options.iterations;
  params.num_models = num_models;
  params.num_rows = num_rows;
  params.learn_weights = learn_weights;
  params.sigma_w = options.sigma_w;
  params.weight_sample = options.weight_sample;
  return KaminoEpsilon(params, delta);
}

Result<KaminoOptions> SearchDpParameters(double epsilon, double delta,
                                         const Schema& schema,
                                         const std::vector<size_t>& sequence,
                                         size_t num_rows, bool learn_weights,
                                         const KaminoOptions& base) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("privacy budget must have eps>0, 0<delta<1");
  }
  KaminoOptions options = base;
  // Count the planned units for Theorem 1 before touching any data.
  const std::vector<ModelUnit> units =
      ProbabilisticDataModel::PlanUnits(schema, sequence, options);
  size_t num_histograms = 0;
  for (const ModelUnit& u : units) {
    if (u.kind == ModelUnit::Kind::kHistogram) ++num_histograms;
  }
  const size_t num_models = units.size() - num_histograms;

  // Line 2-5: optimistic initialization - minimal noise, maximal T and b.
  const double sigma_g_max =
      4.0 * std::sqrt(std::log(1.25 / delta)) / epsilon;
  const double sigma_d_max = 1.5;
  const size_t t_min = std::max<size_t>(10, base.iterations / 5);
  const size_t b_min = 16;
  options.sigma_g = std::max(0.5, base.sigma_g * 0.25);
  options.sigma_d = 1.0;
  options.iterations = base.iterations;
  options.batch_size = std::max<size_t>(b_min, base.batch_size);

  // The back-off re-evaluates the cost after every step, often of an
  // option set no step changed. The cost is a pure function of these
  // fields, so such a call reuses the last value.
  auto cost_key = [&]() {
    return std::make_tuple(options.sigma_g, options.sigma_d, options.sigma_w,
                           options.batch_size, options.iterations,
                           options.weight_sample);
  };
  decltype(cost_key()) last_key;
  double last_cost = 0.0;
  bool costed = false;
  auto cost = [&]() {
    if (!costed || cost_key() != last_key) {
      last_cost = PrivacyCostEpsilon(options, num_rows, num_histograms,
                                     num_models, learn_weights, delta);
      last_key = cost_key();
      costed = true;
    }
    return last_cost;
  };

  // Lines 10-15: priority-ordered back-off until the budget fits.
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
      options.batch_size = std::max(
          b_min, static_cast<size_t>(options.batch_size / 2));
      changed = true;
    }
    if (!changed) {
      // All bounded knobs exhausted: grow the noise scales unboundedly.
      options.sigma_d *= 1.2;
      options.sigma_g *= 1.2;
      options.sigma_w *= 1.2;
    }
  }
  if (cost() > epsilon) {
    return Status::Internal("parameter search failed to fit privacy budget");
  }
  return options;
}

}  // namespace kamino
