#include "kamino/dp/rdp.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "kamino/common/logging.h"

namespace kamino {
namespace {

double LogBinomial(int n, int k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
         std::lgamma(n - k + 1.0);
}

/// log C(alpha, k) for k = 0..alpha when `alpha` is on the `RdpOrders()`
/// grid, else null. Built once from `LogBinomial` itself, so a lookup
/// reads exactly the value the call would return.
const double* LogBinomialRow(int alpha) {
  static const std::vector<std::vector<double>>* rows = [] {
    const std::vector<int>& orders = RdpOrders();
    auto* table = new std::vector<std::vector<double>>(
        *std::max_element(orders.begin(), orders.end()) + 1);
    for (int a : orders) {
      std::vector<double>& row = (*table)[a];
      for (int k = 0; k <= a; ++k) row.push_back(LogBinomial(a, k));
    }
    return table;
  }();
  if (alpha < 0 || static_cast<size_t>(alpha) >= rows->size()) return nullptr;
  const std::vector<double>& row = (*rows)[alpha];
  return row.empty() ? nullptr : row.data();
}

double LogSumExp(const std::vector<double>& xs) {
  double mx = -std::numeric_limits<double>::infinity();
  for (double x : xs) mx = std::max(mx, x);
  if (!std::isfinite(mx)) return mx;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - mx);
  return mx + std::log(sum);
}

}  // namespace

const std::vector<int>& RdpOrders() {
  static const std::vector<int>* orders = [] {
    auto* v = new std::vector<int>();
    for (int a = 2; a <= 64; ++a) v->push_back(a);
    for (int a : {80, 96, 128, 256, 512}) v->push_back(a);
    return v;
  }();
  return *orders;
}

double GaussianRdp(double sigma, int alpha) {
  KAMINO_CHECK(sigma > 0.0) << "sigma must be positive";
  return static_cast<double>(alpha) / (2.0 * sigma * sigma);
}

double SampledGaussianRdp(double sigma, double q, int alpha) {
  KAMINO_CHECK(sigma > 0.0) << "sigma must be positive";
  KAMINO_CHECK(q >= 0.0 && q <= 1.0) << "q must be a probability";
  KAMINO_CHECK(alpha >= 2) << "alpha must be >= 2";
  if (q == 0.0) return 0.0;
  if (q == 1.0) return GaussianRdp(sigma, alpha);
  const double log_q = std::log(q);
  const double log_1mq = std::log1p(-q);
  const double* log_binomial = LogBinomialRow(alpha);
  std::vector<double> terms;
  terms.reserve(alpha + 1);
  for (int k = 0; k <= alpha; ++k) {
    const double moment =
        static_cast<double>(k) * (k - 1) / (2.0 * sigma * sigma);
    const double log_c =
        log_binomial != nullptr ? log_binomial[k] : LogBinomial(alpha, k);
    terms.push_back(log_c + (alpha - k) * log_1mq + k * log_q + moment);
  }
  const double log_a = LogSumExp(terms);
  // The bound can dip below 0 from floating point error; clamp.
  return std::max(0.0, log_a / (alpha - 1));
}

RdpAccountant::RdpAccountant() : costs_(RdpOrders().size(), 0.0) {}

void RdpAccountant::AddGaussian(double sigma, int64_t steps) {
  const auto& orders = RdpOrders();
  for (size_t i = 0; i < orders.size(); ++i) {
    costs_[i] += steps * GaussianRdp(sigma, orders[i]);
  }
}

void RdpAccountant::AddSampledGaussian(double sigma, double q, int64_t steps) {
  const auto& orders = RdpOrders();
  for (size_t i = 0; i < orders.size(); ++i) {
    costs_[i] += steps * SampledGaussianRdp(sigma, q, orders[i]);
  }
}

double RdpAccountant::EpsilonFor(double delta) const {
  KAMINO_CHECK(delta > 0.0 && delta < 1.0) << "delta must be in (0,1)";
  const auto& orders = RdpOrders();
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < orders.size(); ++i) {
    const double eps =
        costs_[i] + std::log(1.0 / delta) / (orders[i] - 1);
    best = std::min(best, eps);
  }
  return best;
}

double RdpAccountant::CostAt(int alpha) const {
  const auto& orders = RdpOrders();
  for (size_t i = 0; i < orders.size(); ++i) {
    if (orders[i] == alpha) return costs_[i];
  }
  KAMINO_LOG(Fatal) << "alpha " << alpha << " not on the tracked grid";
  return 0.0;
}

namespace {

double BinarySearchSigma(const std::function<double(double)>& epsilon_of_sigma,
                         double target_epsilon) {
  double lo = 0.05;
  double hi = 5000.0;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (epsilon_of_sigma(mid) > target_epsilon) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

double CalibrateGaussianSigma(int64_t releases, double epsilon, double delta) {
  return BinarySearchSigma(
      [releases, delta](double sigma) {
        RdpAccountant acc;
        acc.AddGaussian(sigma, releases);
        return acc.EpsilonFor(delta);
      },
      epsilon);
}

double CalibrateSgmSigma(int64_t steps, double q, double epsilon,
                         double delta) {
  return BinarySearchSigma(
      [steps, q, delta](double sigma) {
        RdpAccountant acc;
        acc.AddSampledGaussian(sigma, q, steps);
        return acc.EpsilonFor(delta);
      },
      epsilon);
}

double KaminoEpsilon(const KaminoPrivacyParams& params, double delta) {
  RdpAccountant accountant;
  accountant.AddGaussian(params.sigma_g,
                         static_cast<int64_t>(params.num_histograms));
  const double q_d =
      std::min(1.0, static_cast<double>(params.batch_size) /
                        static_cast<double>(params.num_rows));
  accountant.AddSampledGaussian(
      params.sigma_d, q_d,
      static_cast<int64_t>(params.iterations) *
          static_cast<int64_t>(params.num_models));
  if (params.learn_weights) {
    const double q_w =
        std::min(1.0, static_cast<double>(params.weight_sample) /
                          static_cast<double>(params.num_rows));
    accountant.AddSampledGaussian(params.sigma_w, q_w, 1);
  }
  return accountant.EpsilonFor(delta);
}

}  // namespace kamino
