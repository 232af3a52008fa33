#ifndef KAMINO_BENCH_HARNESS_H_
#define KAMINO_BENCH_HARNESS_H_

// Shared experiment harness for the per-table/per-figure benchmark
// binaries. Every binary regenerates one artifact of the paper's
// evaluation section on the scaled-down generated workloads (absolute
// numbers are not comparable with the paper's testbed; the *shape* -
// which method wins, by how much, and trends - is).

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kamino/core/kamino.h"
#include "kamino/data/generators.h"
#include "kamino/dc/constraint.h"

namespace kamino::bench {

/// Default scaled-down workload size used by the experiment binaries.
inline constexpr size_t kDefaultRows = 600;
inline constexpr uint64_t kSeed = 2024;

/// One synthesis output, timed.
struct MethodRun {
  std::string method;
  Table synthetic;
  double seconds = 0.0;
};

/// Kamino config tuned for bench scale: modest training budget so the
/// whole suite completes in minutes.
KaminoConfig BenchKaminoConfig(double epsilon, uint64_t seed);

/// Runs Kamino on the dataset and returns its synthetic instance.
MethodRun RunKaminoMethod(const BenchmarkDataset& ds, double epsilon,
                          uint64_t seed);

/// Runs one of the four baselines ("privbayes", "nist", "dp-vae",
/// "pate-gan").
MethodRun RunBaseline(const std::string& name, const BenchmarkDataset& ds,
                      double epsilon, uint64_t seed);

/// All five methods in the paper's column order:
/// PrivBayes, DP-VAE, PATE-GAN, NIST, Kamino.
std::vector<MethodRun> RunAllMethods(const BenchmarkDataset& ds,
                                     double epsilon, uint64_t seed);

/// Parses the dataset's DCs (never fails for generator output).
std::vector<WeightedConstraint> Constraints(const BenchmarkDataset& ds);

/// Mean classification accuracy/F1 over a subset of attributes (Metric II
/// at bench scale). `max_attrs` limits the label attributes evaluated.
struct QualitySummary {
  double accuracy = 0.0;
  double f1 = 0.0;
};
QualitySummary ClassifierQuality(const Table& synthetic, const Table& truth,
                                 size_t max_attrs, uint64_t seed);

/// Mean 1-way / 2-way marginal distances (Metric III).
struct MarginalSummary {
  double one_way_mean = 0.0;
  double one_way_max = 0.0;
  double two_way_mean = 0.0;
};
MarginalSummary MarginalQuality(const Table& synthetic, const Table& truth,
                                uint64_t seed);

/// Prints a horizontal rule + centered title.
void PrintHeader(const std::string& title);

/// One machine-readable measurement for the perf trajectory: `value` in
/// `unit` ("s", "bytes" or "rows") for `method` at `rows` rows, `threads`
/// threads and `shards` shards (1 for work that does not shard).
struct BenchRecord {
  std::string method;
  size_t rows = 0;
  size_t threads = 1;
  size_t shards = 1;
  double value = 0.0;
  std::string unit;
};

/// Writes `records` as a JSON array of {"method", "rows", "threads",
/// "shards", "value", "unit"} objects (bench_parallel_scaling writes
/// BENCH_parallel.json with it), so a change can diff performance
/// mechanically instead of scraping stdout. Returns false, after a message
/// on stderr, when the file cannot be written.
bool WriteBenchJson(const std::string& path,
                    const std::vector<BenchRecord>& records);

}  // namespace kamino::bench

#endif  // KAMINO_BENCH_HARNESS_H_
