// Table 2 (Experiment 1): percentage of tuple pairs that violate each DC,
// for the truth, the four baselines and Kamino at (eps=1, delta=1e-6).
//
// Expected shape (paper): the truth and Kamino have (near-)zero violations
// on hard DCs and truth-like rates on soft DCs, while the i.i.d. baselines
// violate broadly.
//
// Exits 1 when Kamino's output violates a hard DC at all, or when
// `CountViolations` differs from the naive pair scan on any table.

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "kamino/dc/violations.h"

int main() {
  using namespace kamino;
  using namespace kamino::bench;
  PrintHeader("Table 2: % of tuple pairs violating each DC (eps=1)");
  std::printf("%-10s %-6s %8s %10s %8s %9s %6s %8s\n", "dataset", "DC",
              "truth", "privbayes", "dp-vae", "pate-gan", "nist", "kamino");
  bool ok = true;
  // `CountViolations` of `table`, checked against the naive pair scan.
  auto checked_count = [&ok](const DenialConstraint& dc, const Table& table,
                             const std::string& label) {
    const int64_t count = CountViolations(dc, table);
    const int64_t naive = CountViolationsNaive(dc, table);
    if (count != naive) {
      std::fprintf(stderr, "%s: CountViolations %lld != naive %lld\n",
                   label.c_str(), static_cast<long long>(count),
                   static_cast<long long>(naive));
      ok = false;
    }
    return count;
  };
  for (const BenchmarkDataset& ds : MakeAllBenchmarks(kDefaultRows, kSeed)) {
    auto constraints = Constraints(ds);
    std::vector<MethodRun> runs = RunAllMethods(ds, 1.0, kSeed);
    for (size_t l = 0; l < constraints.size(); ++l) {
      const DenialConstraint& dc = constraints[l].dc;
      const std::string label = ds.name + " phi_" + std::to_string(l + 1);
      checked_count(dc, ds.table, label + " truth");
      std::printf("%-10s phi_%-3zu %7.2f%%", ds.name.c_str(), l + 1,
                  ViolationRatePercent(dc, ds.table));
      // Column order: privbayes, dp-vae, pate-gan, nist, kamino.
      for (const MethodRun& run : runs) {
        const int64_t count =
            checked_count(dc, run.synthetic, label + " " + run.method);
        if (run.method == "kamino" && constraints[l].hard && count != 0) {
          std::fprintf(stderr, "%s: kamino violates the hard DC %lld times\n",
                       label.c_str(), static_cast<long long>(count));
          ok = false;
        }
        std::printf(" %8.2f%%", ViolationRatePercent(dc, run.synthetic));
      }
      std::printf("\n");
    }
  }
  return ok ? 0 : 1;
}
