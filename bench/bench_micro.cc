// Micro-benchmarks (google-benchmark) for the hot paths: violation
// counting (naive vs FD fast path), the incremental violation index,
// autograd forward/backward of the discriminative model, and the RDP
// accountant.

#include <benchmark/benchmark.h>

#include "kamino/core/model.h"
#include "kamino/data/generators.h"
#include "kamino/dc/violations.h"
#include "kamino/dp/rdp.h"
#include "kamino/nn/dpsgd.h"

namespace kamino {
namespace {

const BenchmarkDataset& AdultData() {
  static const BenchmarkDataset* ds = new BenchmarkDataset(MakeAdultLike(500, 7));
  return *ds;
}

std::vector<WeightedConstraint> AdultConstraints() {
  const BenchmarkDataset& ds = AdultData();
  return ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema())
      .TakeValue();
}

void BM_CountViolationsNaive(benchmark::State& state) {
  auto constraints = AdultConstraints();
  Table table = AdultData().table.Head(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountViolationsNaive(constraints[0].dc, table));
  }
}
BENCHMARK(BM_CountViolationsNaive)->Arg(100)->Arg(300);

void BM_CountViolationsFdFastPath(benchmark::State& state) {
  auto constraints = AdultConstraints();
  Table table = AdultData().table.Head(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountViolations(constraints[0].dc, table));
  }
}
BENCHMARK(BM_CountViolationsFdFastPath)->Arg(100)->Arg(300);

void BM_ViolationIndexCountNew(benchmark::State& state) {
  auto constraints = AdultConstraints();
  const Table& table = AdultData().table;
  auto index = MakeViolationIndex(constraints[0].dc);
  for (size_t i = 0; i < table.num_rows(); ++i) index->AddRow(table.row(i));
  size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->CountNew(table.row(r)));
    r = (r + 1) % table.num_rows();
  }
}
BENCHMARK(BM_ViolationIndexCountNew);

void BM_DiscriminativeForwardBackward(benchmark::State& state) {
  const BenchmarkDataset& ds = AdultData();
  Rng rng(3);
  EncoderStore store(ds.table.schema(), 12, &rng);
  std::vector<size_t> context = {0, 1, 2, 3, 4};
  DiscriminativeModel model(ds.table.schema(), context, {5}, &store, &rng);
  size_t r = 0;
  for (auto _ : state) {
    ForwardContext ctx;
    Var loss = model.Loss(ds.table.row(r), &ctx);
    Backward(loss);
    benchmark::DoNotOptimize(loss->value[0]);
    r = (r + 1) % ds.table.num_rows();
  }
}
BENCHMARK(BM_DiscriminativeForwardBackward);

// The same example's gradient as DP-SGD computes it: tape-free and sparse.
void BM_DiscriminativeLossGradient(benchmark::State& state) {
  const BenchmarkDataset& ds = AdultData();
  Rng rng(3);
  EncoderStore store(ds.table.schema(), 12, &rng);
  std::vector<size_t> context = {0, 1, 2, 3, 4};
  DiscriminativeModel model(ds.table.schema(), context, {5}, &store, &rng);
  InferenceScratch scratch;
  SparseGradient grad;
  Row row;
  size_t r = 0;
  for (auto _ : state) {
    ds.table.CopyRowInto(r, &row);
    benchmark::DoNotOptimize(model.LossGradient(row, &scratch, &grad));
    r = (r + 1) % ds.table.num_rows();
  }
}
BENCHMARK(BM_DiscriminativeLossGradient);

void BM_RdpAccountantEpsilon(benchmark::State& state) {
  RdpAccountant acc;
  acc.AddGaussian(4.0, 1);
  acc.AddSampledGaussian(1.1, 0.01, 1400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.EpsilonFor(1e-6));
  }
}
BENCHMARK(BM_RdpAccountantEpsilon);

void BM_SgmRdpStep(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampledGaussianRdp(1.1, 0.02, 32));
  }
}
BENCHMARK(BM_SgmRdpStep);

}  // namespace
}  // namespace kamino

BENCHMARK_MAIN();
