#include "bench/harness.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "kamino/baselines/dpvae.h"
#include "kamino/baselines/nist_pgm.h"
#include "kamino/baselines/pategan.h"
#include "kamino/baselines/privbayes.h"
#include "kamino/common/logging.h"
#include "kamino/eval/classifiers.h"
#include "kamino/eval/marginals.h"

namespace kamino::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

KaminoConfig BenchKaminoConfig(double epsilon, uint64_t seed) {
  KaminoConfig config;
  config.epsilon = epsilon;
  config.delta = 1e-6;
  config.options.seed = seed;
  config.options.iterations = 40;
  config.options.embed_dim = 10;
  if (epsilon <= 0.0) {  // convention: non-private run
    config.options.non_private = true;
  }
  return config;
}

std::vector<WeightedConstraint> Constraints(const BenchmarkDataset& ds) {
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema());
  KAMINO_CHECK(constraints.ok()) << constraints.status().ToString();
  return std::move(constraints).TakeValue();
}

MethodRun RunKaminoMethod(const BenchmarkDataset& ds, double epsilon,
                          uint64_t seed) {
  const double start = Now();
  auto result = RunKamino(ds.table, Constraints(ds),
                          BenchKaminoConfig(epsilon, seed));
  KAMINO_CHECK(result.ok()) << result.status().ToString();
  MethodRun run;
  run.method = "kamino";
  run.synthetic = std::move(result.value().synthetic);
  run.seconds = Now() - start;
  return run;
}

MethodRun RunBaseline(const std::string& name, const BenchmarkDataset& ds,
                      double epsilon, uint64_t seed) {
  // Non-private runs approximate epsilon = infinity with a huge budget.
  const double eps = epsilon <= 0.0 ? 1e6 : epsilon;
  Rng rng(seed);
  std::unique_ptr<Synthesizer> synth;
  if (name == "privbayes") {
    PrivBayes::Options o;
    o.epsilon = eps;
    synth = std::make_unique<PrivBayes>(o);
  } else if (name == "nist") {
    NistPgm::Options o;
    o.epsilon = eps;
    synth = std::make_unique<NistPgm>(o);
  } else if (name == "dp-vae") {
    DpVae::Options o;
    o.epsilon = eps;
    o.iterations = 60;
    synth = std::make_unique<DpVae>(o);
  } else if (name == "pate-gan") {
    PateGan::Options o;
    o.epsilon = eps;
    o.train_steps = 80;
    synth = std::make_unique<PateGan>(o);
  } else {
    KAMINO_LOG(Fatal) << "unknown baseline " << name;
  }
  const double start = Now();
  auto out = synth->Synthesize(ds.table, ds.table.num_rows(), &rng);
  KAMINO_CHECK(out.ok()) << name << ": " << out.status().ToString();
  MethodRun run;
  run.method = name;
  run.synthetic = std::move(out).TakeValue();
  run.seconds = Now() - start;
  return run;
}

std::vector<MethodRun> RunAllMethods(const BenchmarkDataset& ds,
                                     double epsilon, uint64_t seed) {
  std::vector<MethodRun> runs;
  runs.push_back(RunBaseline("privbayes", ds, epsilon, seed + 1));
  runs.push_back(RunBaseline("dp-vae", ds, epsilon, seed + 2));
  runs.push_back(RunBaseline("pate-gan", ds, epsilon, seed + 3));
  runs.push_back(RunBaseline("nist", ds, epsilon, seed + 4));
  runs.push_back(RunKaminoMethod(ds, epsilon, seed + 5));
  return runs;
}

QualitySummary ClassifierQuality(const Table& synthetic, const Table& truth,
                                 size_t max_attrs, uint64_t seed) {
  // Metric II on a bounded prefix of label attributes (runtime control at
  // bench scale): train the basket on 70% synthetic, test on 30% truth.
  Rng rng(seed);
  const size_t attrs = std::min(max_attrs, truth.schema().size());
  const size_t train_rows = synthetic.num_rows() * 7 / 10;
  const size_t test_start = truth.num_rows() * 7 / 10;
  Table truth_test(truth.schema());
  for (size_t r = test_start; r < truth.num_rows(); ++r) {
    truth_test.AppendRowUnchecked(truth.row(r));
  }

  QualitySummary q;
  for (size_t a = 0; a < attrs; ++a) {
    const LabelRule rule = MakeLabelRule(truth, a);
    LabeledData train = Encode(synthetic.Head(train_rows), a, rule);
    LabeledData test = Encode(truth_test, a, rule);
    ClassificationQuality mean;
    auto basket = MakeClassifierBasket();
    for (auto& model : basket) {
      model->Fit(train, &rng);
      const ClassificationQuality s = Score(*model, test);
      mean.accuracy += s.accuracy;
      mean.f1 += s.f1;
    }
    q.accuracy += mean.accuracy / basket.size();
    q.f1 += mean.f1 / basket.size();
  }
  q.accuracy /= attrs;
  q.f1 /= attrs;
  return q;
}

MarginalSummary MarginalQuality(const Table& synthetic, const Table& truth,
                                uint64_t seed) {
  Rng rng(seed);
  MarginalSummary m;
  const auto one_way = OneWayMarginalDistances(synthetic, truth, 16);
  m.one_way_mean = MeanOf(one_way);
  m.one_way_max = MaxOf(one_way);
  m.two_way_mean =
      MeanOf(TwoWayMarginalDistances(synthetic, truth, 16, 10, &rng));
  return m;
}

bool WriteBenchJson(const std::string& path,
                    const std::vector<BenchRecord>& records) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    // Seconds to the microsecond; byte and row counts are whole numbers.
    char value[32];
    std::snprintf(value, sizeof(value), r.unit == "s" ? "%.6f" : "%.0f",
                  r.value);
    out << "  {\"method\": \"" << r.method << "\", \"rows\": " << r.rows
        << ", \"threads\": " << r.threads << ", \"shards\": " << r.shards
        << ", \"value\": " << value << ", \"unit\": \"" << r.unit << "\"}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "WriteBenchJson: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %zu records to %s\n", records.size(), path.c_str());
  return true;
}

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace kamino::bench
