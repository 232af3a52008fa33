#include "kamino/core/sampler.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "kamino/core/sequencing.h"
#include "kamino/dc/violations.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

// A compact FD workload: dept determines floor; truth has zero violations.
struct Workload {
  Table table;
  std::vector<WeightedConstraint> constraints;
  std::vector<size_t> sequence;
};

Workload MakeFdWorkload(size_t n, uint64_t seed) {
  Schema schema({
      Attribute::MakeCategorical("dept", {"d0", "d1", "d2", "d3"}),
      Attribute::MakeCategorical("floor", {"f0", "f1", "f2", "f3"}),
      Attribute::MakeNumeric("salary", 0, 100, 101),
  });
  Rng rng(seed);
  Table table(schema);
  for (size_t i = 0; i < n; ++i) {
    const int dept = static_cast<int>(rng.UniformInt(0, 3));
    table.AppendRowUnchecked(
        {Value::Categorical(dept), Value::Categorical(dept),
         Value::Numeric(20.0 * dept + rng.Uniform(0, 10))});
  }
  Workload w;
  w.table = std::move(table);
  w.constraints =
      ParseConstraints({"!(t1.dept == t2.dept & t1.floor != t2.floor)"},
                       {true}, schema)
          .TakeValue();
  w.sequence = SequenceSchema(schema, w.constraints);
  return w;
}

ProbabilisticDataModel TrainFor(const Workload& w, KaminoOptions options) {
  Rng rng(options.seed);
  auto model =
      ProbabilisticDataModel::Train(w.table, w.sequence, options, &rng);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).TakeValue();
}

KaminoOptions NonPrivateOptions() {
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 150;
  options.enable_grouping = false;
  options.seed = 3;
  return options;
}

/// FNV-1a over an exact textual rendering of every cell, as 0x%016x:
/// equal digests mean bit-identical tables.
std::string TableDigest(const Table& t) {
  uint64_t h = 1469598103934665603ull;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Value v = t.at(r, c);
      char buf[64];
      if (v.is_numeric()) {
        std::snprintf(buf, sizeof(buf), "n:%.17g;", v.numeric());
      } else {
        std::snprintf(buf, sizeof(buf), "c:%d;", v.category());
      }
      for (const char* p = buf; *p; ++p) {
        h ^= static_cast<unsigned char>(*p);
        h *= 1099511628211ull;
      }
    }
  }
  char out[32];
  std::snprintf(out, sizeof(out), "0x%016" PRIx64, h);
  return out;
}

/// Samples `num_rows` rows from `model` with a fresh Rng(`seed`) at each
/// thread budget in {1, 4}, and expects every run's digest to be `pin`.
void ExpectPinnedAtOneAndFourThreads(const ProbabilisticDataModel& model,
                                     const Workload& w,
                                     const KaminoOptions& options,
                                     size_t num_rows, uint64_t seed,
                                     const std::string& pin) {
  for (const size_t num_threads : {size_t{1}, size_t{4}}) {
    runtime::SetGlobalNumThreads(num_threads);
    Rng rng(seed);
    auto out =
        Synthesize(model, w.constraints, options, SampleSpec{num_rows}, &rng);
    runtime::SetGlobalNumThreads(0);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(TableDigest(out.value()), pin)
        << "digest drifted at num_threads=" << num_threads;
  }
}

TEST(SamplerTest, ConstraintAwareKeepsHardFdClean) {
  Workload w = MakeFdWorkload(200, 1);
  KaminoOptions options = NonPrivateOptions();
  ProbabilisticDataModel model = TrainFor(w, options);
  Rng rng(11);
  auto out = Synthesize(model, w.constraints, options, SampleSpec{200}, &rng);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out.value().num_rows(), 200u);
  EXPECT_EQ(CountViolations(w.constraints[0].dc, out.value()), 0);
}

TEST(SamplerTest, RandSamplingAblationViolatesMore) {
  Workload w = MakeFdWorkload(200, 2);
  KaminoOptions options = NonPrivateOptions();
  // Inject noise by shortening training so the i.i.d. sampler makes
  // mistakes the DC factor would veto.
  options.iterations = 5;
  ProbabilisticDataModel model = TrainFor(w, options);

  Rng rng_aware(7), rng_iid(7);
  KaminoOptions aware = options;
  auto constrained =
      Synthesize(model, w.constraints, aware, SampleSpec{300}, &rng_aware);
  KaminoOptions iid = options;
  iid.constraint_aware_sampling = false;
  auto unconstrained =
      Synthesize(model, w.constraints, iid, SampleSpec{300}, &rng_iid);
  ASSERT_TRUE(constrained.ok());
  ASSERT_TRUE(unconstrained.ok());
  EXPECT_LT(CountViolations(w.constraints[0].dc, constrained.value()),
            CountViolations(w.constraints[0].dc, unconstrained.value()));
  EXPECT_EQ(CountViolations(w.constraints[0].dc, constrained.value()), 0);
}

TEST(SamplerTest, RowsStayInsideDomains) {
  Workload w = MakeFdWorkload(100, 3);
  KaminoOptions options = NonPrivateOptions();
  options.iterations = 20;
  ProbabilisticDataModel model = TrainFor(w, options);
  Rng rng(5);
  Table out = Synthesize(model, w.constraints, options, SampleSpec{150}, &rng)
                  .TakeValue();
  for (size_t r = 0; r < out.num_rows(); ++r) {
    for (size_t c = 0; c < out.num_columns(); ++c) {
      EXPECT_TRUE(out.schema().attribute(c).Contains(out.at(r, c)));
    }
  }
}

TEST(SamplerTest, FdFastPathMatchesScoring) {
  Workload w = MakeFdWorkload(150, 4);
  KaminoOptions options = NonPrivateOptions();
  ProbabilisticDataModel model = TrainFor(w, options);

  KaminoOptions fast = options;
  fast.enable_fd_fast_path = true;
  Rng rng(9);
  SynthesisTelemetry telemetry;
  auto out = Synthesize(model, w.constraints, fast, SampleSpec{200}, &rng,
                        &telemetry);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(telemetry.fd_fast_path_hits, 0);
  EXPECT_EQ(CountViolations(w.constraints[0].dc, out.value()), 0);
}

TEST(SamplerTest, FdFastPathDigestPinned) {
  // The fast path copies forced values and scores only the rows of groups
  // it has not seen; its output is pinned at every thread budget. If this
  // fails after an *intentional* sampler change, re-capture from the
  // failure message.
  Workload w = MakeFdWorkload(150, 4);
  KaminoOptions options = NonPrivateOptions();
  ProbabilisticDataModel model = TrainFor(w, options);
  options.enable_fd_fast_path = true;
  options.mcmc_resamples = 40;
  ExpectPinnedAtOneAndFourThreads(model, w, options, 200, 9,
                                  "0x77a06b0e6caf62d7");
}

TEST(SamplerTest, AcceptRejectModeRuns) {
  Workload w = MakeFdWorkload(120, 5);
  KaminoOptions options = NonPrivateOptions();
  options.iterations = 40;
  ProbabilisticDataModel model = TrainFor(w, options);
  KaminoOptions ar = options;
  ar.accept_reject = true;
  ar.ar_max_tries = 50;
  Rng rng(13);
  SynthesisTelemetry telemetry;
  auto out = Synthesize(model, w.constraints, ar, SampleSpec{150}, &rng,
                        &telemetry);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(telemetry.ar_proposals, 0);
  EXPECT_EQ(out.value().num_rows(), 150u);
}

TEST(SamplerTest, AcceptRejectDigestPinned) {
  // Accept-reject draws score one proposal at a time through
  // `ViolationPenalty`, a path no other digest covers. Pinned at every
  // thread budget; re-capture from the failure message after an
  // *intentional* sampler change.
  Workload w = MakeFdWorkload(120, 5);
  KaminoOptions options = NonPrivateOptions();
  options.iterations = 40;
  ProbabilisticDataModel model = TrainFor(w, options);
  options.accept_reject = true;
  options.ar_max_tries = 50;
  ExpectPinnedAtOneAndFourThreads(model, w, options, 150, 13,
                                  "0x881f8e4ad27a2163");
}

TEST(SamplerTest, McmcResamplingRunsAndKeepsConsistency) {
  Workload w = MakeFdWorkload(120, 6);
  KaminoOptions options = NonPrivateOptions();
  ProbabilisticDataModel model = TrainFor(w, options);
  KaminoOptions mcmc = options;
  mcmc.mcmc_resamples = 60;
  Rng rng(15);
  SynthesisTelemetry telemetry;
  auto out = Synthesize(model, w.constraints, mcmc, SampleSpec{120}, &rng,
                        &telemetry);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(telemetry.mcmc_resamples, 0);
  EXPECT_EQ(CountViolations(w.constraints[0].dc, out.value()), 0);
}

TEST(SamplerTest, SoftDcWeightControlsViolations) {
  // With weight 0 the DC factor is inert; with a large weight violations
  // are suppressed. Monotonicity in the weight.
  Workload w = MakeFdWorkload(150, 7);
  KaminoOptions options = NonPrivateOptions();
  options.iterations = 5;  // weak model: violations available to suppress
  ProbabilisticDataModel model = TrainFor(w, options);

  auto violations_with_weight = [&](double weight) {
    std::vector<WeightedConstraint> constraints = w.constraints;
    constraints[0].hard = false;
    constraints[0].weight = weight;
    Rng rng(21);
    Table out =
        Synthesize(model, constraints, options, SampleSpec{300}, &rng)
            .TakeValue();
    return CountViolations(constraints[0].dc, out);
  };
  const int64_t loose = violations_with_weight(0.0);
  const int64_t tight = violations_with_weight(10.0);
  EXPECT_LE(tight, loose);
}

}  // namespace
}  // namespace kamino
