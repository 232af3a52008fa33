#include "kamino/core/model.h"

#include <gtest/gtest.h>

#include <numeric>

#include "kamino/data/generators.h"

namespace kamino {
namespace {

Schema SmallSchema() {
  return Schema({
      Attribute::MakeCategorical("b1", {"0", "1"}),
      Attribute::MakeCategorical("b2", {"0", "1"}),
      Attribute::MakeCategorical("b3", {"0", "1"}),
      Attribute::MakeCategorical("huge", []{
        std::vector<std::string> labels;
        for (int i = 0; i < 200; ++i) labels.push_back("v" + std::to_string(i));
        return labels;
      }()),
      Attribute::MakeNumeric("num", 0, 10, 11),
  });
}

std::vector<size_t> Identity(size_t k) {
  std::vector<size_t> seq(k);
  std::iota(seq.begin(), seq.end(), 0);
  return seq;
}

TEST(PlanUnitsTest, GroupsSmallCategoricalsAndFallsBackLargeDomains) {
  Schema schema = SmallSchema();
  KaminoOptions options;
  options.enable_grouping = true;
  options.group_domain_threshold = 8;  // groups the three binaries (2*2*2)
  options.large_domain_threshold = 96;
  auto units = ProbabilisticDataModel::PlanUnits(schema, Identity(5), options);
  ASSERT_EQ(units.size(), 3u);
  // Unit 0: grouped binaries as one histogram (first unit is histogram).
  EXPECT_EQ(units[0].kind, ModelUnit::Kind::kHistogram);
  EXPECT_EQ(units[0].attrs, (std::vector<size_t>{0, 1, 2}));
  // Unit 1: "huge" exceeds the large-domain threshold -> histogram fallback.
  EXPECT_EQ(units[1].kind, ModelUnit::Kind::kHistogram);
  EXPECT_EQ(units[1].attrs, std::vector<size_t>{3});
  // Unit 2: numeric discriminative with all prior attrs as context.
  EXPECT_EQ(units[2].kind, ModelUnit::Kind::kDiscriminative);
  EXPECT_EQ(units[2].context.size(), 4u);
}

TEST(PlanUnitsTest, GroupingDisabledKeepsSingletons) {
  Schema schema = SmallSchema();
  KaminoOptions options;
  options.enable_grouping = false;
  auto units = ProbabilisticDataModel::PlanUnits(schema, Identity(5), options);
  EXPECT_EQ(units.size(), 5u);
  for (const auto& u : units) EXPECT_EQ(u.attrs.size(), 1u);
}

TEST(PlanUnitsTest, PositionsArePackedAndOrdered) {
  Schema schema = SmallSchema();
  KaminoOptions options;
  options.group_domain_threshold = 4;  // groups b1,b2 only
  auto units = ProbabilisticDataModel::PlanUnits(schema, Identity(5), options);
  size_t expected = 0;
  for (const auto& u : units) {
    EXPECT_EQ(u.start_position, expected);
    expected += u.attrs.size();
  }
  EXPECT_EQ(expected, 5u);
}

TEST(ModelUnitTest, DecodeJointIndexRoundTrip) {
  ModelUnit unit;
  unit.radix = {2, 3, 2};
  for (size_t idx = 0; idx < 12; ++idx) {
    std::vector<Value> vals;
    unit.DecodeJointIndex(idx, &vals);
    ASSERT_EQ(vals.size(), unit.radix.size());
    size_t back = 0;
    for (size_t i = 0; i < vals.size(); ++i) {
      EXPECT_TRUE(vals[i].is_categorical());
      back = back * unit.radix[i] + static_cast<size_t>(vals[i].category());
    }
    EXPECT_EQ(back, idx);
  }
}

TEST(TrainModelTest, TrainsAllUnitsNonPrivate) {
  BenchmarkDataset ds = MakeBr2000Like(150, 9);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 10;
  options.seed = 1;
  Rng rng(1);
  auto model = ProbabilisticDataModel::Train(ds.table, Identity(14), options,
                                             &rng);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model.value().num_histogram_units() +
                model.value().num_discriminative_units(),
            model.value().units().size());
  // Histogram distributions normalize.
  for (const ModelUnit& u : model.value().units()) {
    if (u.kind != ModelUnit::Kind::kHistogram) {
      ASSERT_NE(u.model, nullptr);
      continue;
    }
    double total = 0.0;
    for (double p : u.distribution) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(TrainModelTest, ParallelTrainingProducesSameUnitStructure) {
  BenchmarkDataset ds = MakeBr2000Like(120, 10);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 5;
  options.parallel_training = true;
  Rng rng(2);
  auto model =
      ProbabilisticDataModel::Train(ds.table, Identity(14), options, &rng);
  ASSERT_TRUE(model.ok()) << model.status();
  for (const ModelUnit& u : model.value().units()) {
    if (u.kind == ModelUnit::Kind::kDiscriminative) {
      EXPECT_NE(u.private_store, nullptr);
      EXPECT_NE(u.model, nullptr);
    }
  }
}

TEST(TrainModelTest, RejectsEmptyData) {
  Schema schema = SmallSchema();
  Table empty(schema);
  KaminoOptions options;
  Rng rng(1);
  EXPECT_FALSE(
      ProbabilisticDataModel::Train(empty, Identity(5), options, &rng).ok());
}

TEST(TrainModelTest, RejectsBadSequence) {
  BenchmarkDataset ds = MakeTpchLike(50, 2);
  KaminoOptions options;
  Rng rng(1);
  EXPECT_FALSE(
      ProbabilisticDataModel::Train(ds.table, {0, 1}, options, &rng).ok());
}

}  // namespace
}  // namespace kamino
