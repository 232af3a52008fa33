#include "kamino/core/sequencing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "kamino/data/generators.h"

namespace kamino {
namespace {

Schema TestSchema() {
  return Schema({
      Attribute::MakeCategorical("big", {"a", "b", "c", "d", "e", "f"}),
      Attribute::MakeCategorical("small", {"x", "y"}),
      Attribute::MakeCategorical("mid", {"1", "2", "3"}),
      Attribute::MakeNumeric("num", 0, 100, 101),
  });
}

std::vector<WeightedConstraint> Parse(const std::vector<std::string>& specs,
                                      const Schema& schema) {
  std::vector<bool> hard(specs.size(), true);
  return ParseConstraints(specs, hard, schema).TakeValue();
}

size_t PositionOf(const std::vector<size_t>& sequence, size_t attr) {
  return std::find(sequence.begin(), sequence.end(), attr) - sequence.begin();
}

TEST(SequencingTest, FdLhsBeforeRhs) {
  Schema schema = TestSchema();
  // FD: big -> mid.
  auto constraints = Parse({"!(t1.big == t2.big & t1.mid != t2.mid)"}, schema);
  std::vector<size_t> seq = SequenceSchema(schema, constraints);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_LT(PositionOf(seq, 0), PositionOf(seq, 2));  // big before mid
}

TEST(SequencingTest, NoFdsOrdersByDomainSize) {
  Schema schema = TestSchema();
  std::vector<size_t> seq = SequenceSchema(schema, {});
  // small(2) < mid(3) < big(6) < num(101).
  EXPECT_EQ(seq, (std::vector<size_t>{1, 2, 0, 3}));
}

TEST(SequencingTest, NonFdDcsDoNotConstrainOrder) {
  Schema schema = TestSchema();
  auto constraints = Parse({"!(t1.num > t2.num & t1.mid != t2.mid)"}, schema);
  std::vector<size_t> seq = SequenceSchema(schema, constraints);
  EXPECT_EQ(seq.size(), 4u);  // still a valid permutation
}

TEST(SequencingTest, IsAlwaysAPermutation) {
  for (auto& ds : MakeAllBenchmarks(50, 3)) {
    auto constraints =
        ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema())
            .TakeValue();
    std::vector<size_t> seq = SequenceSchema(ds.table.schema(), constraints);
    std::vector<size_t> sorted = seq;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(SequencingTest, AdultFdOrdering) {
  BenchmarkDataset ds = MakeAdultLike(50, 1);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  std::vector<size_t> seq = SequenceSchema(ds.table.schema(), constraints);
  const size_t edu = ds.table.schema().IndexOf("edu").value();
  const size_t edu_num = ds.table.schema().IndexOf("edu_num").value();
  EXPECT_LT(PositionOf(seq, edu), PositionOf(seq, edu_num));
}

/// Checks SequenceSchema's FD rule on `ds`: with FDs taken by increasing
/// minimal LHS domain, an FD's LHS precedes its RHS unless an FD taken
/// earlier already placed the RHS. Returns the LHS attributes placed
/// after their RHS, by name.
std::vector<std::string> LhsAfterRhs(const BenchmarkDataset& ds) {
  const Schema& schema = ds.table.schema();
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, schema).TakeValue();
  const std::vector<size_t> seq = SequenceSchema(schema, constraints);
  std::vector<FdSpec> fds;
  for (const WeightedConstraint& wc : constraints) {
    if (auto fd = wc.dc.Decompose().Fd()) fds.push_back(std::move(*fd));
  }
  auto min_lhs_domain = [&](const FdSpec& fd) {
    int64_t best = std::numeric_limits<int64_t>::max();
    for (size_t a : fd.lhs) {
      best = std::min(best, schema.attribute(a).DomainSize());
    }
    return best;
  };
  std::stable_sort(fds.begin(), fds.end(),
                   [&](const FdSpec& a, const FdSpec& b) {
                     return min_lhs_domain(a) < min_lhs_domain(b);
                   });
  std::vector<bool> placed(schema.size(), false);
  std::vector<std::string> late;
  for (const FdSpec& fd : fds) {
    for (size_t a : fd.lhs) {
      if (PositionOf(seq, a) < PositionOf(seq, fd.rhs)) continue;
      EXPECT_TRUE(placed[fd.rhs])
          << ds.name << ": " << schema.attribute(a).name() << " follows "
          << schema.attribute(fd.rhs).name()
          << ", which no earlier FD placed";
      late.push_back(schema.attribute(a).name());
    }
    for (size_t a : fd.lhs) placed[a] = true;
    placed[fd.rhs] = true;
  }
  return late;
}

TEST(SequencingTest, FdLhsPrecedesRhsUnlessAnEarlierFdPlacedIt) {
  // Tax: `state, has_child -> child_exemp` comes first and places
  // `state`, so `areacode -> state` and `zip -> state` find it placed.
  std::vector<std::string> tax = LhsAfterRhs(MakeTaxLike(50, 3));
  std::sort(tax.begin(), tax.end());
  EXPECT_EQ(tax, (std::vector<std::string>{"areacode", "zip"}));
  // TPC-H: `n_name -> n_regionkey` places `n_name` before
  // `c_custkey -> n_name` comes up.
  EXPECT_EQ(LhsAfterRhs(MakeTpchLike(50, 3)),
            (std::vector<std::string>{"c_custkey"}));
  EXPECT_TRUE(LhsAfterRhs(MakeAdultLike(50, 3)).empty());
}

TEST(SequencingTest, RandomSequenceIsPermutation) {
  Schema schema = TestSchema();
  Rng rng(5);
  std::vector<size_t> seq = RandomSequence(schema, &rng);
  std::sort(seq.begin(), seq.end());
  EXPECT_EQ(seq, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ActivationTest, DcActivatesAtMaxPosition) {
  Schema schema = TestSchema();
  auto constraints = Parse({"!(t1.big == t2.big & t1.mid != t2.mid)",
                            "!(t1.small == t2.small & t1.num != t2.num)"},
                           schema);
  // Sequence: small, big, mid, num.
  std::vector<size_t> sequence = {1, 0, 2, 3};
  auto active = ActivationPositions(sequence, constraints);
  ASSERT_EQ(active.size(), 4u);
  EXPECT_TRUE(active[0].empty());
  EXPECT_TRUE(active[1].empty());
  EXPECT_EQ(active[2], std::vector<size_t>{0});  // big&mid complete at pos 2
  EXPECT_EQ(active[3], std::vector<size_t>{1});  // small&num complete at pos 3
}

TEST(ActivationTest, UnaryDcActivatesAtItsAttribute) {
  Schema schema = TestSchema();
  auto constraints = Parse({"!(t1.num > 50)"}, schema);
  std::vector<size_t> sequence = {3, 0, 1, 2};
  auto active = ActivationPositions(sequence, constraints);
  EXPECT_EQ(active[0], std::vector<size_t>{0});
}

}  // namespace
}  // namespace kamino
