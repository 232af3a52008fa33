#include "kamino/dc/violations.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "kamino/data/generators.h"

namespace kamino {
namespace {

Schema TestSchema() {
  return Schema({
      Attribute::MakeCategorical("x", {"a", "b", "c"}),
      Attribute::MakeCategorical("y", {"p", "q", "r"}),
      Attribute::MakeNumeric("u", 0, 100, 101),
      Attribute::MakeNumeric("v", 0, 100, 101),
  });
}

Row MakeRow(int x, int y, double u, double v) {
  return {Value::Categorical(x), Value::Categorical(y), Value::Numeric(u),
          Value::Numeric(v)};
}

DenialConstraint Fd(const Schema& schema) {
  return DenialConstraint::Parse("!(t1.x == t2.x & t1.y != t2.y)", schema)
      .TakeValue();
}

DenialConstraint Order(const Schema& schema) {
  return DenialConstraint::Parse("!(t1.u > t2.u & t1.v < t2.v)", schema)
      .TakeValue();
}

TEST(ViolationsTest, FdCountExact) {
  Schema schema = TestSchema();
  Table t(schema);
  // Group x=0: y values {p, p, q} -> violating pairs = C(3,2) - C(2,2) = 2.
  t.AppendRowUnchecked(MakeRow(0, 0, 0, 0));
  t.AppendRowUnchecked(MakeRow(0, 0, 0, 0));
  t.AppendRowUnchecked(MakeRow(0, 1, 0, 0));
  // Group x=1: consistent.
  t.AppendRowUnchecked(MakeRow(1, 2, 0, 0));
  t.AppendRowUnchecked(MakeRow(1, 2, 0, 0));
  EXPECT_EQ(CountViolations(Fd(schema), t), 2);
  EXPECT_EQ(CountViolationsNaive(Fd(schema), t), 2);
}

TEST(ViolationsTest, FastPathMatchesNaiveOnRandomData) {
  // Property test: the FD group-counting fast path must agree with the
  // quadratic reference on arbitrary instances.
  Schema schema = TestSchema();
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Table t(schema);
    const int n = 40 + trial * 10;
    for (int i = 0; i < n; ++i) {
      t.AppendRowUnchecked(MakeRow(
          static_cast<int>(rng.UniformInt(0, 2)),
          static_cast<int>(rng.UniformInt(0, 2)),
          static_cast<double>(rng.UniformInt(0, 5)),
          static_cast<double>(rng.UniformInt(0, 5))));
    }
    EXPECT_EQ(CountViolations(Fd(schema), t),
              CountViolationsNaive(Fd(schema), t))
        << "trial " << trial;
  }
}

TEST(ViolationsTest, OrderDcCount) {
  Schema schema = TestSchema();
  Table t(schema);
  t.AppendRowUnchecked(MakeRow(0, 0, 10, 10));
  t.AppendRowUnchecked(MakeRow(0, 0, 20, 5));  // higher u, lower v than row 0
  t.AppendRowUnchecked(MakeRow(0, 0, 30, 3));  // violates rows 0 and 1
  EXPECT_EQ(CountViolations(Order(schema), t), 3);
  EXPECT_EQ(CountViolationsNaive(Order(schema), t), 3);
}

TEST(ViolationsTest, UnaryCountsTuples) {
  Schema schema = TestSchema();
  auto dc =
      DenialConstraint::Parse("!(t1.u > 50)", schema).TakeValue();
  Table t(schema);
  t.AppendRowUnchecked(MakeRow(0, 0, 60, 0));
  t.AppendRowUnchecked(MakeRow(0, 0, 40, 0));
  t.AppendRowUnchecked(MakeRow(0, 0, 70, 0));
  EXPECT_EQ(CountViolations(dc, t), 2);
  EXPECT_DOUBLE_EQ(ViolationRatePercent(dc, t), 100.0 * 2 / 3);
}

TEST(ViolationsTest, RatePercentBinary) {
  Schema schema = TestSchema();
  Table t(schema);
  t.AppendRowUnchecked(MakeRow(0, 0, 0, 0));
  t.AppendRowUnchecked(MakeRow(0, 1, 0, 0));
  t.AppendRowUnchecked(MakeRow(1, 0, 0, 0));
  // 1 violating pair out of C(3,2)=3.
  EXPECT_NEAR(ViolationRatePercent(Fd(schema), t), 100.0 / 3, 1e-9);
}

TEST(ViolationsTest, EmptyTableIsZero) {
  Schema schema = TestSchema();
  Table t(schema);
  EXPECT_EQ(CountViolations(Fd(schema), t), 0);
  EXPECT_DOUBLE_EQ(ViolationRatePercent(Fd(schema), t), 0.0);
}

TEST(ViolationsTest, IncrementalDecompositionSumsToTotal) {
  // Eqn (3): |V(phi, D)| = sum_i |V(phi, t_i | D_:i)|.
  Schema schema = TestSchema();
  Rng rng(7);
  for (const DenialConstraint& dc : {Fd(schema), Order(schema)}) {
    Table t(schema);
    for (int i = 0; i < 60; ++i) {
      t.AppendRowUnchecked(MakeRow(
          static_cast<int>(rng.UniformInt(0, 2)),
          static_cast<int>(rng.UniformInt(0, 2)),
          static_cast<double>(rng.UniformInt(0, 8)),
          static_cast<double>(rng.UniformInt(0, 8))));
    }
    int64_t incremental = 0;
    for (size_t i = 0; i < t.num_rows(); ++i) {
      incremental += CountNewViolations(dc, t.row(i), t, i);
    }
    EXPECT_EQ(incremental, CountViolations(dc, t));
  }
}

TEST(ViolationIndexTest, FdIndexMatchesIncremental) {
  Schema schema = TestSchema();
  DenialConstraint dc = Fd(schema);
  auto index = MakeViolationIndex(dc);
  Rng rng(13);
  Table t(schema);
  for (int i = 0; i < 80; ++i) {
    Row row = MakeRow(static_cast<int>(rng.UniformInt(0, 2)),
                      static_cast<int>(rng.UniformInt(0, 2)), 0, 0);
    EXPECT_EQ(index->CountNew(row), CountNewViolations(dc, row, t, i))
        << "row " << i;
    index->AddRow(row);
    t.AppendRowUnchecked(row);
  }
  EXPECT_EQ(index->size(), 80u);
}

TEST(ViolationIndexTest, NaiveIndexMatchesIncremental) {
  Schema schema = TestSchema();
  DenialConstraint dc = Order(schema);
  auto index = MakeViolationIndex(dc);
  Rng rng(29);
  Table t(schema);
  for (int i = 0; i < 60; ++i) {
    Row row = MakeRow(0, 0, static_cast<double>(rng.UniformInt(0, 9)),
                      static_cast<double>(rng.UniformInt(0, 9)));
    EXPECT_EQ(index->CountNew(row), CountNewViolations(dc, row, t, i));
    index->AddRow(row);
    t.AppendRowUnchecked(row);
  }
}

TEST(ViolationIndexTest, UnaryIndex) {
  Schema schema = TestSchema();
  auto dc = DenialConstraint::Parse("!(t1.u > 50)", schema).TakeValue();
  auto index = MakeViolationIndex(dc);
  EXPECT_EQ(index->CountNew(MakeRow(0, 0, 60, 0)), 1);
  EXPECT_EQ(index->CountNew(MakeRow(0, 0, 40, 0)), 0);
}

TEST(ViolationIndexTest, FdForcedValueReportsGroupValue) {
  Schema schema = TestSchema();
  auto index = MakeViolationIndex(Fd(schema));
  EXPECT_FALSE(index->FdForcedValue(MakeRow(0, 0, 0, 0)).has_value());
  index->AddRow(MakeRow(0, 2, 0, 0));
  auto forced = index->FdForcedValue(MakeRow(0, 0, 0, 0));
  ASSERT_TRUE(forced.has_value());
  EXPECT_EQ(forced->category(), 2);
  // Different group still unseen.
  EXPECT_FALSE(index->FdForcedValue(MakeRow(1, 0, 0, 0)).has_value());
}

// Brute-force cross-shard violation count: unordered pairs with one row
// from each set.
int64_t CrossPairs(const DenialConstraint& dc, const std::vector<Row>& a,
                   const std::vector<Row>& b) {
  int64_t count = 0;
  for (const Row& ra : a) {
    for (const Row& rb : b) {
      if (dc.ViolatesPair(ra, rb)) ++count;
    }
  }
  return count;
}

std::vector<Row> RandomRows(size_t n, Rng* rng) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(MakeRow(static_cast<int>(rng->UniformInt(0, 2)),
                           static_cast<int>(rng->UniformInt(0, 2)),
                           static_cast<double>(rng->UniformInt(0, 6)),
                           static_cast<double>(rng->UniformInt(0, 6))));
  }
  return rows;
}

TEST(ViolationIndexTest, MergeMatchesSequentialAdds) {
  // For all three implementations: merging shard indices in order must be
  // indistinguishable (CountNew on arbitrary probes, size) from adding
  // every row through one index.
  Schema schema = TestSchema();
  Rng rng(41);
  const std::vector<Row> shard_a = RandomRows(30, &rng);
  const std::vector<Row> shard_b = RandomRows(20, &rng);
  const std::vector<Row> probes = RandomRows(25, &rng);
  const std::vector<DenialConstraint> dcs = {
      Fd(schema), Order(schema),
      // Fires for roughly half the random rows (u ranges over [0, 6]).
      DenialConstraint::Parse("!(t1.u > 3)", schema).TakeValue()};
  for (const DenialConstraint& dc : dcs) {
    auto index_a = MakeViolationIndex(dc);
    auto index_b = MakeViolationIndex(dc);
    auto reference = MakeViolationIndex(dc);
    for (const Row& r : shard_a) {
      index_a->AddRow(r);
      reference->AddRow(r);
    }
    for (const Row& r : shard_b) {
      index_b->AddRow(r);
      reference->AddRow(r);
    }
    auto merged = MakeViolationIndex(dc);
    merged->Merge(*index_a);
    merged->Merge(*index_b);
    EXPECT_EQ(merged->size(), reference->size());
    for (const Row& probe : probes) {
      EXPECT_EQ(merged->CountNew(probe), reference->CountNew(probe));
    }
  }
}

TEST(ViolationIndexTest, MergePreservesFdForcedValue) {
  Schema schema = TestSchema();
  auto index_a = MakeViolationIndex(Fd(schema));
  auto index_b = MakeViolationIndex(Fd(schema));
  index_a->AddRow(MakeRow(0, 2, 0, 0));
  index_b->AddRow(MakeRow(1, 1, 0, 0));
  auto merged = MakeViolationIndex(Fd(schema));
  merged->Merge(*index_a);
  merged->Merge(*index_b);
  ASSERT_TRUE(merged->FdForcedValue(MakeRow(0, 0, 0, 0)).has_value());
  EXPECT_EQ(merged->FdForcedValue(MakeRow(0, 0, 0, 0))->category(), 2);
  ASSERT_TRUE(merged->FdForcedValue(MakeRow(1, 0, 0, 0)).has_value());
  EXPECT_EQ(merged->FdForcedValue(MakeRow(1, 0, 0, 0))->category(), 1);
}

TEST(ViolationIndexTest, CountAgainstMatchesPairScan) {
  // Property test: CountAgainst must equal the brute-force count of
  // violating unordered cross pairs for both the hash-group FD index and
  // the prefix-scan binary index, on arbitrary data.
  Schema schema = TestSchema();
  Rng rng(43);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<Row> shard_a = RandomRows(25 + trial * 5, &rng);
    const std::vector<Row> shard_b = RandomRows(35, &rng);
    for (const DenialConstraint& dc : {Fd(schema), Order(schema)}) {
      auto index_a = MakeViolationIndex(dc);
      auto index_b = MakeViolationIndex(dc);
      for (const Row& r : shard_a) index_a->AddRow(r);
      for (const Row& r : shard_b) index_b->AddRow(r);
      EXPECT_EQ(index_a->CountAgainst(*index_b),
                CrossPairs(dc, shard_a, shard_b))
          << "trial " << trial;
      // Symmetric by construction of unordered pairs.
      EXPECT_EQ(index_a->CountAgainst(*index_b),
                index_b->CountAgainst(*index_a));
    }
  }
}

TEST(ViolationIndexTest, CountAgainstUnaryIsZero) {
  Schema schema = TestSchema();
  auto dc = DenialConstraint::Parse("!(t1.u > 50)", schema).TakeValue();
  auto index_a = MakeViolationIndex(dc);
  auto index_b = MakeViolationIndex(dc);
  index_a->AddRow(MakeRow(0, 0, 60, 0));
  index_b->AddRow(MakeRow(0, 0, 70, 0));
  EXPECT_EQ(index_a->CountAgainst(*index_b), 0);
}

TEST(ViolationIndexTest, CountAgainstEmptyIndexIsZero) {
  Schema schema = TestSchema();
  for (const DenialConstraint& dc : {Fd(schema), Order(schema)}) {
    auto index_a = MakeViolationIndex(dc);
    auto empty = MakeViolationIndex(dc);
    index_a->AddRow(MakeRow(0, 0, 10, 10));
    EXPECT_EQ(index_a->CountAgainst(*empty), 0);
    EXPECT_EQ(empty->CountAgainst(*index_a), 0);
    auto merged = MakeViolationIndex(dc);
    merged->Merge(*empty);
    EXPECT_EQ(merged->size(), 0u);
  }
}

TEST(ViolationMatrixTest, FdHashPartitionMatchesPairScan) {
  // The O(n) hash-partitioned FD column must match a brute-force per-row
  // pair count exactly (both are integer counts).
  Schema schema = TestSchema();
  Rng rng(47);
  Table t(schema);
  for (int i = 0; i < 120; ++i) {
    t.AppendRowUnchecked(MakeRow(static_cast<int>(rng.UniformInt(0, 2)),
                                 static_cast<int>(rng.UniformInt(0, 2)),
                                 static_cast<double>(rng.UniformInt(0, 5)),
                                 static_cast<double>(rng.UniformInt(0, 5))));
  }
  std::vector<WeightedConstraint> constraints =
      ParseConstraints({"!(t1.x == t2.x & t1.y != t2.y)"}, {false}, schema)
          .TakeValue();
  const auto matrix = BuildViolationMatrix(t, constraints);
  const DenialConstraint& dc = constraints[0].dc;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    int64_t expected = 0;
    for (size_t j = 0; j < t.num_rows(); ++j) {
      if (j != i && dc.ViolatesPair(t.row(i), t.row(j))) ++expected;
    }
    ASSERT_DOUBLE_EQ(matrix[i][0], static_cast<double>(expected))
        << "row " << i;
  }
}

TEST(ViolationMatrixTest, CountsPerTupleViolations) {
  Schema schema = TestSchema();
  std::vector<WeightedConstraint> constraints =
      ParseConstraints({"!(t1.x == t2.x & t1.y != t2.y)", "!(t1.u > 50)"},
                       {false, false}, schema)
          .TakeValue();
  Table t(schema);
  t.AppendRowUnchecked(MakeRow(0, 0, 60, 0));
  t.AppendRowUnchecked(MakeRow(0, 1, 40, 0));
  t.AppendRowUnchecked(MakeRow(1, 0, 40, 0));
  auto matrix = BuildViolationMatrix(t, constraints);
  ASSERT_EQ(matrix.size(), 3u);
  // FD: rows 0 and 1 violate each other (x=0, y differs).
  EXPECT_DOUBLE_EQ(matrix[0][0], 1.0);
  EXPECT_DOUBLE_EQ(matrix[1][0], 1.0);
  EXPECT_DOUBLE_EQ(matrix[2][0], 0.0);
  // Unary: only row 0 has u > 50.
  EXPECT_DOUBLE_EQ(matrix[0][1], 1.0);
  EXPECT_DOUBLE_EQ(matrix[1][1], 0.0);
}

TEST(ViolationsTest, PairsOfExactWithoutIntermediateOverflow) {
  EXPECT_EQ(PairsOf(0), 0);
  EXPECT_EQ(PairsOf(1), 0);
  EXPECT_EQ(PairsOf(2), 1);
  EXPECT_EQ(PairsOf(5), 10);
  // From m ~ 3.04e9 the textbook m * (m - 1) / 2 overflows its int64
  // intermediate; the halved form must stay exact through m = 2^32, where
  // the pair count itself approaches INT64_MAX.
  for (int64_t m : {int64_t{3037000500}, int64_t{4000000001},
                    int64_t{1} << 32}) {
    const auto wide =
        static_cast<__int128>(m) * (m - 1) / 2;
    EXPECT_EQ(PairsOf(m), static_cast<int64_t>(wide)) << "m=" << m;
  }
}

TEST(ViolationsTest, PairsOfDoubleExactBelowPrecisionBoundary) {
  // Below 2^53 pairs the double count is the exact integer; past it the
  // value is documented-approximate but finite and monotone.
  for (int64_t m : {int64_t{3}, int64_t{100000}, int64_t{1} << 26}) {
    EXPECT_EQ(PairsOfDouble(m), static_cast<double>(PairsOf(m))) << m;
  }
  const double big = PairsOfDouble(int64_t{1} << 40);
  EXPECT_TRUE(std::isfinite(big));
  EXPECT_GT(big, 9e15);  // past 2^53: double territory, deliberately
  EXPECT_LT(PairsOfDouble((int64_t{1} << 40) - 1), big);
}

TEST(ViolationIndexTest, FdForcedValueBreaksTiesByValueOrder) {
  // Equal RHS counts must resolve by the Value ordering (smallest wins),
  // not by unordered_map iteration order, which differs across standard
  // libraries and would make forced-value repair non-deterministic.
  Schema schema = TestSchema();
  auto index = MakeViolationIndex(Fd(schema));
  index->AddRow(MakeRow(0, 2, 0, 0));
  index->AddRow(MakeRow(0, 1, 0, 0));  // counts now tied 1-1
  auto forced = index->FdForcedValue(MakeRow(0, 0, 0, 0));
  ASSERT_TRUE(forced.has_value());
  EXPECT_EQ(forced->category(), 1);
  index->AddRow(MakeRow(0, 2, 0, 0));  // majority beats the tie-break
  EXPECT_EQ(index->FdForcedValue(MakeRow(0, 0, 0, 0))->category(), 2);
}

/// The four order-predicate orientations (two co-monotone, two
/// anti-monotone spellings), plain and equality-scoped.
std::vector<DenialConstraint> AllOrderOrientations(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  for (const char* spec : {
           "!(t1.u > t2.u & t1.v < t2.v)",  // co-monotone
           "!(t1.u < t2.u & t1.v > t2.v)",  // co-monotone, mirrored
           "!(t1.u > t2.u & t1.v > t2.v)",  // anti-monotone
           "!(t1.u < t2.u & t1.v < t2.v)",  // anti-monotone, mirrored
           "!(t1.x == t2.x & t1.u > t2.u & t1.v < t2.v)",   // grouped co
           "!(t1.x == t2.x & t1.u > t2.u & t1.v > t2.v)",   // grouped anti
       }) {
    auto dc = DenialConstraint::Parse(spec, schema);
    EXPECT_TRUE(dc.ok()) << spec;
    EXPECT_TRUE(dc.value().AsGroupedOrderSpec().has_value()) << spec;
    dcs.push_back(dc.value());
  }
  return dcs;
}

TEST(OrderViolationIndexTest, CountNewMatchesNaiveOnRandomTables) {
  // Property test: for every orientation, the sorted index must agree
  // with the prefix-scan reference at every step of an incremental build
  // (small value ranges force plenty of x/y ties, where the strict-order
  // semantics are easiest to get wrong).
  Schema schema = TestSchema();
  Rng rng(71);
  for (const DenialConstraint& dc : AllOrderOrientations(schema)) {
    auto sorted = MakeViolationIndex(dc);
    auto naive = MakeNaiveViolationIndex(dc);
    for (int i = 0; i < 200; ++i) {
      Row row = MakeRow(static_cast<int>(rng.UniformInt(0, 2)),
                        static_cast<int>(rng.UniformInt(0, 2)),
                        static_cast<double>(rng.UniformInt(0, 7)),
                        static_cast<double>(rng.UniformInt(0, 7)));
      ASSERT_EQ(sorted->CountNew(row), naive->CountNew(row))
          << dc.ToString(schema) << " at row " << i;
      sorted->AddRow(row);
      naive->AddRow(row);
    }
    EXPECT_EQ(sorted->size(), naive->size());
  }
}

TEST(OrderViolationIndexTest, MergeAndCountAgainstMatchNaive) {
  // Property test over all orientations: CountAgainst must equal the
  // brute-force cross-pair count, and a merged index must be
  // indistinguishable from sequential adds on arbitrary probes.
  Schema schema = TestSchema();
  Rng rng(73);
  for (const DenialConstraint& dc : AllOrderOrientations(schema)) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::vector<Row> shard_a = RandomRows(40 + trial * 15, &rng);
      const std::vector<Row> shard_b = RandomRows(30, &rng);
      const std::vector<Row> probes = RandomRows(20, &rng);
      auto index_a = MakeViolationIndex(dc);
      auto index_b = MakeViolationIndex(dc);
      for (const Row& r : shard_a) index_a->AddRow(r);
      for (const Row& r : shard_b) index_b->AddRow(r);
      EXPECT_EQ(index_a->CountAgainst(*index_b),
                CrossPairs(dc, shard_a, shard_b))
          << dc.ToString(schema) << " trial " << trial;
      EXPECT_EQ(index_a->CountAgainst(*index_b),
                index_b->CountAgainst(*index_a));
      auto merged = MakeViolationIndex(dc);
      merged->Merge(*index_a);
      merged->Merge(*index_b);
      auto reference = MakeNaiveViolationIndex(dc);
      for (const Row& r : shard_a) reference->AddRow(r);
      for (const Row& r : shard_b) reference->AddRow(r);
      ASSERT_EQ(merged->size(), reference->size());
      for (const Row& probe : probes) {
        EXPECT_EQ(merged->CountNew(probe), reference->CountNew(probe))
            << dc.ToString(schema) << " trial " << trial;
      }
    }
  }
}

TEST(OrderViolationIndexTest, CountViolationsMatchesNaiveOnRandomTables) {
  // The O(n log n) sort + Fenwick full count must agree with the pair
  // scan for every orientation.
  Schema schema = TestSchema();
  Rng rng(79);
  for (const DenialConstraint& dc : AllOrderOrientations(schema)) {
    for (int trial = 0; trial < 3; ++trial) {
      Table t(schema);
      for (const Row& r : RandomRows(60 + trial * 30, &rng)) {
        t.AppendRowUnchecked(r);
      }
      EXPECT_EQ(CountViolations(dc, t), CountViolationsNaive(dc, t))
          << dc.ToString(schema) << " trial " << trial;
    }
  }
}

TEST(ViolationMatrixTest, OrderColumnsMatchPairScan) {
  // The two-BIT-pass sorted columns must match a brute-force per-row pair
  // count exactly (both are integer counts, so exact equality).
  Schema schema = TestSchema();
  Rng rng(83);
  Table t(schema);
  for (const Row& r : RandomRows(150, &rng)) t.AppendRowUnchecked(r);
  std::vector<WeightedConstraint> constraints =
      ParseConstraints({"!(t1.u > t2.u & t1.v < t2.v)",
                        "!(t1.x == t2.x & t1.u > t2.u & t1.v < t2.v)",
                        "!(t1.u > t2.u & t1.v > t2.v)"},
                       {false, false, false}, schema)
          .TakeValue();
  const auto matrix = BuildViolationMatrix(t, constraints);
  for (size_t l = 0; l < constraints.size(); ++l) {
    const DenialConstraint& dc = constraints[l].dc;
    for (size_t i = 0; i < t.num_rows(); ++i) {
      int64_t expected = 0;
      for (size_t j = 0; j < t.num_rows(); ++j) {
        if (j != i && dc.ViolatesPair(t.row(i), t.row(j))) ++expected;
      }
      ASSERT_DOUBLE_EQ(matrix[i][l], static_cast<double>(expected))
          << "dc " << l << " row " << i;
    }
  }
}

TEST(ViolationsTest, GeneratorCrossCheck) {
  // The Adult-like generator's hard DCs must also agree between fast and
  // naive counting (mixed FD + order shapes on realistic data).
  BenchmarkDataset ds = MakeAdultLike(150, 5);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  for (const WeightedConstraint& wc : constraints) {
    EXPECT_EQ(CountViolations(wc.dc, ds.table),
              CountViolationsNaive(wc.dc, ds.table));
  }
}

TEST(ViolationsTest, NanAndNegativeZeroKeysMatchPairScan) {
  // `AppendRow` rejects NaN, but the offline counts and the indices accept
  // any Table. Under Value equality NaN equals nothing (not even itself)
  // and -0.0 equals +0.0, so a row with NaN in an equality or inequation
  // cell shares no group with any other row. Every count, matrix column
  // and index commit loop must agree with the pair scan on such tables.
  // NaN stays out of the order axes (w, x), where -0.0 still appears.
  const Schema schema({
      Attribute::MakeCategorical("a", {"p", "q", "r"}),
      Attribute::MakeNumeric("u", 0, 100, 101),
      Attribute::MakeNumeric("v", 0, 100, 101),
      Attribute::MakeNumeric("w", 0, 100, 101),
      Attribute::MakeNumeric("x", 0, 100, 101),
  });
  std::vector<WeightedConstraint> constraints =
      ParseConstraints(
          {
              // FD with NaN in the RHS and the LHS.
              "!(t1.u == t2.u & t1.v != t2.v)",
              // Scope minus a non-strict order pair, NaN in the scope.
              "!(t1.u == t2.u & t1.w >= t2.w & t1.x <= t2.x)",
              // Pure inequation: one global group minus the diagonal.
              "!(t1.v != t2.v)",
              // Order pair under a scope with NaN (the order index).
              "!(t1.u == t2.u & t1.w > t2.w & t1.x < t2.x)",
              // Strict + non-strict: scope keys extended by w and x.
              "!(t1.u == t2.u & t1.w > t2.w & t1.x <= t2.x)",
              // Composite: order pair plus an inequation holding NaN.
              "!(t1.a == t2.a & t1.w > t2.w & t1.x < t2.x & t1.v != t2.v)",
          },
          std::vector<bool>(6, false), schema)
          .TakeValue();
  const double kKeyValues[] = {std::nan(""), -0.0, 0.0, 1.0, 2.0};
  const double kOrderValues[] = {-0.0, 0.0, 1.0, 2.0, 3.0};
  Rng rng(97);
  for (int trial = 0; trial < 8; ++trial) {
    Table t(schema);
    for (int i = 0; i < 70; ++i) {
      t.AppendRowUnchecked(
          {Value::Categorical(static_cast<int>(rng.UniformInt(0, 2))),
           Value::Numeric(kKeyValues[rng.UniformInt(0, 4)]),
           Value::Numeric(kKeyValues[rng.UniformInt(0, 4)]),
           Value::Numeric(kOrderValues[rng.UniformInt(0, 4)]),
           Value::Numeric(kOrderValues[rng.UniformInt(0, 4)])});
    }
    const auto matrix = BuildViolationMatrix(t, constraints);
    for (size_t l = 0; l < constraints.size(); ++l) {
      const DenialConstraint& dc = constraints[l].dc;
      const std::string label =
          dc.ToString(schema) + " trial " + std::to_string(trial);
      EXPECT_EQ(CountViolations(dc, t), CountViolationsNaive(dc, t)) << label;
      for (size_t i = 0; i < t.num_rows(); ++i) {
        int64_t expected = 0;
        for (size_t j = 0; j < t.num_rows(); ++j) {
          if (j != i && dc.ViolatesPair(t.row(i), t.row(j))) ++expected;
        }
        ASSERT_EQ(matrix[i][l], static_cast<double>(expected))
            << label << " row " << i;
      }
      auto index = MakeViolationIndex(dc);
      auto naive = MakeNaiveViolationIndex(dc);
      for (size_t i = 0; i < t.num_rows(); ++i) {
        ASSERT_EQ(index->CountNew(t.row(i)), naive->CountNew(t.row(i)))
            << label << " row " << i;
        index->AddRow(t.row(i));
        naive->AddRow(t.row(i));
      }
    }
  }
}

}  // namespace
}  // namespace kamino
