// Property suites for the composite (mixed-shape) violation engine: every
// binary DC with a kComposite decomposition — !=-only, equality + !=,
// equality + order + !=, non-strict order mixes — must be bit-identical
// to the naive pair scan in full counts, incremental CountNew, shard
// Merge/CountAgainst, and violation-matrix columns. The RemoveRow oracle
// at the end covers every index class on the same random DCs and rows.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/common/rng.h"
#include "kamino/dc/violations.h"

namespace kamino {
namespace {

Schema TestSchema() {
  return Schema({
      Attribute::MakeCategorical("a", {"p", "q", "r"}),
      Attribute::MakeCategorical("b", {"s", "t", "u"}),
      Attribute::MakeNumeric("u", 0, 100, 101),
      Attribute::MakeNumeric("v", 0, 100, 101),
      Attribute::MakeNumeric("w", 0, 100, 101),
  });
}

Row RandomRow(Rng* rng) {
  return {Value::Categorical(static_cast<int>(rng->UniformInt(0, 2))),
          Value::Categorical(static_cast<int>(rng->UniformInt(0, 2))),
          Value::Numeric(static_cast<double>(rng->UniformInt(0, 6))),
          Value::Numeric(static_cast<double>(rng->UniformInt(0, 6))),
          Value::Numeric(static_cast<double>(rng->UniformInt(0, 6)))};
}

std::vector<Row> RandomRows(size_t n, Rng* rng) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) rows.push_back(RandomRow(rng));
  return rows;
}

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

/// The mixed-shape DC zoo: every spec must decompose to kComposite (and
/// none is caught by the FD / grouped-order syntactic matchers, except
/// where noted — the point is exercising the composite plans).
std::vector<const char*> CompositeSpecs() {
  return {
      // !=-only (single and multiple residuals, with and without scope).
      "!(t1.u != t2.u)",
      "!(t1.a == t2.a & t1.u != t2.u & t1.v != t2.v)",
      "!(t1.u != t2.u & t1.v != t2.v & t1.w != t2.w)",
      // equality + strict order pair + !=.
      "!(t1.a == t2.a & t1.u > t2.u & t1.v < t2.v & t1.b != t2.b)",
      "!(t1.u > t2.u & t1.v > t2.v & t1.a != t2.a)",
      "!(t1.u < t2.u & t2.v < t1.v & t1.a != t2.a & t1.b != t2.b)",
      // non-strict order pairs (alone and with !=).
      "!(t1.a == t2.a & t1.u >= t2.u & t1.v <= t2.v)",
      "!(t1.u >= t2.u & t1.v >= t2.v & t1.b != t2.b)",
      // strict + non-strict mix.
      "!(t1.u >= t2.u & t1.v < t2.v & t1.b != t2.b)",
      "!(t1.a == t2.a & t1.u > t2.u & t1.v <= t2.v)",
      // lone order residuals: strict becomes an inequation, non-strict is
      // vacuous for unordered pairs.
      "!(t1.u > t2.u & t1.b != t2.b)",
      "!(t1.u >= t2.u & t1.b != t2.b)",
      "!(t1.a == t2.a & t1.u <= t2.u)",
      // scope-only.
      "!(t1.a == t2.a & t1.b == t2.b)",
  };
}

std::vector<DenialConstraint> CompositeDcs(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  for (const char* spec : CompositeSpecs()) {
    auto dc = DenialConstraint::Parse(spec, schema);
    EXPECT_TRUE(dc.ok()) << spec;
    EXPECT_EQ(dc.value().Decompose().shape,
              PredicateDecomposition::Shape::kComposite)
        << spec;
    dcs.push_back(dc.value());
  }
  return dcs;
}

TEST(CompositeViolationsTest, FullCountsMatchNaiveOnRandomTables) {
  Schema schema = TestSchema();
  Rng rng(101);
  for (const DenialConstraint& dc : CompositeDcs(schema)) {
    for (int trial = 0; trial < 3; ++trial) {
      Table t(schema);
      for (const Row& r : RandomRows(50 + trial * 35, &rng)) {
        t.AppendRowUnchecked(r);
      }
      EXPECT_EQ(CountViolations(dc, t), CountViolationsNaive(dc, t))
          << dc.ToString(schema) << " trial " << trial;
    }
  }
}

TEST(CompositeViolationIndexTest, CountNewMatchesNaiveIncrementally) {
  Schema schema = TestSchema();
  Rng rng(103);
  for (const DenialConstraint& dc : CompositeDcs(schema)) {
    auto fast = MakeViolationIndex(dc);
    auto naive = MakeNaiveViolationIndex(dc);
    for (int i = 0; i < 150; ++i) {
      Row row = RandomRow(&rng);
      ASSERT_EQ(fast->CountNew(row), naive->CountNew(row))
          << dc.ToString(schema) << " at row " << i;
      fast->AddRow(row);
      naive->AddRow(row);
    }
    EXPECT_EQ(fast->size(), naive->size());
  }
}

TEST(CompositeViolationIndexTest, MergeAndCountAgainstMatchNaive) {
  Schema schema = TestSchema();
  Rng rng(107);
  for (const DenialConstraint& dc : CompositeDcs(schema)) {
    for (int trial = 0; trial < 2; ++trial) {
      const std::vector<Row> shard_a = RandomRows(35 + trial * 20, &rng);
      const std::vector<Row> shard_b = RandomRows(25, &rng);
      const std::vector<Row> probes = RandomRows(15, &rng);
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

TEST(CompositeViolationsTest, MatrixColumnsMatchPairScan) {
  Schema schema = TestSchema();
  Rng rng(109);
  Table t(schema);
  for (const Row& r : RandomRows(120, &rng)) t.AppendRowUnchecked(r);
  std::vector<std::string> specs;
  std::vector<bool> hardness;
  for (const char* spec : CompositeSpecs()) {
    specs.emplace_back(spec);
    hardness.push_back(false);
  }
  std::vector<WeightedConstraint> constraints =
      ParseConstraints(specs, hardness, schema).TakeValue();
  const auto matrix = BuildViolationMatrix(t, constraints);
  for (size_t l = 0; l < constraints.size(); ++l) {
    const DenialConstraint& dc = constraints[l].dc;
    for (size_t i = 0; i < t.num_rows(); ++i) {
      int64_t expected = 0;
      for (size_t j = 0; j < t.num_rows(); ++j) {
        if (j != i && dc.ViolatesPair(t.row(i), t.row(j))) ++expected;
      }
      ASSERT_DOUBLE_EQ(matrix[i][l], static_cast<double>(expected))
          << dc.ToString(schema) << " row " << i;
    }
  }
}

TEST(CompositeViolationsTest, UnsatisfiableConjunctionsNeverViolate) {
  Schema schema = TestSchema();
  Rng rng(113);
  Table t(schema);
  for (const Row& r : RandomRows(60, &rng)) t.AppendRowUnchecked(r);
  for (const char* spec : {
           "!(t1.u > t2.u & t1.u < t2.u)",          // opposite strict orders
           "!(t1.a == t2.a & t1.a != t2.a)",        // == with !=
           "!(t1.u == t2.u & t1.u > t2.u & t1.v < t2.v)",  // == with strict
       }) {
    auto dc = DenialConstraint::Parse(spec, schema).TakeValue();
    EXPECT_EQ(dc.Decompose().shape,
              PredicateDecomposition::Shape::kNeverFires)
        << spec;
    EXPECT_EQ(CountViolations(dc, t), 0) << spec;
    EXPECT_EQ(CountViolationsNaive(dc, t), 0) << spec;
    auto index = MakeViolationIndex(dc);
    for (size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(index->CountNew(t.row(i)), 0) << spec;
      index->AddRow(t.row(i));
    }
    EXPECT_EQ(index->size(), 20u);
    auto other = MakeViolationIndex(dc);
    other->AddRow(t.row(0));
    EXPECT_EQ(index->CountAgainst(*other), 0) << spec;
    index->Merge(*other);
    EXPECT_EQ(index->size(), 21u);
  }
}

/// Draws a random binary DC over the test schema: random equality scope,
/// inequations, and up to two order predicates with random operators and
/// tuple orientations. Roughly all of these decompose to kComposite (the
/// builder only emits cross-tuple same-attribute predicates), so this
/// fuzzes the decomposition normalizer and every composite plan shape.
DenialConstraint RandomCompositeDc(const Schema& schema, Rng* rng) {
  while (true) {
    std::string body;
    auto append = [&body](const std::string& pred) {
      if (!body.empty()) body += " & ";
      body += pred;
    };
    const char* names[5] = {"a", "b", "u", "v", "w"};
    auto cross_pred = [&](size_t attr, const char* op, bool swap) {
      const std::string lhs = swap ? "t2." : "t1.";
      const std::string rhs = swap ? "t1." : "t2.";
      return lhs + names[attr] + " " + op + " " + rhs + names[attr];
    };
    // Each attribute independently draws a role (possibly several
    // predicates, exercising dedup and contradiction pruning).
    const char* order_ops[4] = {"<", ">", "<=", ">="};
    for (size_t attr = 0; attr < 5; ++attr) {
      const int64_t role = rng->UniformInt(0, 5);
      const bool swap = rng->UniformInt(0, 1) == 1;
      if (role == 1) {
        append(cross_pred(attr, "==", swap));
      } else if (role == 2) {
        append(cross_pred(attr, "!=", swap));
      } else if (role == 3) {
        append(cross_pred(
            attr, order_ops[rng->UniformInt(0, 3)], swap));
      } else if (role == 4) {
        // Two predicates on the same attribute.
        append(cross_pred(attr, order_ops[rng->UniformInt(0, 3)], swap));
        append(cross_pred(attr,
                          rng->UniformInt(0, 1) == 0
                              ? "!="
                              : order_ops[rng->UniformInt(0, 3)],
                          rng->UniformInt(0, 1) == 1));
      }
    }
    if (body.empty()) continue;
    auto dc = DenialConstraint::Parse("!(" + body + ")", schema);
    KAMINO_CHECK(dc.ok()) << body;
    if (dc.value().is_unary()) continue;
    return dc.value();
  }
}

TEST(CompositeViolationsTest, RandomizedDcsMatchNaiveEverywhere) {
  // Fuzz over randomized DC shapes: whatever the decomposition decides
  // (composite, never-fires, or general fallback), full counts and the
  // incremental index must agree with the naive reference.
  Schema schema = TestSchema();
  Rng rng(127);
  int composite_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const DenialConstraint dc = RandomCompositeDc(schema, &rng);
    if (dc.Decompose().shape == PredicateDecomposition::Shape::kComposite) {
      ++composite_seen;
    }
    Table t(schema);
    for (const Row& r : RandomRows(60, &rng)) t.AppendRowUnchecked(r);
    ASSERT_EQ(CountViolations(dc, t), CountViolationsNaive(dc, t))
        << "trial " << trial << ": " << dc.ToString(schema);
    auto fast = MakeViolationIndex(dc);
    auto naive = MakeNaiveViolationIndex(dc);
    for (size_t i = 0; i < t.num_rows(); ++i) {
      ASSERT_EQ(fast->CountNew(t.row(i)), naive->CountNew(t.row(i)))
          << "trial " << trial << " row " << i << ": "
          << dc.ToString(schema);
      fast->AddRow(t.row(i));
      naive->AddRow(t.row(i));
    }
  }
  // The fuzzer must actually exercise the composite engine, not just the
  // fallback.
  EXPECT_GE(composite_seen, 10);
}

/// Randomized AddRow / RemoveRow / CountNew sequence on one index made by
/// `make`. The rows grow past 200 (blocks of an order group split at 64
/// rows, and with 7 distinct x values the equal-x runs straddle block
/// boundaries), shrink to empty (every block and group is emptied), then
/// grow again from re-added removed rows, with removals and additions
/// interleaved throughout. After every step the index's `CountNew`
/// matches the naive reference kept in step with it (binary DCs; a unary
/// DC's count is `ViolatesUnary`), and its `CountNew`, `FdForcedValue` and
/// `size` match an index rebuilt from the surviving rows by `AddRow`
/// alone.
void CheckRemoveRowSequence(
    const DenialConstraint& dc,
    const std::function<std::unique_ptr<ViolationIndex>()>& make,
    const std::string& label, Rng* rng) {
  auto index = make();
  auto naive = dc.is_unary() ? nullptr : MakeNaiveViolationIndex(dc);
  auto reference_count = [&](const Row& row) -> int64_t {
    return naive != nullptr ? naive->CountNew(row) : dc.ViolatesUnary(row);
  };
  std::vector<Row> live;
  std::vector<Row> removed;
  const std::vector<Row> probes = RandomRows(6, rng);
  auto add = [&](Row row) {
    ASSERT_EQ(index->CountNew(row), reference_count(row)) << label;
    index->AddRow(row);
    if (naive != nullptr) naive->AddRow(row);
    live.push_back(std::move(row));
  };
  auto remove = [&] {
    const size_t k = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    index->RemoveRow(live[k]);
    if (naive != nullptr) naive->RemoveRow(live[k]);
    removed.push_back(std::move(live[k]));
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
  };
  auto check = [&](int step) {
    auto rebuilt = make();
    for (const Row& row : live) rebuilt->AddRow(row);
    ASSERT_EQ(index->size(), live.size()) << label << " step " << step;
    ASSERT_EQ(rebuilt->size(), live.size()) << label << " step " << step;
    for (const Row& probe : probes) {
      ASSERT_EQ(index->CountNew(probe), reference_count(probe))
          << label << " step " << step;
      ASSERT_EQ(index->CountNew(probe), rebuilt->CountNew(probe))
          << label << " step " << step;
      const std::optional<Value> forced = index->FdForcedValue(probe);
      const std::optional<Value> expected = rebuilt->FdForcedValue(probe);
      ASSERT_EQ(forced.has_value(), expected.has_value())
          << label << " step " << step;
      if (forced.has_value()) {
        ASSERT_TRUE(*forced == *expected) << label << " step " << step;
      }
    }
  };
  int step = 0;
  // Grow (one removal per four additions on average).
  while (live.size() < 220) {
    if (!live.empty() && rng->UniformInt(0, 4) == 0) {
      remove();
    } else {
      add(RandomRow(rng));
    }
    check(step++);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Shrink to empty, re-adding a removed row now and then.
  while (!live.empty()) {
    if (rng->UniformInt(0, 4) == 0) {
      add(removed[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(removed.size()) - 1))]);
    } else {
      remove();
    }
    check(step++);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Grow again from removed rows only.
  for (int i = 0; i < 90; ++i) {
    if (!live.empty() && rng->UniformInt(0, 3) == 0) {
      remove();
    } else {
      add(removed[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(removed.size()) - 1))]);
    }
    check(step++);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// DCs for the RemoveRow oracle, one or more per index class.
std::vector<DenialConstraint> RemoveRowDcs(const Schema& schema) {
  std::vector<DenialConstraint> dcs = CompositeDcs(schema);
  for (const char* spec : {
           // FD (categorical and numeric RHS, one- and two-attribute LHS).
           "!(t1.a == t2.a & t1.b != t2.b)",
           "!(t1.a == t2.a & t1.b == t2.b & t1.u != t2.u)",
           // Order pair, plain and equality-scoped.
           "!(t1.u > t2.u & t1.v < t2.v)",
           "!(t1.a == t2.a & t1.u < t2.u & t1.v < t2.v)",
           // Unary.
           "!(t1.u > 3 & t1.a == 'q')",
           // Never fires.
           "!(t1.u > t2.u & t1.u < t2.u)",
           // General: three order residuals fall back to the naive index.
           "!(t1.u <= t2.u & t1.v > t2.v & t1.w > t2.w)",
       }) {
    auto dc = DenialConstraint::Parse(spec, schema);
    EXPECT_TRUE(dc.ok()) << spec;
    dcs.push_back(dc.value());
  }
  return dcs;
}

TEST(ViolationIndexRemoveRowTest, EveryIndexClassMatchesRebuiltAndNaive) {
  Schema schema = TestSchema();
  Rng rng(131);
  std::vector<DenialConstraint> dcs = RemoveRowDcs(schema);
  for (int i = 0; i < 12; ++i) dcs.push_back(RandomCompositeDc(schema, &rng));
  for (const DenialConstraint& dc : dcs) {
    const std::string label = dc.ToString(schema);
    CheckRemoveRowSequence(
        dc, [&dc] { return MakeViolationIndex(dc); }, label, &rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The naive class itself (the reference above), against rebuilds only.
  for (const DenialConstraint& dc : RemoveRowDcs(schema)) {
    if (dc.is_unary()) continue;  // the naive index is for binary DCs
    CheckRemoveRowSequence(
        dc, [&dc] { return MakeNaiveViolationIndex(dc); },
        "naive " + dc.ToString(schema), &rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ViolationIndexRemoveRowDeathTest, RemovingARowNeverAddedIsChecked) {
  // Re-executes the binary for each death instead of forking a process
  // that may hold pool threads.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Schema schema = TestSchema();
  Rng rng(137);
  const Row row = RandomRow(&rng);
  for (const DenialConstraint& dc : RemoveRowDcs(schema)) {
    auto index = MakeViolationIndex(dc);
    EXPECT_DEATH(index->RemoveRow(row), "never added") << dc.ToString(schema);
  }
}

}  // namespace
}  // namespace kamino
