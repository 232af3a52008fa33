// Property suites for the composite (mixed-shape) violation engine: every
// binary DC with a kComposite decomposition — !=-only, equality + !=,
// equality + order + !=, non-strict order mixes — must be bit-identical
// to the naive pair scan in full counts, incremental CountNew, shard
// Merge/CountAgainst, and violation-matrix columns. The RemoveRow and
// batched-count oracles at the end cover every index class on the same
// random DCs and rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
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

/// The mixed-shape DC zoo: every spec must decompose to kComposite. Most
/// have neither an FD nor a grouped-order view — the point is exercising
/// the composite plans; a `!=` alone or beside a vacuous lone order is an
/// FD view with an empty scope.
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

/// `dc` respelled: every predicate mirrored (`t1.A < t2.A` written as
/// `t2.A > t1.A`) and predicate `repeat % size` repeated at the end. The
/// predicate order is kept, so first mentions — and with them the order
/// view's x and y — stay put.
DenialConstraint Respell(const DenialConstraint& dc, const Schema& schema,
                         size_t repeat) {
  auto mirrored = [&schema](const Predicate& p) {
    CompareOp op = p.op;
    switch (p.op) {
      case CompareOp::kLt:
        op = CompareOp::kGt;
        break;
      case CompareOp::kGt:
        op = CompareOp::kLt;
        break;
      case CompareOp::kLe:
        op = CompareOp::kGe;
        break;
      case CompareOp::kGe:
        op = CompareOp::kLe;
        break;
      default:
        break;
    }
    return "t" + std::to_string(p.rhs_tuple + 1) + "." +
           schema.attribute(p.rhs_attr).name() + " " + CompareOpToString(op) +
           " t" + std::to_string(p.lhs_tuple + 1) + "." +
           schema.attribute(p.lhs_attr).name();
  };
  const std::vector<Predicate>& preds = dc.predicates();
  std::string body;
  for (const Predicate& p : preds) body += mirrored(p) + " & ";
  body += mirrored(preds[repeat % preds.size()]);
  return DenialConstraint::Parse("!(" + body + ")", schema).TakeValue();
}

TEST(CompositeViolationsTest, RandomizedDcsMatchNaiveEverywhere) {
  // Fuzz over randomized DC shapes: whatever the decomposition decides
  // (composite, never-fires, or general fallback), full counts and the
  // incremental index must agree with the naive reference. A respelling
  // of each DC (mirrored predicates, one repeated) must decompose to the
  // same shape and views and count the same violations.
  Schema schema = TestSchema();
  Rng rng(127);
  int composite_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const DenialConstraint dc = RandomCompositeDc(schema, &rng);
    const DenialConstraint respelled =
        Respell(dc, schema, static_cast<size_t>(trial));
    const std::string label = "trial " + std::to_string(trial) + ": " +
                              dc.ToString(schema) + " respelled " +
                              respelled.ToString(schema);
    const PredicateDecomposition d = dc.Decompose();
    const PredicateDecomposition rd = respelled.Decompose();
    if (d.shape == PredicateDecomposition::Shape::kComposite) {
      ++composite_seen;
    }
    ASSERT_EQ(rd.shape, d.shape) << label;
    ASSERT_EQ(rd.Fd(), d.Fd()) << label;
    ASSERT_EQ(rd.GroupedOrder(), d.GroupedOrder()) << label;
    for (const DenialConstraint* spelling : {&dc, &respelled}) {
      ASSERT_EQ(spelling->AsFd(nullptr, nullptr), d.Fd().has_value())
          << label;
      ASSERT_EQ(spelling->AsGroupedOrderSpec(), d.GroupedOrder()) << label;
    }
    Table t(schema);
    for (const Row& r : RandomRows(60, &rng)) t.AppendRowUnchecked(r);
    const int64_t count = CountViolations(dc, t);
    ASSERT_EQ(count, CountViolationsNaive(dc, t)) << label;
    ASSERT_EQ(CountViolations(respelled, t), count) << label;
    auto fast = MakeViolationIndex(dc);
    auto fast_respelled = MakeViolationIndex(respelled);
    auto naive = MakeNaiveViolationIndex(dc);
    for (size_t i = 0; i < t.num_rows(); ++i) {
      const int64_t expected = naive->CountNew(t.row(i));
      ASSERT_EQ(fast->CountNew(t.row(i)), expected)
          << label << " row " << i;
      ASSERT_EQ(fast_respelled->CountNew(t.row(i)), expected)
          << label << " row " << i;
      fast->AddRow(t.row(i));
      fast_respelled->AddRow(t.row(i));
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

/// A tie-heavy row: `a` is 'p' four times in five (one big group),
/// and u, v take one of six values three times in five, so equal-x runs
/// of a large table span several order-index blocks.
Row TieHeavyRow(Rng* rng) {
  auto tie_heavy = [rng] {
    return Value::Numeric(static_cast<double>(
        rng->UniformInt(0, 4) < 3 ? rng->UniformInt(0, 5)
                                  : rng->UniformInt(0, 100)));
  };
  const int a = rng->UniformInt(0, 4) < 4
                    ? 0
                    : static_cast<int>(rng->UniformInt(1, 2));
  return {Value::Categorical(a),
          Value::Categorical(static_cast<int>(rng->UniformInt(0, 2))),
          tie_heavy(), tie_heavy(),
          Value::Numeric(static_cast<double>(rng->UniformInt(0, 6)))};
}

/// A value of attribute `a` that no `RandomRow` / `TieHeavyRow` carries:
/// category code 3 (past the test categories) or a half-integer numeric
/// inside the committed range. The indices never check domains, so it
/// keys a group, or names an RHS value, that no committed row has.
Value UnseenValue(const Schema& schema, size_t a, Rng* rng) {
  if (schema.attribute(a).is_categorical()) return Value::Categorical(3);
  return Value::Numeric(static_cast<double>(rng->UniformInt(0, 99)) + 0.5);
}

/// A row of unseen values only: every group key of it is absent from an
/// index built on `RandomRow` or `TieHeavyRow` rows.
Row UnseenRow(const Schema& schema, Rng* rng) {
  Row row;
  for (size_t a = 0; a < schema.size(); ++a) {
    row.push_back(UnseenValue(schema, a, rng));
  }
  return row;
}

/// Candidate values for `attrs`, `n` candidates flat: taken from
/// tie-heavy rows, with -0.0 and values outside the committed range mixed
/// into the numeric attributes. With `unseen`, about half the values are
/// replaced by `UnseenValue`s.
std::vector<Value> CandidateValues(const Schema& schema,
                                   const std::vector<size_t>& attrs, size_t n,
                                   Rng* rng, bool unseen = false) {
  std::vector<Value> values;
  values.reserve(n * attrs.size());
  for (size_t c = 0; c < n; ++c) {
    const Row row = TieHeavyRow(rng);
    for (size_t a : attrs) {
      Value v = row[a];
      if (schema.attribute(a).is_numeric()) {
        const int64_t special = rng->UniformInt(0, 19);
        if (special == 0) v = Value::Numeric(-0.0);
        if (special == 1) v = Value::Numeric(-1.0);
        if (special == 2) v = Value::Numeric(1000.0);
      }
      if (unseen && rng->UniformInt(0, 1) == 0) v = UnseenValue(schema, a, rng);
      values.push_back(v);
    }
  }
  return values;
}

/// Scores the `n` candidates `values` for unit `attrs` over `base` in one
/// batch: each count must equal the index's own per-row `CountNew` of the
/// candidate row, and the reference count (the naive index;
/// `ViolatesUnary` for a unary DC) for every candidate when
/// `all_reference`, else for every 25th.
void CheckBatch(const DenialConstraint& dc, const ViolationIndex& index,
                const ViolationIndex* naive, const Row& base,
                const std::vector<size_t>& attrs,
                const std::vector<Value>& values, bool all_reference,
                const std::string& label) {
  const size_t n = values.size() / attrs.size();
  std::vector<int64_t> counts(n, -1);
  index.CountNewBatch(base, attrs, values.data(), n, counts.data());
  Row candidate = base;
  for (size_t c = 0; c < n; ++c) {
    for (size_t i = 0; i < attrs.size(); ++i) {
      candidate[attrs[i]] = values[c * attrs.size() + i];
    }
    ASSERT_EQ(counts[c], index.CountNew(candidate))
        << label << ", " << attrs.size() << " unit attrs from " << attrs[0]
        << ", batch " << n << ", candidate " << c;
    if (!all_reference && c % 25 != 0) continue;
    const int64_t reference = naive != nullptr ? naive->CountNew(candidate)
                                               : dc.ViolatesUnary(candidate);
    ASSERT_EQ(counts[c], reference)
        << label << ", batch " << n << ", candidate " << c;
  }
}

/// `CheckBatch` over `base` for every unit attribute list in `units`, at
/// batch sizes 1, 3 and `max_batch` of `CandidateValues` (with `unseen`
/// values mixed in when set); the small batches check every candidate
/// against the reference.
void CheckBatches(const DenialConstraint& dc, const Schema& schema,
                  const ViolationIndex& index, const ViolationIndex* naive,
                  const Row& base,
                  const std::vector<std::vector<size_t>>& units,
                  const std::string& label, Rng* rng, bool unseen = false,
                  size_t max_batch = 1100) {
  for (const std::vector<size_t>& attrs : units) {
    for (const size_t n : {size_t{1}, size_t{3}, max_batch}) {
      CheckBatch(dc, index, naive, base, attrs,
                 CandidateValues(schema, attrs, n, rng, unseen), n <= 3,
                 label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ViolationIndexBatchTest, OrderGroupsPastBlockCapMatchPerRowAndNaive) {
  // Order indices (all four orientations, plain and grouped) and
  // composite plans with order terms, grown on tie-heavy rows past 4096
  // rows in one group (block capacity 256, equal-x runs spanning several
  // blocks) with removals interleaved, then thinned by removals. Unit
  // attribute lists cover x only, y only, the group attribute, x with y,
  // x with the group, and x with an attribute outside the DC. Two more
  // batches per unit attribute u and v aim at the walk's once-per-set
  // straddle counts: every candidate inside one block (x in [50, 51], a
  // sparse stretch where one block spans several integers), and every
  // candidate on the x = 2 tie run (about a tenth of the rows, so it
  // spans blocks).
  Schema schema = TestSchema();
  Rng rng(149);
  std::vector<std::string> specs = {
      "!(t1.u > t2.u & t1.v < t2.v)",
      "!(t1.u < t2.u & t1.v > t2.v)",
      "!(t1.u > t2.u & t1.v > t2.v)",
      "!(t1.u < t2.u & t1.v < t2.v)",
      "!(t1.a == t2.a & t1.u > t2.u & t1.v < t2.v)",
      "!(t1.a == t2.a & t1.u < t2.u & t1.v > t2.v)",
      "!(t1.a == t2.a & t1.u > t2.u & t1.v > t2.v)",
      "!(t1.a == t2.a & t1.u < t2.u & t1.v < t2.v)",
      "!(t1.a == t2.a & t1.u > t2.u & t1.v < t2.v & t1.b != t2.b)",
      "!(t1.u >= t2.u & t1.v >= t2.v & t1.b != t2.b)",
  };
  const std::vector<std::vector<size_t>> units = {{2}, {3}, {0},
                                                  {2, 3}, {0, 2}, {2, 4}};
  for (const std::string& spec : specs) {
    const DenialConstraint dc =
        DenialConstraint::Parse(spec, schema).TakeValue();
    auto index = MakeViolationIndex(dc);
    auto naive = MakeNaiveViolationIndex(dc);
    std::vector<Row> live;
    auto remove_one = [&] {
      const size_t k = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      index->RemoveRow(live[k]);
      naive->RemoveRow(live[k]);
      live[k] = std::move(live.back());
      live.pop_back();
    };
    auto check = [&] {
      ASSERT_EQ(index->size(), live.size()) << spec;
      const std::string label =
          spec + " at " + std::to_string(live.size()) + " rows";
      CheckBatches(dc, schema, *index, naive.get(), TieHeavyRow(&rng), units,
                   label, &rng);
      if (::testing::Test::HasFatalFailure()) return;
      for (const size_t attr : {size_t{2}, size_t{3}}) {
        std::vector<Value> inside, tie;
        for (size_t c = 0; c < 20; ++c) {
          inside.push_back(Value::Numeric(50.0 + 0.05 * c));
          tie.push_back(Value::Numeric(2.0));
        }
        CheckBatch(dc, *index, naive.get(), TieHeavyRow(&rng), {attr}, inside,
                   true, label + ", inside one block");
        CheckBatch(dc, *index, naive.get(), TieHeavyRow(&rng), {attr}, tie,
                   true, label + ", on a tie run");
        if (::testing::Test::HasFatalFailure()) return;
      }
    };
    for (const size_t target : {size_t{150}, size_t{1500}, size_t{5300}}) {
      while (live.size() < target) {
        if (!live.empty() && rng.UniformInt(0, 4) == 0) {
          remove_one();
        } else {
          live.push_back(TieHeavyRow(&rng));
          index->AddRow(live.back());
          naive->AddRow(live.back());
        }
      }
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (live.size() > 2500) remove_one();
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ViolationIndexBatchTest, EveryIndexClassMatchesPerRowAndNaive) {
  // Every index class — FD, unary, never-fires, naive, order and
  // composite, plus random composite shapes — on a few hundred rows with
  // removals interleaved. Unit attribute lists: each DC attribute alone,
  // all of them, the first with an attribute outside the DC, the RHS (of
  // the FD view; else the last DC attribute) with it, and the outside
  // attribute alone. Each size is scored over a committed-like base row,
  // over a base whose every group is absent from the index, and with
  // candidate values (RHS values among them) no committed row carries.
  Schema schema = TestSchema();
  Rng rng(151);
  std::vector<DenialConstraint> dcs = RemoveRowDcs(schema);
  for (int i = 0; i < 12; ++i) dcs.push_back(RandomCompositeDc(schema, &rng));
  for (const DenialConstraint& dc : dcs) {
    const std::string label = dc.ToString(schema);
    const std::vector<size_t>& dc_attrs = dc.attributes();
    std::vector<std::vector<size_t>> units;
    for (size_t a : dc_attrs) units.push_back({a});
    units.push_back(dc_attrs);
    const std::optional<FdSpec> fd = dc.Decompose().Fd();
    const size_t rhs = fd.has_value() ? fd->rhs : dc_attrs.back();
    for (size_t a = 0; a < schema.size(); ++a) {
      if (std::find(dc_attrs.begin(), dc_attrs.end(), a) == dc_attrs.end()) {
        units.push_back({dc_attrs[0], a});
        units.push_back({rhs, a});
        units.push_back({a});
        break;
      }
    }
    auto index = MakeViolationIndex(dc);
    auto naive = dc.is_unary() ? nullptr : MakeNaiveViolationIndex(dc);
    std::vector<Row> live;
    for (const size_t target : {size_t{60}, size_t{250}, size_t{400}}) {
      while (live.size() < target) {
        if (!live.empty() && rng.UniformInt(0, 4) == 0) {
          const size_t k = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
          index->RemoveRow(live[k]);
          if (naive != nullptr) naive->RemoveRow(live[k]);
          live[k] = std::move(live.back());
          live.pop_back();
        } else {
          live.push_back(RandomRow(&rng));
          index->AddRow(live.back());
          if (naive != nullptr) naive->AddRow(live.back());
        }
      }
      const std::string at = label + " at " + std::to_string(live.size());
      CheckBatches(dc, schema, *index, naive.get(), RandomRow(&rng), units,
                   at + " rows", &rng);
      if (::testing::Test::HasFatalFailure()) return;
      // The unseen cases need no large batch (the 1100 above covers the
      // walks and the composite chunking).
      CheckBatches(dc, schema, *index, naive.get(), UnseenRow(schema, &rng),
                   units, at + " rows, unseen base", &rng, /*unseen=*/false,
                   /*max_batch=*/40);
      if (::testing::Test::HasFatalFailure()) return;
      CheckBatches(dc, schema, *index, naive.get(), RandomRow(&rng), units,
                   at + " rows, unseen candidates", &rng, /*unseen=*/true,
                   /*max_batch=*/40);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ViolationIndexBatchTest, SingleLhsUnitScoresWholeDomain) {
  // A histogram unit that is an FD's single LHS attribute scores the
  // attribute's whole domain in index order, one candidate per value.
  // Committed rows use LHS values [0, 24); the domain runs to 40, past
  // every committed code. A group goes pure -> mixed -> pure on the other
  // RHS value, two are drained to empty by RemoveRow (one the highest
  // committed code) and re-added, and a third index is built by Merge,
  // which turns a group mixed and adds a code past the merged-into
  // index's table. Every state is scored against per-row CountNew and the
  // naive index over bases carrying each RHS value and one that no row
  // carries, and `FdForcedValue` of every domain value is checked against
  // the live rows' majority. The numeric LHS takes the hashed groups
  // through the same path.
  Schema schema = TestSchema();
  Rng rng(157);
  for (const std::string spec :
       {"!(t1.a == t2.a & t1.b != t2.b)", "!(t1.a == t2.a & t1.u != t2.u)",
        "!(t1.u == t2.u & t1.b != t2.b)"}) {
    const DenialConstraint dc =
        DenialConstraint::Parse(spec, schema).TakeValue();
    const FdSpec fd = dc.Decompose().Fd().value();
    ASSERT_EQ(fd.lhs.size(), 1u) << spec;
    const size_t lhs = fd.lhs[0];
    auto value_of = [&schema](size_t attr, int k) {
      return schema.attribute(attr).is_categorical()
                 ? Value::Categorical(k)
                 : Value::Numeric(static_cast<double>(k));
    };
    std::vector<Value> domain;
    for (int k = 0; k < 40; ++k) domain.push_back(value_of(lhs, k));

    std::vector<Row> live;
    auto row_of = [&](int key, int rhs) {
      Row row = RandomRow(&rng);
      row[lhs] = value_of(lhs, key);
      row[fd.rhs] = value_of(fd.rhs, rhs);
      return row;
    };
    auto check = [&](const ViolationIndex& index,
                     const ViolationIndex& naive, const std::string& stage) {
      const std::string label = spec + ", " + stage;
      ASSERT_EQ(index.size(), live.size()) << label;
      for (const int rhs : {0, 1, 2, 3}) {
        Row base = RandomRow(&rng);
        base[fd.rhs] = value_of(fd.rhs, rhs);
        CheckBatch(dc, index, &naive, base, {lhs}, domain, true, label);
        if (::testing::Test::HasFatalFailure()) return;
      }
      for (const Value& key : domain) {
        std::map<double, int64_t> counts;  // RHS order key -> rows
        for (const Row& row : live) {
          if (row[lhs] == key) ++counts[row[fd.rhs].OrderKey()];
        }
        Row probe = RandomRow(&rng);
        probe[lhs] = key;
        const std::optional<Value> forced = index.FdForcedValue(probe);
        ASSERT_EQ(forced.has_value(), !counts.empty()) << label;
        if (counts.empty()) continue;
        auto best = counts.begin();  // majority; ties to the smallest
        for (auto it = counts.begin(); it != counts.end(); ++it) {
          if (it->second > best->second) best = it;
        }
        ASSERT_EQ(forced->OrderKey(), best->first) << label;
      }
    };

    auto index = MakeViolationIndex(dc);
    auto naive = MakeNaiveViolationIndex(dc);
    auto add = [&](int key, int rhs) {
      live.push_back(row_of(key, rhs));
      index->AddRow(live.back());
      naive->AddRow(live.back());
    };
    // Retracts every live row of group `key` (with RHS `rhs`, when >= 0).
    auto remove_rows = [&](int key, int rhs) {
      for (size_t k = live.size(); k-- > 0;) {
        if (!(live[k][lhs] == value_of(lhs, key)) ||
            (rhs >= 0 && !(live[k][fd.rhs] == value_of(fd.rhs, rhs)))) {
          continue;
        }
        index->RemoveRow(live[k]);
        naive->RemoveRow(live[k]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      }
    };
    for (int key = 0; key < 24; ++key) {
      for (int r = 0; r <= key % 3; ++r) add(key, key % 3);
    }
    check(*index, *naive, "pure groups");
    if (::testing::Test::HasFatalFailure()) return;
    add(5, 0);  // group 5 carried RHS 2 only
    check(*index, *naive, "group 5 mixed");
    if (::testing::Test::HasFatalFailure()) return;
    remove_rows(5, 2);  // pure again, now on RHS 0
    check(*index, *naive, "group 5 pure again");
    if (::testing::Test::HasFatalFailure()) return;
    remove_rows(7, -1);
    remove_rows(23, -1);
    check(*index, *naive, "groups 7 and 23 drained");
    if (::testing::Test::HasFatalFailure()) return;
    add(7, 2);
    add(7, 2);
    add(23, 0);
    check(*index, *naive, "groups 7 and 23 re-added");
    if (::testing::Test::HasFatalFailure()) return;

    // Merge: the first half into one index, the second half plus a row
    // that mixes group 3 and one of code 30 into another, folded.
    live.push_back(row_of(3, 1));
    live.push_back(row_of(30, 1));
    auto merged = MakeViolationIndex(dc);
    auto other = MakeViolationIndex(dc);
    auto merged_naive = MakeNaiveViolationIndex(dc);
    for (size_t k = 0; k < live.size(); ++k) {
      (k < live.size() / 2 ? merged : other)->AddRow(live[k]);
      merged_naive->AddRow(live[k]);
    }
    merged->Merge(*other);
    check(*merged, *merged_naive, "merged, group 3 mixed");
    if (::testing::Test::HasFatalFailure()) return;
    for (const int key : {3, 30}) {
      // Retract the rows added for the merge: group 3 turns pure again
      // and group 30 empties.
      auto it = std::find_if(live.rbegin(), live.rend(), [&](const Row& r) {
        return r[lhs] == value_of(lhs, key) &&
               r[fd.rhs] == value_of(fd.rhs, 1);
      });
      merged->RemoveRow(*it);
      merged_naive->RemoveRow(*it);
      live.erase(std::next(it).base());
    }
    check(*merged, *merged_naive, "merged, group 3 pure again");
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
