#include "kamino/dc/constraint.h"

#include <gtest/gtest.h>

#include <optional>

namespace kamino {
namespace {

Schema TestSchema() {
  return Schema({
      Attribute::MakeCategorical("edu", {"hs", "bs", "ms"}),
      Attribute::MakeNumeric("edu_num", 1, 3, 3),
      Attribute::MakeNumeric("gain", 0, 100, 101),
      Attribute::MakeNumeric("loss", 0, 100, 101),
      Attribute::MakeNumeric("age", 0, 120, 121),
  });
}

Row MakeRow(int edu, double edu_num, double gain, double loss, double age) {
  return {Value::Categorical(edu), Value::Numeric(edu_num),
          Value::Numeric(gain), Value::Numeric(loss), Value::Numeric(age)};
}

TEST(ConstraintParseTest, FdShape) {
  auto dc = DenialConstraint::Parse(
      "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)", TestSchema());
  ASSERT_TRUE(dc.ok()) << dc.status();
  EXPECT_FALSE(dc.value().is_unary());
  EXPECT_EQ(dc.value().predicates().size(), 2u);
  std::vector<size_t> lhs;
  size_t rhs = 0;
  ASSERT_TRUE(dc.value().AsFd(&lhs, &rhs));
  EXPECT_EQ(lhs, std::vector<size_t>{0});
  EXPECT_EQ(rhs, 1u);
}

TEST(ConstraintParseTest, OrderShape) {
  auto dc = DenialConstraint::Parse(
      "!(t1.gain > t2.gain & t1.loss < t2.loss)", TestSchema());
  ASSERT_TRUE(dc.ok());
  EXPECT_FALSE(dc.value().AsFd(nullptr, nullptr));
  size_t x = 0, y = 0;
  ASSERT_TRUE(dc.value().AsOrderPair(&x, &y));
  EXPECT_EQ(x, 2u);
  EXPECT_EQ(y, 3u);
}

TEST(ConstraintParseTest, GroupedOrderShape) {
  // Per-group order dependency: equality scope + two order predicates.
  auto dc = DenialConstraint::Parse(
      "!(t1.edu == t2.edu & t1.gain > t2.gain & t1.loss < t2.loss)",
      TestSchema());
  ASSERT_TRUE(dc.ok());
  EXPECT_FALSE(dc.value().AsOrderPair(nullptr, nullptr));  // 3 predicates
  std::optional<GroupedOrderSpec> spec = dc.value().AsGroupedOrderSpec();
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->group_attrs, std::vector<size_t>{0});
  EXPECT_EQ(spec->x_attr, 2u);
  EXPECT_EQ(spec->y_attr, 3u);
  EXPECT_TRUE(spec->co_monotone);
}

TEST(ConstraintParseTest, GroupedOrderDirectionAndPlainForm) {
  // The plain pair form matches with an empty group, and the normalized
  // direction flag distinguishes co-monotone from anti-monotone DCs.
  auto co_dc = DenialConstraint::Parse(
      "!(t1.gain > t2.gain & t1.loss < t2.loss)", TestSchema());
  ASSERT_TRUE(co_dc.ok());
  std::optional<GroupedOrderSpec> spec = co_dc.value().AsGroupedOrderSpec();
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->group_attrs.empty());
  EXPECT_TRUE(spec->co_monotone);

  // Mirrored tuple orientation on the second predicate: t2.loss > t1.loss
  // is the same co-monotone constraint.
  auto mirrored = DenialConstraint::Parse(
      "!(t1.gain > t2.gain & t2.loss > t1.loss)", TestSchema());
  ASSERT_TRUE(mirrored.ok());
  spec = mirrored.value().AsGroupedOrderSpec();
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->co_monotone);

  // Anti-monotone: both predicates point the same way.
  auto anti = DenialConstraint::Parse(
      "!(t1.gain > t2.gain & t1.loss > t2.loss)", TestSchema());
  ASSERT_TRUE(anti.ok());
  spec = anti.value().AsGroupedOrderSpec();
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(spec->co_monotone);

  // FD shape is not an order constraint.
  auto fd = DenialConstraint::Parse(
      "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)", TestSchema());
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(fd.value().AsGroupedOrderSpec().has_value());
}

TEST(ConstraintParseTest, UnaryWithConstants) {
  auto dc = DenialConstraint::Parse("!(t1.age < 10 & t1.gain > 50)",
                                    TestSchema());
  ASSERT_TRUE(dc.ok());
  EXPECT_TRUE(dc.value().is_unary());
  EXPECT_TRUE(dc.value().ViolatesUnary(MakeRow(0, 1, 60, 0, 5)));
  EXPECT_FALSE(dc.value().ViolatesUnary(MakeRow(0, 1, 60, 0, 50)));
  EXPECT_FALSE(dc.value().ViolatesUnary(MakeRow(0, 1, 10, 0, 5)));
}

TEST(ConstraintParseTest, CategoricalLabelConstant) {
  auto dc = DenialConstraint::Parse("!(t1.edu == 'bs' & t1.age < 18)",
                                    TestSchema());
  ASSERT_TRUE(dc.ok()) << dc.status();
  EXPECT_TRUE(dc.value().ViolatesUnary(MakeRow(1, 2, 0, 0, 10)));
  EXPECT_FALSE(dc.value().ViolatesUnary(MakeRow(0, 1, 0, 0, 10)));
}

TEST(ConstraintParseTest, OperatorCharactersInsideQuotedLabels) {
  // Regression: the operator search used to probe candidates in fixed
  // priority order over the whole predicate text, so `t1.occ != 'a==b'`
  // split at the `==` inside the quoted label and parsed as kEq with
  // garbage operands. The scan must find the leftmost operator *outside*
  // quotes.
  Schema schema({
      Attribute::MakeCategorical("occ", {"a==b", "x<y", "p>=q", "plain"}),
      Attribute::MakeNumeric("age", 0, 120, 121),
  });
  auto ne = DenialConstraint::Parse("!(t1.occ != 'a==b' & t1.age < 18)",
                                    schema);
  ASSERT_TRUE(ne.ok()) << ne.status();
  ASSERT_EQ(ne.value().predicates().size(), 2u);
  EXPECT_EQ(ne.value().predicates()[0].op, CompareOp::kNe);
  ASSERT_TRUE(ne.value().predicates()[0].rhs_is_constant);
  EXPECT_EQ(ne.value().predicates()[0].rhs_constant.category(), 0);
  // Violates for a minor whose occ is anything but 'a==b'.
  EXPECT_TRUE(ne.value().ViolatesUnary(
      {Value::Categorical(3), Value::Numeric(10)}));
  EXPECT_FALSE(ne.value().ViolatesUnary(
      {Value::Categorical(0), Value::Numeric(10)}));

  // One-character operators inside labels must not match either.
  auto lt = DenialConstraint::Parse("!(t1.occ == 'x<y' & t1.age < 18)",
                                    schema);
  ASSERT_TRUE(lt.ok()) << lt.status();
  EXPECT_EQ(lt.value().predicates()[0].op, CompareOp::kEq);
  EXPECT_EQ(lt.value().predicates()[0].rhs_constant.category(), 1);

  // Two-character operators inside labels, with a real >= outside.
  auto ge = DenialConstraint::Parse("!(t1.occ == 'p>=q' & t1.age >= 65)",
                                    schema);
  ASSERT_TRUE(ge.ok()) << ge.status();
  EXPECT_EQ(ge.value().predicates()[0].rhs_constant.category(), 2);
  EXPECT_EQ(ge.value().predicates()[1].op, CompareOp::kGe);

  // Such labels survive the print/re-parse round trip.
  auto reparsed =
      DenialConstraint::Parse(ne.value().ToString(schema), schema);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed.value().ToString(schema), ne.value().ToString(schema));
}

TEST(ConstraintParseTest, AmpersandInsideQuotedLabels) {
  // The predicate splitter must also be quote-aware: a label like 'R&D'
  // must not end its predicate at the '&'.
  Schema schema({
      Attribute::MakeCategorical("dept", {"R&D", "sales"}),
      Attribute::MakeNumeric("age", 0, 120, 121),
  });
  auto dc = DenialConstraint::Parse("!(t1.dept == 'R&D' & t1.age < 18)",
                                    schema);
  ASSERT_TRUE(dc.ok()) << dc.status();
  ASSERT_EQ(dc.value().predicates().size(), 2u);
  EXPECT_EQ(dc.value().predicates()[0].op, CompareOp::kEq);
  EXPECT_EQ(dc.value().predicates()[0].rhs_constant.category(), 0);
  EXPECT_TRUE(dc.value().ViolatesUnary(
      {Value::Categorical(0), Value::Numeric(10)}));
  EXPECT_FALSE(dc.value().ViolatesUnary(
      {Value::Categorical(1), Value::Numeric(10)}));
  auto reparsed = DenialConstraint::Parse(dc.value().ToString(schema), schema);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed.value().ToString(schema), dc.value().ToString(schema));
}

TEST(ConstraintParseTest, MalformedInputs) {
  const Schema schema = TestSchema();
  EXPECT_FALSE(DenialConstraint::Parse("t1.a == t2.a", schema).ok());
  EXPECT_FALSE(DenialConstraint::Parse("!()", schema).ok());
  EXPECT_FALSE(DenialConstraint::Parse("!(t1.unknown == t2.edu)", schema).ok());
  EXPECT_FALSE(DenialConstraint::Parse("!(t1.edu ~ t2.edu)", schema).ok());
  // Kind mismatch: categorical vs numeric.
  EXPECT_FALSE(DenialConstraint::Parse("!(t1.edu == t2.age)", schema).ok());
  // Categorical vs numeric constant.
  EXPECT_FALSE(DenialConstraint::Parse("!(t1.edu == 3)", schema).ok());
  // Numeric vs label constant.
  EXPECT_FALSE(DenialConstraint::Parse("!(t1.age == 'bs')", schema).ok());
  // Unknown label.
  EXPECT_FALSE(DenialConstraint::Parse("!(t1.edu == 'phd')", schema).ok());
}

TEST(ConstraintParseTest, RoundTripToString) {
  const Schema schema = TestSchema();
  const std::string spec = "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)";
  auto dc = DenialConstraint::Parse(spec, schema);
  ASSERT_TRUE(dc.ok());
  auto reparsed = DenialConstraint::Parse(dc.value().ToString(schema), schema);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed.value().ToString(schema), dc.value().ToString(schema));
}

TEST(ConstraintTest, ViolatesPairIsSymmetricInInputs) {
  auto dc = DenialConstraint::Parse(
      "!(t1.gain > t2.gain & t1.loss < t2.loss)", TestSchema()).TakeValue();
  Row a = MakeRow(0, 1, 50, 0, 30);
  Row b = MakeRow(0, 1, 10, 20, 30);
  // a has higher gain and lower loss than b: violation in one orientation.
  EXPECT_TRUE(dc.ViolatesPair(a, b));
  EXPECT_TRUE(dc.ViolatesPair(b, a));
  // Ties never violate a strict order DC.
  EXPECT_FALSE(dc.ViolatesPair(a, a));
}

TEST(ConstraintTest, AttributesSetIsSorted) {
  auto dc = DenialConstraint::Parse(
      "!(t1.loss < t2.loss & t1.gain > t2.gain)", TestSchema()).TakeValue();
  EXPECT_EQ(dc.attributes(), (std::vector<size_t>{2, 3}));
}

TEST(ConstraintTest, EffectiveWeight) {
  WeightedConstraint wc;
  wc.hard = true;
  wc.weight = 1.0;
  EXPECT_DOUBLE_EQ(wc.EffectiveWeight(), 40.0);
  wc.hard = false;
  EXPECT_DOUBLE_EQ(wc.EffectiveWeight(), 1.0);
}

TEST(ConstraintTest, ParseConstraintsBatch) {
  auto r = ParseConstraints({"!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
                             "!(t1.age < 10 & t1.gain > 50)"},
                            {true, false}, TestSchema());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value()[0].hard);
  EXPECT_FALSE(r.value()[1].hard);
  EXPECT_FALSE(
      ParseConstraints({"!(t1.edu == t2.edu)"}, {true, false}, TestSchema())
          .ok());
}

using Shape = PredicateDecomposition::Shape;

PredicateDecomposition Decompose(const char* spec) {
  return DenialConstraint::Parse(spec, TestSchema()).TakeValue().Decompose();
}

TEST(PredicateDecompositionTest, ClassifiesCanonicalShapes) {
  // FD shape: equality scope + one inequation residual.
  PredicateDecomposition fd =
      Decompose("!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)");
  EXPECT_EQ(fd.shape, Shape::kComposite);
  EXPECT_EQ(fd.scope_attrs, std::vector<size_t>{0});
  EXPECT_EQ(fd.ne_attrs, std::vector<size_t>{1});
  EXPECT_TRUE(fd.order_residuals.empty());
  EXPECT_TRUE(fd.subquadratic());

  // Grouped order shape: scope + two strict residuals.
  PredicateDecomposition order =
      Decompose("!(t1.edu == t2.edu & t1.gain > t2.gain & t1.loss < t2.loss)");
  EXPECT_EQ(order.shape, Shape::kComposite);
  EXPECT_EQ(order.scope_attrs, std::vector<size_t>{0});
  EXPECT_TRUE(order.ne_attrs.empty());
  ASSERT_EQ(order.order_residuals.size(), 2u);
  EXPECT_EQ(order.order_residuals[0].attr, 2u);
  EXPECT_EQ(order.order_residuals[0].kind, ResidualKind::kStrictOrder);
  EXPECT_EQ(order.order_residuals[0].direction, 1);
  EXPECT_EQ(order.order_residuals[1].attr, 3u);
  EXPECT_EQ(order.order_residuals[1].direction, -1);

  // Mixed: scope + order pair + inequation.
  PredicateDecomposition mixed = Decompose(
      "!(t1.edu == t2.edu & t1.gain > t2.gain & t1.loss < t2.loss & "
      "t1.age != t2.age)");
  EXPECT_EQ(mixed.shape, Shape::kComposite);
  EXPECT_EQ(mixed.ne_attrs, std::vector<size_t>{4});
  EXPECT_EQ(mixed.order_residuals.size(), 2u);

  // Unary DCs have no pair decomposition.
  EXPECT_EQ(Decompose("!(t1.age > 10 & t1.gain > 5)").shape, Shape::kUnary);
}

TEST(PredicateDecompositionTest, NormalizesTupleSwapAndLoneOrders) {
  // t2-on-the-left spellings mirror into the t1 orientation.
  PredicateDecomposition mirrored =
      Decompose("!(t2.gain < t1.gain & t2.loss > t1.loss)");
  EXPECT_EQ(mirrored.shape, Shape::kComposite);
  ASSERT_EQ(mirrored.order_residuals.size(), 2u);
  EXPECT_EQ(mirrored.order_residuals[0].direction, 1);   // gain: t1 > t2
  EXPECT_EQ(mirrored.order_residuals[1].direction, -1);  // loss: t1 < t2

  // A lone strict order residual is an inequation for unordered pairs.
  PredicateDecomposition lone_strict =
      Decompose("!(t1.edu == t2.edu & t1.gain > t2.gain)");
  EXPECT_EQ(lone_strict.shape, Shape::kComposite);
  EXPECT_EQ(lone_strict.ne_attrs, std::vector<size_t>{2});
  EXPECT_TRUE(lone_strict.order_residuals.empty());

  // A lone non-strict order residual is vacuous for unordered pairs.
  PredicateDecomposition lone_soft =
      Decompose("!(t1.edu == t2.edu & t1.gain >= t2.gain)");
  EXPECT_EQ(lone_soft.shape, Shape::kComposite);
  EXPECT_TRUE(lone_soft.ne_attrs.empty());
  EXPECT_TRUE(lone_soft.order_residuals.empty());

  // != plus a strict order on the same attribute keeps only the order
  // (here it stays lone, so it ends as an inequation again).
  PredicateDecomposition redundant =
      Decompose("!(t1.gain != t2.gain & t1.gain > t2.gain)");
  EXPECT_EQ(redundant.shape, Shape::kComposite);
  EXPECT_EQ(redundant.ne_attrs, std::vector<size_t>{2});

  // != plus a non-strict order strictifies: the pair {>=, !=} means >.
  PredicateDecomposition strictified = Decompose(
      "!(t1.gain >= t2.gain & t1.gain != t2.gain & t1.loss < t2.loss)");
  EXPECT_EQ(strictified.shape, Shape::kComposite);
  ASSERT_EQ(strictified.order_residuals.size(), 2u);
  EXPECT_EQ(strictified.order_residuals[0].kind, ResidualKind::kStrictOrder);
  EXPECT_EQ(strictified.order_residuals[1].kind, ResidualKind::kStrictOrder);
}

TEST(PredicateDecompositionTest, ReportsUnsatisfiableAndGeneralShapes) {
  EXPECT_EQ(Decompose("!(t1.gain > t2.gain & t1.gain < t2.gain)").shape,
            Shape::kNeverFires);
  EXPECT_EQ(Decompose("!(t1.edu == t2.edu & t1.edu != t2.edu)").shape,
            Shape::kNeverFires);
  EXPECT_EQ(
      Decompose("!(t1.gain == t2.gain & t1.gain >= t2.gain & "
                "t1.gain != t2.gain)")
          .shape,
      Shape::kNeverFires);
  EXPECT_TRUE(Decompose("!(t1.gain > t2.gain & t1.gain < t2.gain)")
                  .subquadratic());

  // Constants, cross-attribute comparisons, and three order-shaped
  // residuals stay outside the composite class.
  EXPECT_EQ(Decompose("!(t1.age > 10 & t1.gain > t2.gain)").shape,
            Shape::kGeneral);
  EXPECT_EQ(Decompose("!(t1.gain > t2.loss & t1.age != t2.age)").shape,
            Shape::kGeneral);
  EXPECT_EQ(
      Decompose("!(t1.gain > t2.gain & t1.loss > t2.loss & t1.age > t2.age)")
          .shape,
      Shape::kGeneral);
  EXPECT_FALSE(
      Decompose("!(t1.age > 10 & t1.gain > t2.gain)").subquadratic());
}

TEST(ConstraintTest, AsFdRejectsNonFdShapes) {
  const Schema schema = TestSchema();
  // Two inequations: not an FD.
  auto dc1 = DenialConstraint::Parse(
      "!(t1.edu != t2.edu & t1.edu_num != t2.edu_num)", schema).TakeValue();
  EXPECT_FALSE(dc1.AsFd(nullptr, nullptr));
  // Constant predicate: not an FD.
  auto dc2 =
      DenialConstraint::Parse("!(t1.age > 10 & t1.gain > 5)", schema).TakeValue();
  EXPECT_FALSE(dc2.AsFd(nullptr, nullptr));
  // `==` with `!=` on one attribute never fires: not an FD edu -> edu.
  auto dc3 = DenialConstraint::Parse("!(t1.edu == t2.edu & t1.edu != t2.edu)",
                                     schema)
                 .TakeValue();
  EXPECT_FALSE(dc3.AsFd(nullptr, nullptr));
}

TEST(ConstraintTest, EquivalentSpellingsShareOneShape) {
  // Each respelling mirrors tuple orientations, trades a `!=` for a lone
  // strict order, or repeats a predicate, keeping the first mention of
  // every attribute in place. The FD and grouped-order views must equal
  // the canonical spelling's, and every canonical spelling has one.
  struct Case {
    const char* canonical;
    const char* respelled;
  };
  const Case cases[] = {
      // FD: a lone strict order for the `!=`.
      {"!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
       "!(t1.edu == t2.edu & t1.edu_num > t2.edu_num)"},
      // FD: mirrored tuple orientation.
      {"!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
       "!(t2.edu == t1.edu & t2.edu_num != t1.edu_num)"},
      // FD: duplicated `!=` and duplicated `==`.
      {"!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
       "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num & "
       "t2.edu_num != t1.edu_num & t1.edu == t2.edu)"},
      // FD with an empty scope: `!=` alone, or a lone strict order.
      {"!(t1.age != t2.age)", "!(t2.age < t1.age)"},
      // Order pair: mirrored tuple orientation, per predicate and whole.
      {"!(t1.gain > t2.gain & t1.loss < t2.loss)",
       "!(t2.gain < t1.gain & t2.loss > t1.loss)"},
      {"!(t1.gain > t2.gain & t1.loss < t2.loss)",
       "!(t2.gain > t1.gain & t2.loss < t1.loss)"},
      // Order pair: a duplicated order predicate (strict, and a weaker
      // non-strict copy) and a redundant `!=`.
      {"!(t1.gain > t2.gain & t1.loss < t2.loss)",
       "!(t1.gain > t2.gain & t1.loss < t2.loss & t1.gain >= t2.gain)"},
      {"!(t1.gain > t2.gain & t1.loss < t2.loss)",
       "!(t1.gain > t2.gain & t1.gain != t2.gain & t2.loss > t1.loss & "
       "t1.loss < t2.loss)"},
      // Anti-monotone order pair, mirrored.
      {"!(t1.gain > t2.gain & t1.loss > t2.loss)",
       "!(t2.gain < t1.gain & t2.loss < t1.loss)"},
      // Grouped order: mirrored scope and order, repeated scope.
      {"!(t1.edu == t2.edu & t1.gain > t2.gain & t1.loss < t2.loss)",
       "!(t2.edu == t1.edu & t1.gain > t2.gain & t2.loss > t1.loss & "
       "t1.edu == t2.edu)"},
  };
  const Schema schema = TestSchema();
  for (const Case& c : cases) {
    const DenialConstraint canonical =
        DenialConstraint::Parse(c.canonical, schema).TakeValue();
    const DenialConstraint respelled =
        DenialConstraint::Parse(c.respelled, schema).TakeValue();
    std::vector<size_t> lhs_c, lhs_r;
    size_t rhs_c = SIZE_MAX, rhs_r = SIZE_MAX;
    const bool fd = canonical.AsFd(&lhs_c, &rhs_c);
    EXPECT_EQ(respelled.AsFd(&lhs_r, &rhs_r), fd) << c.respelled;
    EXPECT_EQ(lhs_r, lhs_c) << c.respelled;
    EXPECT_EQ(rhs_r, rhs_c) << c.respelled;
    const std::optional<GroupedOrderSpec> order =
        canonical.AsGroupedOrderSpec();
    EXPECT_EQ(respelled.AsGroupedOrderSpec(), order) << c.respelled;
    EXPECT_TRUE(fd || order.has_value()) << c.canonical;
    EXPECT_EQ(respelled.Decompose().Fd(), canonical.Decompose().Fd())
        << c.respelled;
  }
}

}  // namespace
}  // namespace kamino
