#ifndef KAMINO_DC_CONSTRAINT_H_
#define KAMINO_DC_CONSTRAINT_H_

#include <optional>
#include <string>
#include <vector>

#include "kamino/common/status.h"
#include "kamino/data/table.h"

namespace kamino {

namespace io {
class ByteReader;
}  // namespace io

/// Comparison operators allowed in denial-constraint predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Renders an operator as its source syntax ("==", "!=", ...).
const char* CompareOpToString(CompareOp op);

/// Evaluates `a op b` under the Value ordering.
bool EvalCompare(const Value& a, CompareOp op, const Value& b);

/// One predicate of a DC: `tX.attr op tY.attr` or `tX.attr op constant`.
///
/// Tuple index 0 refers to `t1` in the source syntax and 1 to `t2`.
struct Predicate {
  int lhs_tuple = 0;
  size_t lhs_attr = 0;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_constant = false;
  int rhs_tuple = 0;
  size_t rhs_attr = 0;
  Value rhs_constant;

  /// Evaluates against a pair of rows bound to (t1, t2).
  bool Eval(const Row& t1, const Row& t2) const {
    const Value& lhs = (lhs_tuple == 0 ? t1 : t2)[lhs_attr];
    if (rhs_is_constant) return EvalCompare(lhs, op, rhs_constant);
    const Value& rhs = (rhs_tuple == 0 ? t1 : t2)[rhs_attr];
    return EvalCompare(lhs, op, rhs);
  }
};

/// Functional-dependency view of a DC (`PredicateDecomposition::Fd`): rows
/// agreeing on every `lhs` attribute must agree on `rhs`.
struct FdSpec {
  std::vector<size_t> lhs;  // equality scope, sorted ascending; may be empty
  size_t rhs = 0;

  bool operator==(const FdSpec& o) const {
    return lhs == o.lhs && rhs == o.rhs;
  }
};

/// Normalized description of an (equality-scoped) order DC, as produced by
/// `PredicateDecomposition::GroupedOrder` and as carried by every order
/// term of the composite violation plan: within each group of rows that
/// agree on `group_attrs`, the DC forbids X and Y moving in opposite
/// directions (`co_monotone`, e.g. !(t1.X > t2.X & t1.Y < t2.Y)) or in the
/// same direction (anti-monotone, e.g. !(t1.X > t2.X & t1.Y > t2.Y)).
///
/// The orientation helpers reduce both forms to one geometry: with
/// `ContextKey(x)` on one axis and `OrientedKey(y)` on the other, an
/// unordered pair violates the DC exactly when it is an *inversion* — one
/// row strictly higher in X and strictly lower in oriented Y. Ties on
/// either axis never violate (the order predicates are strict). This is
/// what lets the sorted scans count violations with rank queries instead
/// of pair enumeration.
struct GroupedOrderSpec {
  std::vector<size_t> group_attrs;  // equality scope; empty for plain pairs
  size_t x_attr = 0;
  size_t y_attr = 0;
  bool co_monotone = true;

  bool operator==(const GroupedOrderSpec& o) const {
    return group_attrs == o.group_attrs && x_attr == o.x_attr &&
           y_attr == o.y_attr && co_monotone == o.co_monotone;
  }

  /// Sort key of the context axis (plain Value order).
  double ContextKey(const Value& x) const { return x.OrderKey(); }

  /// Sort key of the dependent axis, negated for the anti-monotone form so
  /// that violating pairs are inversions in both cases.
  double OrientedKey(const Value& y) const {
    return co_monotone ? y.OrderKey() : -y.OrderKey();
  }
};

/// Canonical kind of one non-equality residual in a decomposed binary DC
/// (see `PredicateDecomposition`).
enum class ResidualKind {
  kInequation,     // t1.A != t2.A (orientation-free)
  kStrictOrder,    // t1.A > t2.A or t1.A < t2.A, tuple-normalized
  kNonStrictOrder  // t1.A >= t2.A or t1.A <= t2.A, tuple-normalized
};

/// One order-shaped residual of a decomposed binary DC: the *net*
/// comparison constraint on a single attribute after merging every
/// predicate that mentions it. `direction` is +1 when the normalized form
/// is `t1.attr > t2.attr` (or `>=`) and -1 for `<` (`<=`) — predicates
/// written with t2 on the left are mirrored first (tuple-variable swap).
struct OrderResidual {
  size_t attr = 0;
  ResidualKind kind = ResidualKind::kStrictOrder;
  int direction = 1;
};

/// Inequation residuals above this count make the inclusion–exclusion
/// composite engine more expensive than it is worth (2^k signed terms);
/// such DCs fall back to the naive pair scan.
inline constexpr size_t kMaxInequationResiduals = 4;

/// Canonical predicate decomposition of a DC (`DenialConstraint::
/// Decompose`): every binary DC whose predicates are cross-tuple
/// same-attribute comparisons reduces to an *equality scope* (the pair
/// must agree on `scope_attrs`) times a set of residuals — `!=`
/// inequations plus at most one order residual pair. The normalization
/// folds each attribute's predicates into one allowed set of
/// sign(t1.A - t2.A) values, which applies these rules:
///
///  - tuple-variable swap: `t2.A < t1.A` is rewritten as `t1.A > t2.A`
///    (and unordered-pair violation is invariant under swapping t1/t2 in
///    *all* predicates at once, so only relative directions matter);
///  - contradictions (`==` with `!=`, `==` with a strict order, opposite
///    strict orders) make the conjunction unsatisfiable: shape
///    `kNeverFires`, zero violations on any instance;
///  - redundancy: `!=` plus an order on the same attribute keeps only the
///    (strictified) order; duplicated predicates collapse;
///  - symmetric-operator orientation: a *lone* strict order residual is
///    equivalent to an inequation for unordered pairs (some orientation
///    satisfies it exactly when the values differ), and a lone non-strict
///    order residual is vacuous (some orientation always satisfies it) —
///    so `order_residuals` is either empty or exactly a pair.
///
/// The `!=` residual itself counts as "equality minus diagonal": pairs in
/// the scope group minus pairs that also agree on the attribute, which is
/// what lets the composite engine count every shape with hash groups and
/// sorted rank sweeps (see dc/violations.cc).
struct PredicateDecomposition {
  /// Capability report: which violation-counting fast path applies.
  enum class Shape {
    kUnary,       // single-tuple DC; no pair semantics
    kNeverFires,  // unsatisfiable conjunction: never violates anything
    kComposite,   // scope x residuals; subquadratic composite engine
    kGeneral,     // outside the composite class; naive pair scan only
  };

  Shape shape = Shape::kGeneral;
  /// Cross-tuple equality scope, sorted ascending.
  std::vector<size_t> scope_attrs;
  /// Inequation residual attributes, sorted ascending (size <=
  /// kMaxInequationResiduals when shape == kComposite).
  std::vector<size_t> ne_attrs;
  /// Empty or exactly two residuals (strict/non-strict in any mix), in
  /// first-mention predicate order.
  std::vector<OrderResidual> order_residuals;

  /// True when violations are countable without a quadratic pair scan.
  bool subquadratic() const {
    return shape == Shape::kComposite || shape == Shape::kNeverFires;
  }

  /// FD view: a `kComposite` scope with exactly one `!=` residual and no
  /// order residual ("scope minus diagonal"), read as `scope_attrs ->
  /// ne_attrs[0]`. An empty scope is one global group.
  std::optional<FdSpec> Fd() const;

  /// Grouped-order view: a `kComposite` scope with no `!=` residual and
  /// two strict order residuals (the composite plan's lone `+order`
  /// term). `group_attrs` is the scope, x and y are the residuals in
  /// first-mention order, and `co_monotone` holds when their normalized
  /// directions differ (the DC forbids X and Y moving in opposite
  /// directions within a group).
  std::optional<GroupedOrderSpec> GroupedOrder() const;
};

/// Plain serializable mirror of a `Predicate` (artifact serde). Tuple
/// flags and the operator travel as raw bytes; `DenialConstraint::
/// FromState` validates them against the schema.
struct PredicateState {
  uint8_t lhs_tuple = 0;
  uint64_t lhs_attr = 0;
  uint8_t op = 0;
  uint8_t rhs_is_constant = 0;
  uint8_t rhs_tuple = 0;
  uint64_t rhs_attr = 0;
  uint8_t constant_is_categorical = 0;
  int32_t constant_category = 0;
  double constant_numeric = 0.0;
};

/// Plain serializable mirror of a `DenialConstraint`: only the predicate
/// list. The derived fields (`attributes()`, `is_unary()`) are recomputed
/// by `FromState` exactly as `Parse` computes them, so a round-tripped DC
/// is indistinguishable from a freshly parsed one.
struct DenialConstraintState {
  std::vector<PredicateState> predicates;
};

/// A denial constraint phi: "for all t1, t2: NOT (P1 & ... & Pm)".
///
/// Parsed from a compact textual syntax, e.g.
///   `!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)`      (binary FD-shaped)
///   `!(t1.age < 10 & t1.cap_gain > 1000000)`               (unary)
/// Constants are numbers for numeric attributes or 'single-quoted' labels
/// for categorical ones.
class DenialConstraint {
 public:
  /// Parses `spec` against `schema`. Returns InvalidArgument for malformed
  /// syntax, unknown attributes/labels, or kind-mismatched comparisons.
  static Result<DenialConstraint> Parse(const std::string& spec,
                                        const Schema& schema);

  const std::vector<Predicate>& predicates() const { return predicates_; }

  /// True if the DC only mentions tuple t1 (a single-tuple constraint).
  bool is_unary() const { return is_unary_; }

  /// The set A_phi of attribute indices mentioned anywhere in the DC,
  /// sorted ascending.
  const std::vector<size_t>& attributes() const { return attributes_; }

  /// True when all predicates hold for the ordered binding (t1=a, t2=b).
  bool FiresOrdered(const Row& a, const Row& b) const;

  /// True when the unordered pair {a, b} violates the DC (either binding
  /// orientation fires). For unary DCs this must not be used.
  bool ViolatesPair(const Row& a, const Row& b) const;

  /// Columnar form of `ViolatesPair` with the second tuple read straight
  /// from `table`'s typed columns — the scan loops' replacement for
  /// materializing `table.row(j)` per probe.
  bool ViolatesPairAt(const Row& a, const Table& table, size_t j) const;

  /// Columnar form with *both* tuples read from the typed columns (the
  /// pair-scan kernels: no Row materializes at all).
  bool ViolatesPairRows(const Table& table, size_t i, size_t j) const;

  /// True when the single tuple violates a unary DC.
  bool ViolatesUnary(const Row& a) const;

  /// Columnar form of `ViolatesUnary`.
  bool ViolatesUnaryAt(const Table& table, size_t i) const;

  /// The FD view of `Decompose()`: for a DC equivalent to
  ///   !(t1.X1 == t2.X1 & ... & t1.Xm == t2.Xm & t1.Y != t2.Y)
  /// fills `lhs` with the X attributes (sorted; empty for a pure `!=` DC)
  /// and `rhs` with Y and returns true. Equivalent spellings (mirrored
  /// tuples, a lone strict order for `!=`, repeated predicates) agree.
  bool AsFd(std::vector<size_t>* lhs, size_t* rhs) const;

  /// `AsGroupedOrderSpec` with an empty group, e.g.
  ///   !(t1.X > t2.X & t1.Y < t2.Y): fills X and Y and returns true.
  bool AsOrderPair(size_t* x_attr, size_t* y_attr) const;

  /// The grouped-order view of `Decompose()`, e.g. the per-state
  /// salary/rate dependency !(t1.S == t2.S & t1.X > t2.X & t1.Y < t2.Y).
  /// Equivalent spellings agree; the predicate order fixes x and y.
  std::optional<GroupedOrderSpec> AsGroupedOrderSpec() const;

  /// Canonical predicate decomposition (see `PredicateDecomposition`):
  /// normalizes the DC into equality scope x residuals and reports which
  /// violation-counting fast path applies. Every DC whose predicates are
  /// cross-tuple same-attribute comparisons with at most two order-shaped
  /// residual attributes (and at most `kMaxInequationResiduals`
  /// inequations) is `kComposite`; constants, cross-attribute
  /// comparisons, and wider order residuals are `kGeneral`.
  PredicateDecomposition Decompose() const;

  /// Round-trips the DC back to source syntax.
  std::string ToString(const Schema& schema) const;

  /// Artifact serde: a plain state mirror, and validated reconstruction.
  /// `FromState` rejects out-of-range attribute indices (arity flips),
  /// unknown operator/tuple bytes, kind-mismatched comparisons, and
  /// out-of-domain categorical constants with InvalidArgument.
  DenialConstraintState ToState() const;
  static Result<DenialConstraint> FromState(const DenialConstraintState& state,
                                            const Schema& schema);

  /// Wire form used inside model artifacts (io/bytes.h primitives).
  void SerializeTo(std::vector<uint8_t>* out) const;
  static Result<DenialConstraint> DeserializeFrom(io::ByteReader* in,
                                                  const Schema& schema);

 private:
  std::vector<Predicate> predicates_;
  std::vector<size_t> attributes_;
  bool is_unary_ = false;
};

/// A DC together with its hardness/weight (paper: w_phi; hard DCs have
/// effectively infinite weight).
struct WeightedConstraint {
  DenialConstraint dc;
  /// exp(-weight * new_violations) multiplies the sampling probability.
  double weight = 0.0;
  bool hard = false;

  /// The weight used in sampling: a large finite stand-in for infinity
  /// when `hard`, otherwise `weight`.
  double EffectiveWeight() const;
};

/// Parses a batch of DC specs with their hardness flags.
Result<std::vector<WeightedConstraint>> ParseConstraints(
    const std::vector<std::string>& specs, const std::vector<bool>& hardness,
    const Schema& schema);

}  // namespace kamino

#endif  // KAMINO_DC_CONSTRAINT_H_
