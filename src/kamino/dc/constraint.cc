#include "kamino/dc/constraint.h"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "kamino/common/strings.h"
#include "kamino/io/bytes.h"

namespace kamino {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCompare(const Value& a, CompareOp op, const Value& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

namespace {

/// Parses "t1.attr" / "t2.attr" into (tuple, attr index). Returns NotFound
/// for anything else so the caller can fall back to constant parsing.
Result<std::pair<int, size_t>> ParseTupleRef(std::string_view token,
                                             const Schema& schema) {
  std::string_view t = Trim(token);
  int tuple;
  if (StartsWith(t, "t1.")) {
    tuple = 0;
  } else if (StartsWith(t, "t2.")) {
    tuple = 1;
  } else {
    return Status::NotFound("not a tuple reference");
  }
  std::string attr_name(t.substr(3));
  KAMINO_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(attr_name));
  return std::make_pair(tuple, idx);
}

/// Splits the DC body on '&' outside 'quoted' label constants (the same
/// quote rule as FindOperator below: quotes toggle, no escapes), so a
/// label like 'R&D' does not end its predicate early. Keeps empty fields,
/// like Split, so empty-predicate diagnostics are unchanged.
std::vector<std::string> SplitPredicates(std::string_view text) {
  std::vector<std::string> parts;
  std::string current;
  bool in_quote = false;
  for (char c : text) {
    if (c == '\'') in_quote = !in_quote;
    if (c == '&' && !in_quote) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

/// Finds the leftmost comparison operator outside 'quoted' label
/// constants. A single left-to-right scan (two-character operators matched
/// before their one-character prefixes at each position) rather than a
/// per-operator search of the whole text: the latter picked whichever
/// candidate operator came first in *priority* order, so a predicate like
/// `t1.occ != 'a==b'` split at the `==` inside the quoted label and parsed
/// as kEq with garbage operands.
Result<CompareOp> FindOperator(std::string_view text, size_t* pos,
                               size_t* len) {
  bool in_quote = false;
  for (size_t p = 0; p < text.size(); ++p) {
    const char c = text[p];
    if (c == '\'') {
      in_quote = !in_quote;
      continue;
    }
    if (in_quote) continue;
    const bool eq_next = p + 1 < text.size() && text[p + 1] == '=';
    if (eq_next) {
      std::optional<CompareOp> two;
      switch (c) {
        case '=':
          two = CompareOp::kEq;
          break;
        case '!':
          two = CompareOp::kNe;
          break;
        case '<':
          two = CompareOp::kLe;
          break;
        case '>':
          two = CompareOp::kGe;
          break;
        default:
          break;
      }
      if (two.has_value()) {
        *pos = p;
        *len = 2;
        return *two;
      }
    }
    if (c == '<' || c == '>') {
      *pos = p;
      *len = 1;
      return c == '<' ? CompareOp::kLt : CompareOp::kGt;
    }
  }
  return Status::InvalidArgument("no comparison operator in predicate: '" +
                                 std::string(text) + "'");
}

Result<Predicate> ParsePredicate(std::string_view text, const Schema& schema) {
  size_t op_pos = 0;
  size_t op_len = 0;
  KAMINO_ASSIGN_OR_RETURN(CompareOp op, FindOperator(text, &op_pos, &op_len));
  std::string_view lhs_text = Trim(text.substr(0, op_pos));
  std::string_view rhs_text = Trim(text.substr(op_pos + op_len));

  Predicate pred;
  pred.op = op;
  auto lhs = ParseTupleRef(lhs_text, schema);
  if (!lhs.ok()) {
    return Status::InvalidArgument("predicate lhs must be tN.attr: '" +
                                   std::string(lhs_text) + "'");
  }
  pred.lhs_tuple = lhs.value().first;
  pred.lhs_attr = lhs.value().second;
  const Attribute& lhs_attr = schema.attribute(pred.lhs_attr);

  auto rhs = ParseTupleRef(rhs_text, schema);
  if (rhs.ok()) {
    pred.rhs_is_constant = false;
    pred.rhs_tuple = rhs.value().first;
    pred.rhs_attr = rhs.value().second;
    const Attribute& rhs_attr = schema.attribute(pred.rhs_attr);
    if (lhs_attr.is_categorical() != rhs_attr.is_categorical()) {
      return Status::InvalidArgument(
          "predicate compares categorical with numeric attribute");
    }
    return pred;
  }

  // Constant operand: 'label' for categorical, number for numeric.
  pred.rhs_is_constant = true;
  if (!rhs_text.empty() && rhs_text.front() == '\'') {
    if (rhs_text.size() < 2 || rhs_text.back() != '\'') {
      return Status::InvalidArgument("unterminated label constant");
    }
    if (!lhs_attr.is_categorical()) {
      return Status::InvalidArgument(
          "label constant compared against numeric attribute " +
          lhs_attr.name());
    }
    std::string label(rhs_text.substr(1, rhs_text.size() - 2));
    KAMINO_ASSIGN_OR_RETURN(int32_t idx, lhs_attr.CategoryIndex(label));
    pred.rhs_constant = Value::Categorical(idx);
    return pred;
  }
  if (lhs_attr.is_categorical()) {
    return Status::InvalidArgument(
        "categorical attribute " + lhs_attr.name() +
        " must be compared against a 'label' constant");
  }
  KAMINO_ASSIGN_OR_RETURN(double num, ParseDouble(rhs_text));
  pred.rhs_constant = Value::Numeric(num);
  return pred;
}

}  // namespace

Result<DenialConstraint> DenialConstraint::Parse(const std::string& spec,
                                                 const Schema& schema) {
  std::string_view text = Trim(spec);
  if (!StartsWith(text, "!(") || text.back() != ')') {
    return Status::InvalidArgument("DC must have the form !(P1 & ... & Pm): " +
                                   spec);
  }
  text = text.substr(2, text.size() - 3);
  DenialConstraint dc;
  std::set<size_t> attrs;
  bool mentions_t2 = false;
  for (const std::string& part : SplitPredicates(text)) {
    if (Trim(part).empty()) {
      return Status::InvalidArgument("empty predicate in DC: " + spec);
    }
    KAMINO_ASSIGN_OR_RETURN(Predicate pred, ParsePredicate(part, schema));
    attrs.insert(pred.lhs_attr);
    if (pred.lhs_tuple == 1) mentions_t2 = true;
    if (!pred.rhs_is_constant) {
      attrs.insert(pred.rhs_attr);
      if (pred.rhs_tuple == 1) mentions_t2 = true;
    }
    dc.predicates_.push_back(pred);
  }
  if (dc.predicates_.empty()) {
    return Status::InvalidArgument("DC has no predicates: " + spec);
  }
  dc.is_unary_ = !mentions_t2;
  dc.attributes_.assign(attrs.begin(), attrs.end());
  return dc;
}

DenialConstraintState DenialConstraint::ToState() const {
  DenialConstraintState state;
  state.predicates.reserve(predicates_.size());
  for (const Predicate& p : predicates_) {
    PredicateState ps;
    ps.lhs_tuple = static_cast<uint8_t>(p.lhs_tuple);
    ps.lhs_attr = p.lhs_attr;
    ps.op = static_cast<uint8_t>(p.op);
    ps.rhs_is_constant = p.rhs_is_constant ? 1 : 0;
    ps.rhs_tuple = static_cast<uint8_t>(p.rhs_tuple);
    ps.rhs_attr = p.rhs_attr;
    if (p.rhs_is_constant) {
      if (p.rhs_constant.is_categorical()) {
        ps.constant_is_categorical = 1;
        ps.constant_category = p.rhs_constant.category();
      } else {
        ps.constant_numeric = p.rhs_constant.numeric();
      }
    }
    state.predicates.push_back(ps);
  }
  return state;
}

Result<DenialConstraint> DenialConstraint::FromState(
    const DenialConstraintState& state, const Schema& schema) {
  if (state.predicates.empty()) {
    return Status::InvalidArgument("DC state has no predicates");
  }
  // Mirrors the tail of Parse: predicates are validated one by one, and
  // the derived fields (attribute set, unary flag) are recomputed rather
  // than trusted from the wire.
  DenialConstraint dc;
  std::set<size_t> attrs;
  bool mentions_t2 = false;
  for (const PredicateState& ps : state.predicates) {
    if (ps.lhs_tuple > 1 || ps.rhs_tuple > 1 || ps.rhs_is_constant > 1 ||
        ps.constant_is_categorical > 1) {
      return Status::InvalidArgument("DC state: flag byte out of range");
    }
    if (ps.op > static_cast<uint8_t>(CompareOp::kGe)) {
      return Status::InvalidArgument("DC state: unknown comparison op byte " +
                                     std::to_string(ps.op));
    }
    if (ps.lhs_attr >= schema.size()) {
      return Status::InvalidArgument(
          "DC state: attribute index " + std::to_string(ps.lhs_attr) +
          " out of range for schema arity " + std::to_string(schema.size()));
    }
    Predicate pred;
    pred.lhs_tuple = ps.lhs_tuple;
    pred.lhs_attr = static_cast<size_t>(ps.lhs_attr);
    pred.op = static_cast<CompareOp>(ps.op);
    const Attribute& lhs_attr = schema.attribute(pred.lhs_attr);
    if (ps.rhs_is_constant != 0) {
      pred.rhs_is_constant = true;
      if (ps.constant_is_categorical != 0) {
        if (!lhs_attr.is_categorical()) {
          return Status::InvalidArgument(
              "DC state: label constant compared against numeric attribute " +
              lhs_attr.name());
        }
        if (ps.constant_category < 0 ||
            static_cast<size_t>(ps.constant_category) >=
                lhs_attr.categories().size()) {
          return Status::InvalidArgument(
              "DC state: category constant out of domain of " +
              lhs_attr.name());
        }
        pred.rhs_constant = Value::Categorical(ps.constant_category);
      } else {
        if (lhs_attr.is_categorical()) {
          return Status::InvalidArgument(
              "DC state: numeric constant compared against categorical "
              "attribute " +
              lhs_attr.name());
        }
        pred.rhs_constant = Value::Numeric(ps.constant_numeric);
      }
    } else {
      if (ps.rhs_attr >= schema.size()) {
        return Status::InvalidArgument(
            "DC state: attribute index " + std::to_string(ps.rhs_attr) +
            " out of range for schema arity " + std::to_string(schema.size()));
      }
      pred.rhs_tuple = ps.rhs_tuple;
      pred.rhs_attr = static_cast<size_t>(ps.rhs_attr);
      if (lhs_attr.is_categorical() !=
          schema.attribute(pred.rhs_attr).is_categorical()) {
        return Status::InvalidArgument(
            "DC state: predicate compares categorical with numeric attribute");
      }
    }
    attrs.insert(pred.lhs_attr);
    if (pred.lhs_tuple == 1) mentions_t2 = true;
    if (!pred.rhs_is_constant) {
      attrs.insert(pred.rhs_attr);
      if (pred.rhs_tuple == 1) mentions_t2 = true;
    }
    dc.predicates_.push_back(pred);
  }
  dc.is_unary_ = !mentions_t2;
  dc.attributes_.assign(attrs.begin(), attrs.end());
  return dc;
}

void DenialConstraint::SerializeTo(std::vector<uint8_t>* out) const {
  const DenialConstraintState state = ToState();
  io::AppendU32(out, static_cast<uint32_t>(state.predicates.size()));
  for (const PredicateState& ps : state.predicates) {
    io::AppendU8(out, ps.lhs_tuple);
    io::AppendU64(out, ps.lhs_attr);
    io::AppendU8(out, ps.op);
    io::AppendU8(out, ps.rhs_is_constant);
    if (ps.rhs_is_constant != 0) {
      io::AppendU8(out, ps.constant_is_categorical);
      if (ps.constant_is_categorical != 0) {
        io::AppendU32(out, static_cast<uint32_t>(ps.constant_category));
      } else {
        io::AppendDouble(out, ps.constant_numeric);
      }
    } else {
      io::AppendU8(out, ps.rhs_tuple);
      io::AppendU64(out, ps.rhs_attr);
    }
  }
}

Result<DenialConstraint> DenialConstraint::DeserializeFrom(
    io::ByteReader* in, const Schema& schema) {
  Status truncated = Status::InvalidArgument("DC payload truncated");
  uint32_t count = 0;
  if (!in->ReadU32(&count)) return truncated;
  if (count > in->remaining()) return truncated;
  DenialConstraintState state;
  state.predicates.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PredicateState ps;
    if (!in->ReadU8(&ps.lhs_tuple) || !in->ReadU64(&ps.lhs_attr) ||
        !in->ReadU8(&ps.op) || !in->ReadU8(&ps.rhs_is_constant)) {
      return truncated;
    }
    if (ps.rhs_is_constant == 1) {
      if (!in->ReadU8(&ps.constant_is_categorical)) return truncated;
      if (ps.constant_is_categorical == 1) {
        uint32_t category = 0;
        if (!in->ReadU32(&category)) return truncated;
        ps.constant_category = static_cast<int32_t>(category);
      } else if (ps.constant_is_categorical == 0) {
        if (!in->ReadDouble(&ps.constant_numeric)) return truncated;
      } else {
        return Status::InvalidArgument("DC state: flag byte out of range");
      }
    } else if (ps.rhs_is_constant == 0) {
      if (!in->ReadU8(&ps.rhs_tuple) || !in->ReadU64(&ps.rhs_attr)) {
        return truncated;
      }
    } else {
      return Status::InvalidArgument("DC state: flag byte out of range");
    }
    state.predicates.push_back(ps);
  }
  return FromState(state, schema);
}

bool DenialConstraint::FiresOrdered(const Row& a, const Row& b) const {
  for (const Predicate& p : predicates_) {
    if (!p.Eval(a, b)) return false;
  }
  return true;
}

namespace {

/// Shared predicate-conjunction kernel over two cell accessors — the
/// binding logic mirrors Predicate::Eval exactly (tuple 0 reads from `a`,
/// tuple 1 from `b`) but lets each side come from a Row or straight from
/// the typed columns without materializing the other tuple.
template <typename GetA, typename GetB>
bool FiresOrderedOn(const std::vector<Predicate>& predicates, const GetA& a,
                    const GetB& b) {
  for (const Predicate& p : predicates) {
    const Value lhs = p.lhs_tuple == 0 ? a(p.lhs_attr) : b(p.lhs_attr);
    bool holds;
    if (p.rhs_is_constant) {
      holds = EvalCompare(lhs, p.op, p.rhs_constant);
    } else {
      const Value rhs = p.rhs_tuple == 0 ? a(p.rhs_attr) : b(p.rhs_attr);
      holds = EvalCompare(lhs, p.op, rhs);
    }
    if (!holds) return false;
  }
  return true;
}

}  // namespace

bool DenialConstraint::ViolatesPair(const Row& a, const Row& b) const {
  return FiresOrdered(a, b) || FiresOrdered(b, a);
}

bool DenialConstraint::ViolatesPairAt(const Row& a, const Table& table,
                                      size_t j) const {
  const auto get_a = [&a](size_t attr) { return a[attr]; };
  const auto get_j = [&table, j](size_t attr) { return table.at(j, attr); };
  return FiresOrderedOn(predicates_, get_a, get_j) ||
         FiresOrderedOn(predicates_, get_j, get_a);
}

bool DenialConstraint::ViolatesPairRows(const Table& table, size_t i,
                                        size_t j) const {
  const auto get_i = [&table, i](size_t attr) { return table.at(i, attr); };
  const auto get_j = [&table, j](size_t attr) { return table.at(j, attr); };
  return FiresOrderedOn(predicates_, get_i, get_j) ||
         FiresOrderedOn(predicates_, get_j, get_i);
}

bool DenialConstraint::ViolatesUnary(const Row& a) const {
  return FiresOrdered(a, a);
}

bool DenialConstraint::ViolatesUnaryAt(const Table& table, size_t i) const {
  const auto get = [&table, i](size_t attr) { return table.at(i, attr); };
  return FiresOrderedOn(predicates_, get, get);
}

std::optional<FdSpec> PredicateDecomposition::Fd() const {
  if (shape != Shape::kComposite || !order_residuals.empty() ||
      ne_attrs.size() != 1) {
    return std::nullopt;
  }
  return FdSpec{scope_attrs, ne_attrs[0]};
}

std::optional<GroupedOrderSpec> PredicateDecomposition::GroupedOrder() const {
  if (shape != Shape::kComposite || !ne_attrs.empty() ||
      order_residuals.size() != 2 ||
      order_residuals[0].kind != ResidualKind::kStrictOrder ||
      order_residuals[1].kind != ResidualKind::kStrictOrder) {
    return std::nullopt;
  }
  const OrderResidual& x = order_residuals[0];
  const OrderResidual& y = order_residuals[1];
  return GroupedOrderSpec{scope_attrs, x.attr, y.attr,
                          x.direction != y.direction};
}

bool DenialConstraint::AsFd(std::vector<size_t>* lhs, size_t* rhs) const {
  std::optional<FdSpec> fd = Decompose().Fd();
  if (!fd.has_value()) return false;
  if (lhs != nullptr) *lhs = std::move(fd->lhs);
  if (rhs != nullptr) *rhs = fd->rhs;
  return true;
}

bool DenialConstraint::AsOrderPair(size_t* x_attr, size_t* y_attr) const {
  std::optional<GroupedOrderSpec> spec = AsGroupedOrderSpec();
  if (!spec.has_value() || !spec->group_attrs.empty()) return false;
  if (x_attr != nullptr) *x_attr = spec->x_attr;
  if (y_attr != nullptr) *y_attr = spec->y_attr;
  return true;
}

std::optional<GroupedOrderSpec> DenialConstraint::AsGroupedOrderSpec() const {
  return Decompose().GroupedOrder();
}

PredicateDecomposition DenialConstraint::Decompose() const {
  using Shape = PredicateDecomposition::Shape;
  PredicateDecomposition d;
  if (is_unary_) {
    d.shape = Shape::kUnary;
    return d;
  }
  // Fold every predicate into a per-attribute allowed set for
  // delta = sign(t1.A - t2.A), as a 3-bit mask (bit 0: delta = -1,
  // bit 1: delta = 0, bit 2: delta = +1). Predicates with t2 on the left
  // are mirrored into the t1 orientation first. First-mention order is
  // kept so the decomposition is deterministic.
  std::vector<std::pair<size_t, uint8_t>> per_attr;
  auto slot = [&per_attr](size_t attr) -> uint8_t& {
    for (auto& [a, mask] : per_attr) {
      if (a == attr) return mask;
    }
    per_attr.emplace_back(attr, uint8_t{0b111});
    return per_attr.back().second;
  };
  for (const Predicate& p : predicates_) {
    if (p.rhs_is_constant || p.lhs_attr != p.rhs_attr ||
        p.lhs_tuple == p.rhs_tuple) {
      return d;  // constants / cross-attribute / same-tuple: kGeneral
    }
    const bool t1_lhs = p.lhs_tuple == 0;
    uint8_t mask = 0;
    switch (p.op) {
      case CompareOp::kEq:
        mask = 0b010;
        break;
      case CompareOp::kNe:
        mask = 0b101;
        break;
      case CompareOp::kLt:
        mask = t1_lhs ? 0b001 : 0b100;
        break;
      case CompareOp::kGt:
        mask = t1_lhs ? 0b100 : 0b001;
        break;
      case CompareOp::kLe:
        mask = t1_lhs ? 0b011 : 0b110;
        break;
      case CompareOp::kGe:
        mask = t1_lhs ? 0b110 : 0b011;
        break;
    }
    slot(p.lhs_attr) &= mask;
  }
  std::vector<OrderResidual> orders;
  for (const auto& [attr, mask] : per_attr) {
    switch (mask) {
      case 0b000:  // e.g. == with !=, or opposite strict orders
        d.shape = Shape::kNeverFires;
        return d;
      case 0b010:
        d.scope_attrs.push_back(attr);
        break;
      case 0b101:
        d.ne_attrs.push_back(attr);
        break;
      case 0b100:
        orders.push_back({attr, ResidualKind::kStrictOrder, +1});
        break;
      case 0b001:
        orders.push_back({attr, ResidualKind::kStrictOrder, -1});
        break;
      case 0b110:
        orders.push_back({attr, ResidualKind::kNonStrictOrder, +1});
        break;
      case 0b011:
        orders.push_back({attr, ResidualKind::kNonStrictOrder, -1});
        break;
      default:  // 0b111 cannot occur: the attr was touched by a predicate
        break;
    }
  }
  if (orders.size() == 1) {
    // Symmetric-operator orientation: for an unordered pair, a lone
    // strict order residual holds in some orientation exactly when the
    // values differ (== an inequation), and a lone non-strict residual
    // holds in some orientation always (vacuous): drop it.
    if (orders[0].kind == ResidualKind::kStrictOrder) {
      d.ne_attrs.push_back(orders[0].attr);
    }
    orders.clear();
  }
  if (orders.size() > 2) {
    // >= 3 order-shaped residuals would need multi-dimensional dominance
    // counting; out of the composite class.
    d.scope_attrs.clear();
    d.ne_attrs.clear();
    return d;
  }
  std::sort(d.scope_attrs.begin(), d.scope_attrs.end());
  std::sort(d.ne_attrs.begin(), d.ne_attrs.end());
  if (d.ne_attrs.size() > kMaxInequationResiduals) {
    d.scope_attrs.clear();
    d.ne_attrs.clear();
    return d;
  }
  d.order_residuals = std::move(orders);
  d.shape = Shape::kComposite;
  return d;
}

std::string DenialConstraint::ToString(const Schema& schema) const {
  std::ostringstream os;
  os << "!(";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    const Predicate& p = predicates_[i];
    if (i > 0) os << " & ";
    os << "t" << (p.lhs_tuple + 1) << "."
       << schema.attribute(p.lhs_attr).name() << " " << CompareOpToString(p.op)
       << " ";
    if (p.rhs_is_constant) {
      const Attribute& attr = schema.attribute(p.lhs_attr);
      if (attr.is_categorical()) {
        auto label = attr.CategoryLabel(p.rhs_constant.category());
        os << "'" << (label.ok() ? label.value() : "?") << "'";
      } else {
        os << p.rhs_constant.numeric();
      }
    } else {
      os << "t" << (p.rhs_tuple + 1) << "."
         << schema.attribute(p.rhs_attr).name();
    }
  }
  os << ")";
  return os.str();
}

double WeightedConstraint::EffectiveWeight() const {
  // exp(-40) ~ 4e-18 zeroes out any candidate that introduces a violation
  // while staying finite for numerical safety.
  return hard ? 40.0 : weight;
}

Result<std::vector<WeightedConstraint>> ParseConstraints(
    const std::vector<std::string>& specs, const std::vector<bool>& hardness,
    const Schema& schema) {
  if (specs.size() != hardness.size()) {
    return Status::InvalidArgument("specs/hardness size mismatch");
  }
  std::vector<WeightedConstraint> out;
  out.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    KAMINO_ASSIGN_OR_RETURN(DenialConstraint dc,
                            DenialConstraint::Parse(specs[i], schema));
    WeightedConstraint wc;
    wc.dc = std::move(dc);
    wc.hard = hardness[i];
    wc.weight = hardness[i] ? 40.0 : 1.0;
    out.push_back(std::move(wc));
  }
  return out;
}

}  // namespace kamino
