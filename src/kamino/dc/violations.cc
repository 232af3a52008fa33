#include "kamino/dc/violations.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/dc/grouping.h"
#include "kamino/obs/metrics.h"
#include "kamino/runtime/parallel_for.h"

namespace kamino {
namespace {

/// Bumps `kamino.dc.<what>.<kind>` and records the table size into the
/// matching size histogram when metrics are on. `kind` names the dispatch
/// branch (composite / naive / never for counts; unary / fd / order /
/// composite / naive / never for indices), so the counters expose how
/// often a DC falls back to the quadratic engine.
void RecordDcMetric(const char* what, const char* kind, size_t rows) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!reg.enabled()) return;
  static const std::vector<double> kRowBounds = {100.0, 1000.0, 10000.0,
                                                 100000.0};
  reg.counter(std::string("kamino.dc.") + what + "." + kind)->Increment();
  reg.histogram(std::string("kamino.dc.") + what + ".rows", kRowBounds)
      ->Record(static_cast<double>(rows));
}

/// Counter-only variant for index construction (no table in scope there).
void RecordDcIndexBuilt(const char* kind) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!reg.enabled()) return;
  reg.counter(std::string("kamino.dc.index_built.") + kind)->Increment();
}

/// Rows per ParallelFor chunk for the pair scans. Fixed (not derived from
/// the thread count) so chunk boundaries — and therefore the partial
/// buffers merged below — are identical at any `num_threads`.
constexpr size_t kPairScanGrain = 64;

/// True when the unit attribute list `attrs` sets some attribute of `of`.
bool SetsAnyOf(const std::vector<size_t>& attrs,
               const std::vector<size_t>& of) {
  for (size_t a : attrs) {
    if (std::find(of.begin(), of.end(), a) != of.end()) return true;
  }
  return false;
}

/// Position of `attr` in the unit attribute list `attrs`; attrs.size()
/// when the unit does not set it.
size_t SlotOf(const std::vector<size_t>& attrs, size_t attr) {
  return static_cast<size_t>(std::find(attrs.begin(), attrs.end(), attr) -
                             attrs.begin());
}

/// One attribute's OrderKey sequence as a contiguous double span: numeric
/// columns expose their payload array directly, categorical columns widen
/// their codes once into `scratch`.
const double* OrderKeySpan(const Table& table, size_t attr,
                           std::vector<double>* scratch) {
  const Column& col = table.columns().column(attr);
  if (col.is_numeric()) return col.nums().data();
  scratch->assign(col.codes().begin(), col.codes().end());
  return scratch->data();
}

/// O(1)-per-candidate index for scope-minus-diagonal plans: FD-shaped DCs
/// (`lhs` the equality scope, `rhs` the one inequation).
///
/// Groups live in one of two places. When the LHS is one attribute and a
/// row's value there is a category code in [0, kMaxDenseCode), its group
/// is slot `code` of `dense_`, a table grown to the largest code seen;
/// every other key (several LHS attributes, a numeric LHS, an empty scope)
/// hashes into `groups_`. A value never equals one of the other kind, so
/// the split is exact. `GroupOf` is the one lookup over both.
class FdViolationIndex : public ViolationIndex {
 public:
  FdViolationIndex(std::vector<size_t> lhs, size_t rhs)
      : lhs_(std::move(lhs)), rhs_(rhs) {}

  int64_t CountNew(const Row& row) const override {
    const GroupStats* g = GroupOf(row);
    return g == nullptr ? 0 : g->Mismatching(row[rhs_]);
  }

  /// When the unit is the single LHS attribute alone, each candidate
  /// names its own group: one slot read and one RHS compare per
  /// candidate on a dense LHS. When the unit sets no LHS attribute, every
  /// candidate shares base's group: one lookup serves the whole set, and
  /// each candidate costs one `Mismatching` (none when the unit does not
  /// set the RHS either). Other units take the per-candidate default.
  void CountNewBatch(const Row& base, const std::vector<size_t>& attrs,
                     const Value* values, size_t num_candidates,
                     int64_t* counts) const override {
    if (lhs_.size() == 1 && attrs.size() == 1 && attrs[0] == lhs_[0]) {
      const Value& rhs = base[rhs_];
      for (size_t c = 0; c < num_candidates; ++c) {
        const GroupStats* g = GroupOf(values[c]);
        counts[c] = g == nullptr ? 0 : g->Mismatching(rhs);
      }
      return;
    }
    if (SetsAnyOf(attrs, lhs_)) {
      ViolationIndex::CountNewBatch(base, attrs, values, num_candidates,
                                    counts);
      return;
    }
    const GroupStats* g = GroupOf(base);
    if (g == nullptr) {
      std::fill(counts, counts + num_candidates, int64_t{0});
      return;
    }
    const size_t rhs_slot = SlotOf(attrs, rhs_);
    if (rhs_slot == attrs.size()) {
      std::fill(counts, counts + num_candidates, g->Mismatching(base[rhs_]));
      return;
    }
    for (size_t c = 0; c < num_candidates; ++c) {
      counts[c] = g->Mismatching(values[c * attrs.size() + rhs_slot]);
    }
  }

  void AddRow(const Row& row) override {
    InsertGroup(row).Add(row[rhs_]);
    ++num_rows_;
  }

  void RemoveRow(const Row& row) override {
    GroupStats* g = GroupOf(row);
    KAMINO_CHECK(g != nullptr) << "RemoveRow of a row never added";
    auto same = g->rhs_counts.find(row[rhs_]);
    KAMINO_CHECK(same != g->rhs_counts.end())
        << "RemoveRow of a row never added";
    // Zero counts are erased, so the majority vote of FdForcedValue sees
    // exactly the surviving rows. An emptied dense slot reads as absent
    // (size 0); an emptied hashed group is erased.
    if (--same->second == 0) g->rhs_counts.erase(same);
    g->Settle();
    if (--g->size == 0 && DenseSlotOf(row) == kHashed) {
      groups_.erase(KeyOf(row));
    }
    --num_rows_;
  }

  void Merge(const ViolationIndex& other) override {
    const auto* peer = dynamic_cast<const FdViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "Merge across index types";
    if (dense_.size() < peer->dense_.size()) dense_.resize(peer->dense_.size());
    for (size_t code = 0; code < peer->dense_.size(); ++code) {
      dense_[code].Absorb(peer->dense_[code]);
    }
    for (const auto& [key, stats] : peer->groups_) groups_[key].Absorb(stats);
    num_rows_ += peer->num_rows_;
  }

  int64_t CountAgainst(const ViolationIndex& other) const override {
    const auto* peer = dynamic_cast<const FdViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "CountAgainst across index types";
    // Cross pairs of a shared LHS group violate unless both sides carry the
    // same RHS value: |A| * |B| - sum_v cA(v) * cB(v).
    auto cross = [](const GroupStats& a, const GroupStats& b) {
      int64_t same = 0;
      for (const auto& [value, count] : a.rhs_counts) {
        auto jt = b.rhs_counts.find(value);
        if (jt != b.rhs_counts.end()) same += count * jt->second;
      }
      return a.size * b.size - same;
    };
    int64_t violations = 0;
    const size_t shared = std::min(dense_.size(), peer->dense_.size());
    for (size_t code = 0; code < shared; ++code) {
      violations += cross(dense_[code], peer->dense_[code]);
    }
    for (const auto& [key, stats] : groups_) {
      auto it = peer->groups_.find(key);
      if (it != peer->groups_.end()) violations += cross(stats, it->second);
    }
    return violations;
  }

  std::optional<Value> FdForcedValue(const Row& row) const override {
    const GroupStats* g = GroupOf(row);
    if (g == nullptr) return std::nullopt;
    if (g->rhs_counts.size() == 1) return g->only_rhs;
    // Report the majority RHS value of the group (in a violation-free
    // instance the group has exactly one value). Equal counts tie-break
    // toward the smallest value under the Value ordering — never toward
    // unordered_map iteration order, which differs across standard-library
    // implementations and would make forced-value repair non-portable.
    const auto& counts = g->rhs_counts;
    auto best = counts.begin();
    for (auto jt = counts.begin(); jt != counts.end(); ++jt) {
      if (jt->second > best->second ||
          (jt->second == best->second &&
           EvalCompare(jt->first, CompareOp::kLt, best->first))) {
        best = jt;
      }
    }
    return best->first;
  }

  size_t size() const override { return num_rows_; }

 private:
  /// Category codes below this read dense slots; a larger code hashes
  /// (the table grows to the largest code seen, so this bounds it).
  static constexpr int32_t kMaxDenseCode = int32_t{1} << 16;

  struct GroupStats {
    int64_t size = 0;
    std::unordered_map<Value, int64_t, ValueHash> rhs_counts;
    /// The group's one RHS value while it is pure (`rhs_counts` has one
    /// entry); stale otherwise.
    Value only_rhs;

    /// Re-reads `only_rhs` after `rhs_counts` changed.
    void Settle() {
      if (rhs_counts.size() == 1) only_rhs = rhs_counts.begin()->first;
    }

    void Add(const Value& rhs) {
      ++size;
      ++rhs_counts[rhs];
      Settle();
    }

    void Absorb(const GroupStats& other) {
      if (other.size == 0) return;
      size += other.size;
      for (const auto& [value, count] : other.rhs_counts) {
        rhs_counts[value] += count;
      }
      Settle();
    }

    /// Rows of the group whose RHS differs from `rhs`: the violations a
    /// row of this group with that RHS would add. A pure group answers
    /// with one compare.
    int64_t Mismatching(const Value& rhs) const {
      if (rhs_counts.size() == 1) return rhs == only_rhs ? 0 : size;
      auto same = rhs_counts.find(rhs);
      return size - (same == rhs_counts.end() ? 0 : same->second);
    }
  };

  /// The dense slot of single-attribute LHS value `lhs`, or kHashed when
  /// its group lives in `groups_`.
  static constexpr size_t kHashed = SIZE_MAX;
  static size_t DenseSlot(const Value& lhs) {
    return lhs.is_categorical() && lhs.category() >= 0 &&
                   lhs.category() < kMaxDenseCode
               ? static_cast<size_t>(lhs.category())
               : kHashed;
  }
  size_t DenseSlotOf(const Row& row) const {
    return lhs_.size() == 1 ? DenseSlot(row[lhs_[0]]) : kHashed;
  }

  /// The one group lookup, for a single-attribute LHS keyed by its value
  /// (the batch path reads each candidate this way): the committed group,
  /// or nullptr when it has no row. A dense slot emptied by `RemoveRow`
  /// reads as absent.
  const GroupStats* GroupOf(const Value& lhs) const {
    const size_t slot = DenseSlot(lhs);
    if (slot != kHashed) {
      return slot < dense_.size() && dense_[slot].size > 0 ? &dense_[slot]
                                                           : nullptr;
    }
    FdKey key;
    key.size = 1;
    key.head[0] = lhs;
    auto it = groups_.find(key);
    return it == groups_.end() ? nullptr : &it->second;
  }

  /// The committed group of `row`'s LHS, or nullptr.
  const GroupStats* GroupOf(const Row& row) const {
    if (lhs_.size() == 1) return GroupOf(row[lhs_[0]]);
    auto it = groups_.find(KeyOf(row));
    return it == groups_.end() ? nullptr : &it->second;
  }
  GroupStats* GroupOf(const Row& row) {
    return const_cast<GroupStats*>(std::as_const(*this).GroupOf(row));
  }

  /// The group of `row`'s LHS, inserted empty when absent.
  GroupStats& InsertGroup(const Row& row) {
    const size_t slot = DenseSlotOf(row);
    if (slot == kHashed) return groups_[KeyOf(row)];
    if (slot >= dense_.size()) dense_.resize(slot + 1);
    return dense_[slot];
  }

  FdKey KeyOf(const Row& row) const { return RowKey(row, lhs_); }

  std::vector<size_t> lhs_;
  size_t rhs_;
  size_t num_rows_ = 0;
  std::vector<GroupStats> dense_;  // dense category-code groups
  std::unordered_map<FdKey, GroupStats, FdKeyHash> groups_;  // every other
};

/// Unary DCs need no stored state: a tuple either violates or not.
class UnaryViolationIndex : public ViolationIndex {
 public:
  explicit UnaryViolationIndex(const DenialConstraint& dc) : dc_(dc) {}

  int64_t CountNew(const Row& row) const override {
    return dc_.ViolatesUnary(row) ? 1 : 0;
  }

  void AddRow(const Row& row) override {
    (void)row;
    ++num_rows_;
  }

  void RemoveRow(const Row& row) override {
    (void)row;
    KAMINO_CHECK(num_rows_ > 0) << "RemoveRow of a row never added";
    --num_rows_;
  }

  void Merge(const ViolationIndex& other) override {
    KAMINO_CHECK(dynamic_cast<const UnaryViolationIndex*>(&other) != nullptr)
        << "Merge across index types";
    num_rows_ += other.size();
  }

  int64_t CountAgainst(const ViolationIndex& other) const override {
    (void)other;
    return 0;  // unary DCs have no pairwise violations
  }

  size_t size() const override { return num_rows_; }

 private:
  DenialConstraint dc_;
  size_t num_rows_ = 0;
};

/// Fallback for `kGeneral` binary DCs: stores a copy of every committed
/// row and scores a candidate by testing it against each of them.
class NaiveViolationIndex : public ViolationIndex {
 public:
  explicit NaiveViolationIndex(const DenialConstraint& dc) : dc_(dc) {}

  int64_t CountNew(const Row& row) const override {
    int64_t count = 0;
    for (const Row& old : rows_) {
      if (dc_.ViolatesPair(row, old)) ++count;
    }
    return count;
  }

  void AddRow(const Row& row) override { rows_.push_back(row); }

  void RemoveRow(const Row& row) override {
    const std::vector<size_t>& attrs = dc_.attributes();
    auto it = std::find_if(rows_.begin(), rows_.end(), [&](const Row& old) {
      return std::all_of(attrs.begin(), attrs.end(),
                         [&](size_t a) { return old[a] == row[a]; });
    });
    KAMINO_CHECK(it != rows_.end()) << "RemoveRow of a row never added";
    rows_.erase(it);
  }

  void Merge(const ViolationIndex& other) override {
    const auto* peer = dynamic_cast<const NaiveViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "Merge across index types";
    rows_.insert(rows_.end(), peer->rows_.begin(), peer->rows_.end());
  }

  int64_t CountAgainst(const ViolationIndex& other) const override {
    const auto* peer = dynamic_cast<const NaiveViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "CountAgainst across index types";
    // Each unordered cross pair appears exactly once (one row per side).
    int64_t count = 0;
    for (const Row& a : rows_) {
      for (const Row& b : peer->rows_) {
        if (dc_.ViolatesPair(a, b)) ++count;
      }
    }
    return count;
  }

  size_t size() const override { return rows_.size(); }

 private:
  DenialConstraint dc_;
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------------------
// Sorted order-DC engine.
//
// An order term of the composite plan (a `GroupedOrderSpec`) partitions
// the instance into equality groups, and within a group an unordered pair
// violates exactly when it is a strict *inversion* between the context
// axis X and the oriented dependent axis Y' (GroupedOrderSpec::OrientedKey
// folds the co- and anti-monotone forms into one geometry; ties on either
// axis never violate). Everything below counts inversions with rank
// queries instead of pair enumeration.
// ---------------------------------------------------------------------------

/// Fenwick (binary indexed) tree counting points by rank.
class Fenwick {
 public:
  explicit Fenwick(size_t num_ranks) : tree_(num_ranks + 1, 0) {}

  void Add(size_t rank) {
    for (size_t i = rank + 1; i < tree_.size(); i += i & (~i + 1)) {
      ++tree_[i];
    }
    ++total_;
  }

  /// Number of added points with rank < `rank`.
  int64_t CountBelowRank(size_t rank) const {
    int64_t sum = 0;
    for (size_t i = rank; i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }

  int64_t total() const { return total_; }

 private:
  std::vector<int64_t> tree_;
  int64_t total_ = 0;
};

/// Rank of `key` in the sorted-unique universe `keys` (lower bound).
size_t RankOf(const std::vector<double>& keys, double key) {
  return static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
}

/// Added points with key strictly above `key`.
int64_t CountAbove(const Fenwick& bit, const std::vector<double>& keys,
                   double key) {
  const size_t upper = static_cast<size_t>(
      std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
  return bit.total() - bit.CountBelowRank(upper);
}

/// One row of a grouped order DC, reduced to its two sort keys.
struct OrderPoint {
  double x = 0.0;  // context key
  double y = 0.0;  // oriented dependent key
  size_t row = 0;  // source row (used by the matrix column pass)
};

bool OrderPointByX(const OrderPoint& a, const OrderPoint& b) {
  return a.x < b.x;
}

/// Sorted-unique oriented-y universe of a point set.
std::vector<double> YUniverse(const std::vector<OrderPoint>& points) {
  std::vector<double> keys;
  keys.reserve(points.size());
  for (const OrderPoint& p : points) keys.push_back(p.y);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Partitions `table` into the spec's equality groups, each an x-sorted
/// point vector. Grouping runs on `GroupIds` and the sort keys come
/// straight from the typed x/y arrays; group order in the result is
/// first-occurrence (consumers only sum per-group counts, so the order is
/// immaterial).
std::vector<std::vector<OrderPoint>> GroupOrderPoints(
    const GroupedOrderSpec& spec, const Table& table) {
  const size_t n = table.num_rows();
  size_t num_groups = 0;
  const std::vector<uint32_t> gid =
      GroupIds(table, spec.group_attrs, &num_groups);
  std::vector<double> x_scratch, y_scratch;
  const double* xs = OrderKeySpan(table, spec.x_attr, &x_scratch);
  const double* ys = OrderKeySpan(table, spec.y_attr, &y_scratch);
  std::vector<size_t> sizes(num_groups, 0);
  for (size_t i = 0; i < n; ++i) ++sizes[gid[i]];
  std::vector<std::vector<OrderPoint>> groups(num_groups);
  for (size_t g = 0; g < num_groups; ++g) groups[g].reserve(sizes[g]);
  for (size_t i = 0; i < n; ++i) {
    const double oriented = spec.co_monotone ? ys[i] : -ys[i];
    groups[gid[i]].push_back({xs[i], oriented, i});
  }
  for (auto& points : groups) {
    std::sort(points.begin(), points.end(), OrderPointByX);
  }
  return groups;
}

/// The one Fenwick sweep every order count is built from: walk an
/// x-sorted group in ascending x, and for each point emit the number of
/// already-seen points (strictly smaller x — equal-x batches insert after
/// querying, so x ties never count) with strictly larger oriented y.
/// `keys` is the group's sorted-unique y universe.
template <typename Emit>
void AscendingInversionSweep(const std::vector<OrderPoint>& points,
                             const std::vector<double>& keys,
                             const Emit& emit) {
  Fenwick bit(keys.size());
  for (size_t i = 0; i < points.size();) {
    size_t j = i;
    while (j < points.size() && points[j].x == points[i].x) ++j;
    for (size_t k = i; k < j; ++k) {
      emit(points[k], CountAbove(bit, keys, points[k].y));
    }
    for (size_t k = i; k < j; ++k) bit.Add(RankOf(keys, points[k].y));
    i = j;
  }
}

/// Count evaluator of an order term: strict inversions within every
/// group, each violating pair counted exactly once, at its larger-x
/// member. O(n log n).
int64_t OrderInversions(const GroupedOrderSpec& spec, const Table& table) {
  int64_t count = 0;
  for (const auto& points : GroupOrderPoints(spec, table)) {
    AscendingInversionSweep(points, YUniverse(points),
                            [&](const OrderPoint&, int64_t c) { count += c; });
  }
  return count;
}

/// Column evaluator of an order term: adds `sign` times each row's
/// inversion count into `column`, two Fenwick passes per group —
/// ascending x counts each row's partners with smaller x and larger y',
/// descending x counts partners with larger x and smaller y'. Exact
/// integers, so the column is bit-identical to the pair scan.
void AddOrderColumn(const GroupedOrderSpec& spec, const Table& table,
                    int sign, std::vector<int64_t>* column) {
  for (const auto& points : GroupOrderPoints(spec, table)) {
    const std::vector<double> keys = YUniverse(points);
    auto into_column = [&](const OrderPoint& p, int64_t count) {
      (*column)[p.row] += sign * count;
    };
    // Pass 1 (ascending x): partners with x_j < x_i and y_j > y_i.
    AscendingInversionSweep(points, keys, into_column);
    // Pass 2: partners with x_j > x_i and y_j < y_i — the same sweep on
    // the point-reflected group (both axes negated, order reversed so the
    // reflection is x-sorted again; "seen with larger -y" = smaller y).
    std::vector<OrderPoint> reflected(points.rbegin(), points.rend());
    for (OrderPoint& p : reflected) {
      p.x = -p.x;
      p.y = -p.y;
    }
    std::vector<double> reflected_keys(keys.rbegin(), keys.rend());
    for (double& k : reflected_keys) k = -k;
    AscendingInversionSweep(reflected, reflected_keys, into_column);
  }
}

/// Incremental index for (equality-scoped) order DCs, replacing the
/// O(prefix) pair probe of NaiveViolationIndex for this DC class.
///
/// Per equality group the committed rows live in an x-sorted list of
/// blocks of ~2*sqrt(m) rows, each block carrying its oriented-y values
/// both in x order and sorted. A block's x bounds are its first and last
/// x; consecutive blocks' bounds never overlap except at a shared x, so a
/// run of equal x may span several blocks.
///
/// `CountNew` resolves whole blocks strictly left/right of the
/// candidate's x with one binary search each (the rows above/below the
/// candidate's y), and scans only the <= 2 blocks the candidate's x falls
/// into — O(sqrt(m) * log) per candidate instead of O(m).
///
/// `CountNewBatch` looks the group up once per candidate set when the
/// unit sets no group attribute (decided from the unit's attribute list
/// alone), so every candidate shares base's group. When the unit sets x
/// but not y, the set is scored in one walk: the walk prefix-sums each
/// block's rows above/below y once and copies the block bounds into
/// contiguous arrays; each candidate is then two binary searches over the
/// bounds (the blocks wholly left of x, the blocks wholly right of x) plus
/// a count inside the first and last block of the straddle range — the
/// blocks between are all x ties. A straddled block is counted once per
/// set: its first straddle prefix-sums the block's rows above/below y in x
/// order, and every straddle of it is then two binary searches over its
/// xs. The walk's scratch lives on the stack, so the query stays
/// read-only and allocates nothing. Units that set y or not x, groups of
/// <= 2 blocks and groups past the walk's stack bound count each candidate
/// in the one group; units that set a group attribute take the default
/// per-candidate `CountNew`.
///
/// `RemoveRow` erases the entry from its block in O(cap) and drops
/// emptied blocks and groups. `Merge` rebuilds each group from the two
/// x-sorted sequences in linear-log time, and `CountAgainst` runs a merged
/// ascending-x sweep with one Fenwick tree per side, O((m_a + m_b) log)
/// per group. All counts are exact integers: the index is
/// output-indistinguishable from the naive probe.
class OrderViolationIndex : public ViolationIndex {
 public:
  explicit OrderViolationIndex(GroupedOrderSpec spec)
      : spec_(std::move(spec)) {}

  int64_t CountNew(const Row& row) const override {
    auto it = groups_.find(KeyOf(row));
    if (it == groups_.end()) return 0;
    return it->second.Count(spec_.ContextKey(row[spec_.x_attr]),
                            spec_.OrientedKey(row[spec_.y_attr]));
  }

  void CountNewBatch(const Row& base, const std::vector<size_t>& attrs,
                     const Value* values, size_t num_candidates,
                     int64_t* counts) const override {
    if (SetsAnyOf(attrs, spec_.group_attrs)) {
      ViolationIndex::CountNewBatch(base, attrs, values, num_candidates,
                                    counts);
      return;
    }
    // Every candidate keeps base's group key: one lookup serves the set.
    auto it = groups_.find(KeyOf(base));
    if (it == groups_.end()) {
      std::fill(counts, counts + num_candidates, int64_t{0});
      return;
    }
    const Group& g = it->second;
    const size_t width = attrs.size();
    const size_t x_slot = SlotOf(attrs, spec_.x_attr);
    const size_t y_slot = SlotOf(attrs, spec_.y_attr);
    auto key_of = [&](size_t c, size_t slot, size_t attr) -> const Value& {
      return slot == width ? base[attr] : values[c * width + slot];
    };
    auto x_of = [&](size_t c) {
      return spec_.ContextKey(key_of(c, x_slot, spec_.x_attr));
    };
    auto y_of = [&](size_t c) {
      return spec_.OrientedKey(key_of(c, y_slot, spec_.y_attr));
    };
    if (x_slot == width || y_slot != width || g.blocks.size() <= 2 ||
        g.blocks.size() > kMaxWalkBlocks) {
      for (size_t c = 0; c < num_candidates; ++c) {
        counts[c] = g.Count(x_of(c), y_of(c));
      }
      return;
    }
    // Only x varies: y_of reads base alone.
    g.CountWalk(y_of(0), num_candidates, x_of, counts);
  }

  void AddRow(const Row& row) override {
    groups_[KeyOf(row)].Insert(spec_.ContextKey(row[spec_.x_attr]),
                               spec_.OrientedKey(row[spec_.y_attr]));
    ++num_rows_;
  }

  void RemoveRow(const Row& row) override {
    auto it = groups_.find(KeyOf(row));
    const bool erased =
        it != groups_.end() &&
        it->second.Erase(spec_.ContextKey(row[spec_.x_attr]),
                         spec_.OrientedKey(row[spec_.y_attr]));
    KAMINO_CHECK(erased) << "RemoveRow of a row never added";
    if (it->second.size == 0) groups_.erase(it);
    --num_rows_;
  }

  void Merge(const ViolationIndex& other) override {
    const auto* peer = dynamic_cast<const OrderViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "Merge across index types";
    for (const auto& [key, group] : peer->groups_) {
      Group& mine = groups_[key];
      mine = Group::MergeSorted(mine, group);
    }
    num_rows_ += peer->num_rows_;
  }

  int64_t CountAgainst(const ViolationIndex& other) const override {
    const auto* peer = dynamic_cast<const OrderViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "CountAgainst across index types";
    int64_t count = 0;
    for (const auto& [key, group] : groups_) {
      auto it = peer->groups_.find(key);
      if (it == peer->groups_.end()) continue;
      count += CrossInversions(group, it->second);
    }
    return count;
  }

  size_t size() const override { return num_rows_; }

 private:
  /// One x-sorted run of committed rows: xs ascending, ys aligned with xs,
  /// ys_sorted an independently sorted copy for the rank queries.
  struct Block {
    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<double> ys_sorted;
  };

  /// Stack bound of `Group::CountWalk`'s per-block arrays; larger groups
  /// (hundreds of thousands of rows) take the per-candidate loop.
  static constexpr size_t kMaxWalkBlocks = 512;
  /// Stack bound of `Group::CountWalk`'s straddle prefix counts, in rows
  /// (plus one slot per block): the straddled blocks of one set usually
  /// fit many times over; a block that no longer fits is scanned per
  /// straddle instead.
  static constexpr size_t kWalkPrefixSlots = 4096;

  /// The block list of one equality group, globally sorted by x.
  struct Group {
    std::vector<Block> blocks;
    size_t size = 0;

    /// Block capacity ~2*sqrt(m) (power of two, floor 64): queries touch
    /// O(m / cap) blocks plus O(cap) straddled rows, balanced at sqrt.
    static size_t BlockCap(size_t m) {
      size_t cap = 64;
      while (cap * cap < 4 * m) cap *= 2;
      return cap;
    }

    /// Committed rows violating against a row at (x, y): those with
    /// smaller x and larger y, plus those with larger x and smaller y.
    int64_t Count(double x, double y) const {
      int64_t count = 0;
      for (const Block& b : blocks) {
        if (b.xs.back() < x) {
          // Entirely left of the candidate in x: its rows with larger
          // oriented y are inversions.
          count += b.ys_sorted.end() -
                   std::upper_bound(b.ys_sorted.begin(), b.ys_sorted.end(), y);
        } else if (b.xs.front() > x) {
          count += std::lower_bound(b.ys_sorted.begin(), b.ys_sorted.end(),
                                    y) -
                   b.ys_sorted.begin();
        } else if (b.xs.front() != x || b.xs.back() != x) {
          // A block straddling the candidate's x (at most two per query;
          // blocks of x ties never violate a strict order predicate).
          count += StraddleCount(b, x, y);
        }
      }
      return count;
    }

    /// The positions [lo, hi) of the rows of a block whose x equals `x`.
    static std::pair<size_t, size_t> XRun(const Block& b, double x) {
      const size_t lo = static_cast<size_t>(
          std::lower_bound(b.xs.begin(), b.xs.end(), x) - b.xs.begin());
      const size_t hi = static_cast<size_t>(
          std::upper_bound(b.xs.begin() + lo, b.xs.end(), x) - b.xs.begin());
      return {lo, hi};
    }

    /// Rows of a block holding x that violate against (x, y): the rows
    /// before the x run with larger y plus the rows after it with smaller
    /// y. Zero for a block of x ties.
    static int64_t StraddleCount(const Block& b, double x, double y) {
      const auto [lo, hi] = XRun(b, x);
      int64_t count = 0;
      for (size_t k = 0; k < lo; ++k) count += b.ys[k] > y;
      for (size_t k = hi; k < b.ys.size(); ++k) count += b.ys[k] < y;
      return count;
    }

    /// `Count(x_of(c), y)` into `counts[c]` for every candidate c, in one
    /// walk over the blocks (see the class comment). Needs
    /// blocks.size() <= kMaxWalkBlocks.
    template <typename XOf>
    void CountWalk(double y, size_t num_candidates, const XOf& x_of,
                   int64_t* counts) const {
      const size_t nb = blocks.size();
      double fronts[kMaxWalkBlocks];
      double backs[kMaxWalkBlocks];
      // Rows above / below y in the blocks before b.
      int64_t above_before[kMaxWalkBlocks + 1];
      int64_t below_before[kMaxWalkBlocks + 1];
      // Where block b's straddle prefixes start in the slot buffers, or
      // kUntouched before its first straddle.
      constexpr uint32_t kUntouched = 0xffffffffu;
      uint32_t prefix_at[kMaxWalkBlocks];
      above_before[0] = below_before[0] = 0;
      for (size_t b = 0; b < nb; ++b) {
        const Block& blk = blocks[b];
        fronts[b] = blk.xs.front();
        backs[b] = blk.xs.back();
        prefix_at[b] = kUntouched;
        const auto& ys = blk.ys_sorted;
        above_before[b + 1] =
            above_before[b] +
            (ys.end() - std::upper_bound(ys.begin(), ys.end(), y));
        below_before[b + 1] =
            below_before[b] +
            (std::lower_bound(ys.begin(), ys.end(), y) - ys.begin());
      }
      // Straddle prefix counts: slot k of a block's run holds its rows
      // before x-position k with y' > y (`above`) and y' < y (`below`).
      uint32_t above[kWalkPrefixSlots];
      uint32_t below[kWalkPrefixSlots];
      size_t used = 0;
      // `StraddleCount(blocks[b], x, y)`, each block prefix-summed once on
      // its first straddle; past the slot budget it scans as is.
      auto straddle = [&](size_t b, double x) -> int64_t {
        const Block& blk = blocks[b];
        const size_t rows = blk.xs.size();
        if (prefix_at[b] == kUntouched) {
          if (used + rows + 1 > kWalkPrefixSlots) {
            return StraddleCount(blk, x, y);
          }
          prefix_at[b] = static_cast<uint32_t>(used);
          uint32_t* a = above + used;
          uint32_t* l = below + used;
          a[0] = l[0] = 0;
          for (size_t k = 0; k < rows; ++k) {
            a[k + 1] = a[k] + (blk.ys[k] > y);
            l[k + 1] = l[k] + (blk.ys[k] < y);
          }
          used += rows + 1;
        }
        const auto [lo, hi] = XRun(blk, x);
        const uint32_t* a = above + prefix_at[b];
        const uint32_t* l = below + prefix_at[b];
        return int64_t{a[lo]} + (int64_t{l[rows]} - int64_t{l[hi]});
      };
      for (size_t c = 0; c < num_candidates; ++c) {
        const double x = x_of(c);
        // Blocks [0, left) lie wholly left of x, [right, nb) wholly right.
        const size_t left = static_cast<size_t>(
            std::lower_bound(backs, backs + nb, x) - backs);
        const size_t right = static_cast<size_t>(
            std::upper_bound(fronts, fronts + nb, x) - fronts);
        int64_t count = above_before[left] +
                        (below_before[nb] - below_before[right]);
        // Blocks [left, right) hold x; only the first and the last can
        // straddle it (the ones between are all x ties).
        if (left < right) {
          count += straddle(left, x);
          if (right - 1 > left) count += straddle(right - 1, x);
        }
        counts[c] = count;
      }
    }

    void Insert(double x, double y) {
      ++size;
      if (blocks.empty()) {
        blocks.push_back(Block{{x}, {y}, {y}});
        return;
      }
      // The last block starting at or before x (the first block when x
      // precedes them all).
      auto it = std::upper_bound(
          blocks.begin(), blocks.end(), x,
          [](double v, const Block& b) { return v < b.xs.front(); });
      const size_t idx =
          it == blocks.begin()
              ? 0
              : static_cast<size_t>(it - blocks.begin()) - 1;
      Block& b = blocks[idx];
      const size_t pos = static_cast<size_t>(
          std::upper_bound(b.xs.begin(), b.xs.end(), x) - b.xs.begin());
      b.xs.insert(b.xs.begin() + pos, x);
      b.ys.insert(b.ys.begin() + pos, y);
      b.ys_sorted.insert(
          std::upper_bound(b.ys_sorted.begin(), b.ys_sorted.end(), y), y);
      if (b.xs.size() > BlockCap(size)) Split(idx);
    }

    /// Erases one (x, y) entry; false when there is none. A run of equal
    /// x can span several blocks, so every block whose x range covers x
    /// is searched. An emptied block is dropped.
    bool Erase(double x, double y) {
      auto it = std::lower_bound(
          blocks.begin(), blocks.end(), x,
          [](const Block& b, double v) { return b.xs.back() < v; });
      for (; it != blocks.end() && it->xs.front() <= x; ++it) {
        Block& b = *it;
        for (size_t k = static_cast<size_t>(
                 std::lower_bound(b.xs.begin(), b.xs.end(), x) -
                 b.xs.begin());
             k < b.xs.size() && b.xs[k] == x; ++k) {
          if (b.ys[k] != y) continue;
          b.xs.erase(b.xs.begin() + k);
          b.ys.erase(b.ys.begin() + k);
          b.ys_sorted.erase(
              std::lower_bound(b.ys_sorted.begin(), b.ys_sorted.end(), y));
          if (b.xs.empty()) blocks.erase(it);
          --size;
          return true;
        }
      }
      return false;
    }

    void Split(size_t idx) {
      Block& left = blocks[idx];
      const size_t half = left.xs.size() / 2;
      Block right;
      right.xs.assign(left.xs.begin() + half, left.xs.end());
      right.ys.assign(left.ys.begin() + half, left.ys.end());
      left.xs.resize(half);
      left.ys.resize(half);
      right.ys_sorted = right.ys;
      std::sort(right.ys_sorted.begin(), right.ys_sorted.end());
      left.ys_sorted = left.ys;
      std::sort(left.ys_sorted.begin(), left.ys_sorted.end());
      blocks.insert(blocks.begin() + idx + 1, std::move(right));
    }

    /// Flattens the blocks back into one x-ascending (x, y) sequence.
    void Flatten(std::vector<double>* xs, std::vector<double>* ys) const {
      xs->reserve(size);
      ys->reserve(size);
      for (const Block& b : blocks) {
        xs->insert(xs->end(), b.xs.begin(), b.xs.end());
        ys->insert(ys->end(), b.ys.begin(), b.ys.end());
      }
    }

    /// Rebuilds a group from two groups' x-sorted sequences (linear merge,
    /// then even re-blocking at the merged size's capacity).
    static Group MergeSorted(const Group& a, const Group& b) {
      std::vector<double> ax, ay, bx, by;
      a.Flatten(&ax, &ay);
      b.Flatten(&bx, &by);
      Group out;
      out.size = a.size + b.size;
      const size_t chunk = BlockCap(out.size) / 2;
      size_t i = 0, j = 0;
      Block current;
      auto flush = [&] {
        if (current.xs.empty()) return;
        current.ys_sorted = current.ys;
        std::sort(current.ys_sorted.begin(), current.ys_sorted.end());
        out.blocks.push_back(std::move(current));
        current = Block();
      };
      while (i < ax.size() || j < bx.size()) {
        const bool take_a = j >= bx.size() || (i < ax.size() && ax[i] <= bx[j]);
        current.xs.push_back(take_a ? ax[i] : bx[j]);
        current.ys.push_back(take_a ? ay[i] : by[j]);
        take_a ? ++i : ++j;
        if (current.xs.size() >= chunk) flush();
      }
      flush();
      return out;
    }
  };

  /// Cross inversions between two groups of the same key: one merged
  /// ascending-x sweep; each side queries the *other* side's already-seen
  /// rows, so every cross pair with strictly different x is counted
  /// exactly once (at its larger-x member) and equal-x batches insert
  /// after querying.
  static int64_t CrossInversions(const Group& a, const Group& b) {
    std::vector<double> ax, ay, bx, by;
    a.Flatten(&ax, &ay);
    b.Flatten(&bx, &by);
    std::vector<double> keys;
    keys.reserve(ay.size() + by.size());
    keys.insert(keys.end(), ay.begin(), ay.end());
    keys.insert(keys.end(), by.begin(), by.end());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    Fenwick seen_a(keys.size());
    Fenwick seen_b(keys.size());
    int64_t count = 0;
    size_t i = 0, j = 0;
    while (i < ax.size() || j < bx.size()) {
      const double x = (j >= bx.size() || (i < ax.size() && ax[i] <= bx[j]))
                           ? ax[i]
                           : bx[j];
      const size_t i0 = i, j0 = j;
      for (; i < ax.size() && ax[i] == x; ++i) {
        count += CountAbove(seen_b, keys, ay[i]);
      }
      for (; j < bx.size() && bx[j] == x; ++j) {
        count += CountAbove(seen_a, keys, by[j]);
      }
      for (size_t k = i0; k < i; ++k) seen_a.Add(RankOf(keys, ay[k]));
      for (size_t k = j0; k < j; ++k) seen_b.Add(RankOf(keys, by[k]));
    }
    return count;
  }

  FdKey KeyOf(const Row& row) const {
    return RowKey(row, spec_.group_attrs);
  }

  GroupedOrderSpec spec_;
  size_t num_rows_ = 0;
  std::unordered_map<FdKey, Group, FdKeyHash> groups_;
};

// ---------------------------------------------------------------------------
// Composite engine for decomposed binary DCs.
//
// `DenialConstraint::Decompose` reduces a DC to (equality scope) x
// (inequation residuals + at most one order residual pair). The engine
// expands that into a *signed term plan*: inclusion–exclusion over the
// inequation subsets ("equality minus diagonal") turns every count into a
// signed sum of two primitive block kinds — hash-group counts of pairs
// agreeing on a key, and strict-inversion counts within key groups (the
// GroupedOrderSpec geometry above). All blocks are exact integer counters,
// so every composite count is bit-identical to the naive pair scan.
//
// The plan is the only shape switch of this file: `CountViolations` sums
// signed per-term counts, `BuildViolationMatrix` signed per-term columns,
// and `MakeViolationIndex` picks the FD index for the decomposition's FD
// view (a scope-minus-diagonal plan), the order index for its
// grouped-order view (a single order term), and the composite index
// otherwise. Each term kind has one count evaluator (`TermCount`), one
// column evaluator (`PlanViolationColumn`) and one index block.
// ---------------------------------------------------------------------------

/// One signed term of the composite plan: a scope block (pairs agreeing
/// on `key_attrs`) or an order block (strict inversions in the
/// `order.group_attrs` groups).
struct CompositeTerm {
  int sign = 1;
  bool is_order = false;
  std::vector<size_t> key_attrs;  // scope-block key (is_order == false)
  GroupedOrderSpec order;         // order-block geometry (is_order == true)
};

/// Expands a `kComposite` decomposition into its signed term plan.
///
/// Within an equality-scope group, write delta_A = sign of (first row's A
/// minus second row's A) for a pair bound in a fixed orientation. The
/// pair violates when some orientation sign s in {+1, -1} satisfies every
/// residual: every inequation attr has delta != 0, and every order
/// residual with direction d has delta = s*d (strict) or delta in
/// {0, s*d} (non-strict). Inequations are eliminated first by
/// inclusion–exclusion over the subsets S of `ne_attrs`, each term
/// extending the scope key by S with sign (-1)^|S|. The remaining order
/// geometry has three cases (with r = d_x * d_y the direction product):
///  - two strict: violation iff delta_y = r * delta_x != 0 — the pair
///    strictly co-moves (r = +1) or strictly anti-moves (r = -1): one
///    order block with co_monotone = (r == -1).
///  - strict x + non-strict y: s is forced by x, so violation iff
///    delta_x != 0 and (delta_y = 0 or delta_y = r * delta_x):
///    agree(key + y) - agree(key + x + y) plus one order block with
///    co_monotone = (r == -1).
///  - two non-strict: some orientation works unless both deltas are
///    nonzero with delta_y = -r * delta_x: agree(key) minus one order
///    block with co_monotone = (r == +1).
std::vector<CompositeTerm> CompositeTermPlan(const PredicateDecomposition& d) {
  std::vector<CompositeTerm> plan;
  auto key_with = [&d](size_t mask, std::initializer_list<size_t> extra) {
    std::vector<size_t> key = d.scope_attrs;
    for (size_t i = 0; i < d.ne_attrs.size(); ++i) {
      if ((mask >> i) & 1) key.push_back(d.ne_attrs[i]);
    }
    key.insert(key.end(), extra);
    std::sort(key.begin(), key.end());
    return key;
  };
  auto scope_term = [&plan](int sign, std::vector<size_t> key) {
    CompositeTerm t;
    t.sign = sign;
    t.key_attrs = std::move(key);
    plan.push_back(std::move(t));
  };
  auto order_term = [&plan](int sign, std::vector<size_t> key, size_t x,
                            size_t y, bool co_monotone) {
    CompositeTerm t;
    t.sign = sign;
    t.is_order = true;
    t.order.group_attrs = std::move(key);
    t.order.x_attr = x;
    t.order.y_attr = y;
    t.order.co_monotone = co_monotone;
    plan.push_back(std::move(t));
  };
  const size_t subsets = size_t{1} << d.ne_attrs.size();
  for (size_t mask = 0; mask < subsets; ++mask) {
    int bits = 0;
    for (size_t i = 0; i < d.ne_attrs.size(); ++i) bits += (mask >> i) & 1;
    const int sign = bits % 2 == 0 ? 1 : -1;
    if (d.order_residuals.empty()) {
      scope_term(sign, key_with(mask, {}));
      continue;
    }
    const OrderResidual& o0 = d.order_residuals[0];
    const OrderResidual& o1 = d.order_residuals[1];
    const int r = o0.direction * o1.direction;
    const bool strict0 = o0.kind == ResidualKind::kStrictOrder;
    const bool strict1 = o1.kind == ResidualKind::kStrictOrder;
    if (strict0 && strict1) {
      order_term(sign, key_with(mask, {}), o0.attr, o1.attr, r == -1);
    } else if (!strict0 && !strict1) {
      scope_term(sign, key_with(mask, {}));
      order_term(-sign, key_with(mask, {}), o0.attr, o1.attr, r == 1);
    } else {
      const OrderResidual& hard = strict0 ? o0 : o1;
      const OrderResidual& soft = strict0 ? o1 : o0;
      scope_term(sign, key_with(mask, {soft.attr}));
      scope_term(-sign, key_with(mask, {hard.attr, soft.attr}));
      order_term(sign, key_with(mask, {}), hard.attr, soft.attr, r == -1);
    }
  }
  return plan;
}

/// Hash-group block of the composite engine: `CountNew` is the number of
/// committed rows agreeing with the probe on `key_attrs` (the whole
/// prefix for an empty key), `CountAgainst` the cross pairs sharing a
/// key.
class ScopeCountIndex : public ViolationIndex {
 public:
  explicit ScopeCountIndex(std::vector<size_t> key_attrs)
      : key_attrs_(std::move(key_attrs)) {}

  int64_t CountNew(const Row& row) const override {
    auto it = counts_.find(KeyOf(row));
    return it == counts_.end() ? 0 : it->second;
  }

  void AddRow(const Row& row) override {
    ++counts_[KeyOf(row)];
    ++num_rows_;
  }

  void RemoveRow(const Row& row) override {
    auto it = counts_.find(KeyOf(row));
    KAMINO_CHECK(it != counts_.end()) << "RemoveRow of a row never added";
    if (--it->second == 0) counts_.erase(it);
    --num_rows_;
  }

  void Merge(const ViolationIndex& other) override {
    const auto* peer = dynamic_cast<const ScopeCountIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "Merge across index types";
    for (const auto& [key, count] : peer->counts_) counts_[key] += count;
    num_rows_ += peer->num_rows_;
  }

  int64_t CountAgainst(const ViolationIndex& other) const override {
    const auto* peer = dynamic_cast<const ScopeCountIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "CountAgainst across index types";
    int64_t count = 0;
    for (const auto& [key, mine] : counts_) {
      auto it = peer->counts_.find(key);
      if (it != peer->counts_.end()) count += mine * it->second;
    }
    return count;
  }

  size_t size() const override { return num_rows_; }

 private:
  FdKey KeyOf(const Row& row) const { return RowKey(row, key_attrs_); }

  std::vector<size_t> key_attrs_;
  size_t num_rows_ = 0;
  std::unordered_map<FdKey, int64_t, FdKeyHash> counts_;
};

/// Index for DCs whose decomposed conjunction is unsatisfiable
/// (Shape::kNeverFires): nothing ever violates, only the row count is
/// tracked.
class NeverViolationIndex : public ViolationIndex {
 public:
  int64_t CountNew(const Row& row) const override {
    (void)row;
    return 0;
  }

  void AddRow(const Row& row) override {
    (void)row;
    ++num_rows_;
  }

  void RemoveRow(const Row& row) override {
    (void)row;
    KAMINO_CHECK(num_rows_ > 0) << "RemoveRow of a row never added";
    --num_rows_;
  }

  void Merge(const ViolationIndex& other) override {
    KAMINO_CHECK(dynamic_cast<const NeverViolationIndex*>(&other) != nullptr)
        << "Merge across index types";
    num_rows_ += other.size();
  }

  int64_t CountAgainst(const ViolationIndex& other) const override {
    (void)other;
    return 0;
  }

  size_t size() const override { return num_rows_; }

 private:
  size_t num_rows_ = 0;
};

/// Incremental index for composite (mixed-shape) binary DCs: the signed
/// sum of scope/order blocks per the inclusion–exclusion term plan.
/// `CountNew`/`CountAgainst` sum the blocks' counts with their signs —
/// individual terms may over-count, but the signed total is exactly the
/// unordered violating-pair count, bit-identical to the naive probe —
/// and `AddRow`/`Merge` feed every block.
class CompositeViolationIndex : public ViolationIndex {
 public:
  explicit CompositeViolationIndex(std::vector<CompositeTerm> plan) {
    for (CompositeTerm& t : plan) {
      signs_.push_back(t.sign);
      if (t.is_order) {
        blocks_.push_back(
            std::make_unique<OrderViolationIndex>(std::move(t.order)));
      } else {
        blocks_.push_back(
            std::make_unique<ScopeCountIndex>(std::move(t.key_attrs)));
      }
    }
  }

  int64_t CountNew(const Row& row) const override {
    int64_t count = 0;
    for (size_t i = 0; i < blocks_.size(); ++i) {
      count += signs_[i] * blocks_[i]->CountNew(row);
    }
    return count;
  }

  /// Forwards the batch to every block (the order blocks walk once per
  /// set), a stack-sized chunk of candidates at a time.
  void CountNewBatch(const Row& base, const std::vector<size_t>& attrs,
                     const Value* values, size_t num_candidates,
                     int64_t* counts) const override {
    constexpr size_t kChunk = 256;
    int64_t part[kChunk];
    for (size_t lo = 0; lo < num_candidates; lo += kChunk) {
      const size_t m = std::min(kChunk, num_candidates - lo);
      std::fill(counts + lo, counts + lo + m, int64_t{0});
      for (size_t i = 0; i < blocks_.size(); ++i) {
        blocks_[i]->CountNewBatch(base, attrs, values + lo * attrs.size(), m,
                                  part);
        for (size_t c = 0; c < m; ++c) counts[lo + c] += signs_[i] * part[c];
      }
    }
  }

  void AddRow(const Row& row) override {
    for (auto& block : blocks_) block->AddRow(row);
    ++num_rows_;
  }

  void RemoveRow(const Row& row) override {
    for (auto& block : blocks_) block->RemoveRow(row);
    --num_rows_;
  }

  void Merge(const ViolationIndex& other) override {
    const auto* peer = dynamic_cast<const CompositeViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "Merge across index types";
    KAMINO_CHECK(peer->blocks_.size() == blocks_.size())
        << "Merge across different composite plans";
    for (size_t i = 0; i < blocks_.size(); ++i) {
      blocks_[i]->Merge(*peer->blocks_[i]);
    }
    num_rows_ += peer->num_rows_;
  }

  int64_t CountAgainst(const ViolationIndex& other) const override {
    const auto* peer = dynamic_cast<const CompositeViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "CountAgainst across index types";
    KAMINO_CHECK(peer->blocks_.size() == blocks_.size())
        << "CountAgainst across different composite plans";
    int64_t count = 0;
    for (size_t i = 0; i < blocks_.size(); ++i) {
      count += signs_[i] * blocks_[i]->CountAgainst(*peer->blocks_[i]);
    }
    return count;
  }

  size_t size() const override { return num_rows_; }

 private:
  std::vector<int> signs_;
  std::vector<std::unique_ptr<ViolationIndex>> blocks_;
  size_t num_rows_ = 0;
};

/// Count evaluator of one plan term: pairs agreeing on the scope key (all
/// pairs for an empty key), or the order term's strict inversions.
int64_t TermCount(const CompositeTerm& t, const Table& table) {
  if (t.is_order) return OrderInversions(t.order, table);
  size_t num_groups = 0;
  const std::vector<uint32_t> gid = GroupIds(table, t.key_attrs, &num_groups);
  std::vector<int64_t> group_size(num_groups, 0);
  for (uint32_t g : gid) ++group_size[g];
  int64_t pairs = 0;
  for (int64_t g : group_size) pairs += PairsOf(g);
  return pairs;
}

/// Per-row violation counts of a plan (its DC's column of the violation
/// matrix): the signed sum of per-term columns — group size minus one
/// (the row itself) for scope terms, the two-pass Fenwick sweep for order
/// terms. Exact integers throughout.
std::vector<int64_t> PlanViolationColumn(const std::vector<CompositeTerm>& plan,
                                         const Table& table) {
  const size_t n = table.num_rows();
  std::vector<int64_t> column(n, 0);
  for (const CompositeTerm& t : plan) {
    if (t.is_order) {
      AddOrderColumn(t.order, table, t.sign, &column);
      continue;
    }
    size_t num_groups = 0;
    const std::vector<uint32_t> gid =
        GroupIds(table, t.key_attrs, &num_groups);
    std::vector<int64_t> group_size(num_groups, 0);
    for (uint32_t g : gid) ++group_size[g];
    for (size_t i = 0; i < n; ++i) {
      column[i] += t.sign * (group_size[gid[i]] - 1);
    }
  }
  return column;
}

}  // namespace

void ViolationIndex::CountNewBatch(const Row& base,
                                   const std::vector<size_t>& attrs,
                                   const Value* values, size_t num_candidates,
                                   int64_t* counts) const {
  Row scratch = base;
  for (size_t c = 0; c < num_candidates; ++c) {
    const Value* candidate = values + c * attrs.size();
    for (size_t i = 0; i < attrs.size(); ++i) scratch[attrs[i]] = candidate[i];
    counts[c] = CountNew(scratch);
  }
}

int64_t PairsOf(int64_t m) {
  if (m < 2) return 0;
  // Halve the even factor before multiplying: m * (m - 1) would overflow
  // int64 from m ~ 3.04e9 even though the pair count still fits.
  KAMINO_CHECK(m <= (int64_t{1} << 32))
      << "pair count exceeds int64; use PairsOfDouble";
  return (m % 2 == 0) ? (m / 2) * (m - 1) : m * ((m - 1) / 2);
}

double PairsOfDouble(int64_t m) {
  if (m < 2) return 0.0;
  // Deliberately double: exact until the count passes 2^53 (m > ~1.3e8),
  // approximate but overflow-free beyond.
  return 0.5 * static_cast<double>(m) * static_cast<double>(m - 1);
}

int64_t CountViolationsNaive(const DenialConstraint& dc, const Table& table) {
  const size_t n = table.num_rows();
  if (dc.is_unary()) {
    int64_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      if (dc.ViolatesUnaryAt(table, i)) ++count;
    }
    return count;
  }
  // Chunk the outer row of the i < j pair scan; per-chunk counts merge
  // exactly (integer sums), so the total is thread-count independent.
  const size_t num_chunks = n == 0 ? 0 : (n + kPairScanGrain - 1) / kPairScanGrain;
  std::vector<int64_t> partial(num_chunks, 0);
  runtime::ParallelForEach(0, num_chunks, 1, [&](size_t k) {
    const size_t lo = k * kPairScanGrain;
    const size_t hi = std::min(n, lo + kPairScanGrain);
    int64_t count = 0;
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (dc.ViolatesPairRows(table, i, j)) ++count;
      }
    }
    partial[k] = count;
  });
  int64_t total = 0;
  for (int64_t c : partial) total += c;
  return total;
}

int64_t CountViolations(const DenialConstraint& dc, const Table& table) {
  const size_t n = table.num_rows();
  const PredicateDecomposition decomp = dc.Decompose();
  using Shape = PredicateDecomposition::Shape;
  if (decomp.shape == Shape::kNeverFires) {
    RecordDcMetric("count", "never", n);
    return 0;
  }
  if (decomp.shape != Shape::kComposite) {
    RecordDcMetric("count", "naive", n);
    return CountViolationsNaive(dc, table);
  }
  RecordDcMetric("count", "composite", n);
  int64_t total = 0;
  for (const CompositeTerm& t : CompositeTermPlan(decomp)) {
    total += t.sign * TermCount(t, table);
  }
  return total;
}

double ViolationRatePercent(const DenialConstraint& dc, const Table& table) {
  const int64_t n = static_cast<int64_t>(table.num_rows());
  if (n == 0) return 0.0;
  const int64_t violations = CountViolations(dc, table);
  const double denom =
      dc.is_unary() ? static_cast<double>(n) : PairsOfDouble(n);
  if (denom <= 0) return 0.0;
  return 100.0 * static_cast<double>(violations) / denom;
}

int64_t CountNewViolations(const DenialConstraint& dc, const Row& row,
                           const Table& table, size_t prefix_len) {
  if (dc.is_unary()) return dc.ViolatesUnary(row) ? 1 : 0;
  KAMINO_CHECK(prefix_len <= table.num_rows());
  int64_t count = 0;
  for (size_t j = 0; j < prefix_len; ++j) {
    if (dc.ViolatesPairAt(row, table, j)) ++count;
  }
  return count;
}

std::vector<std::vector<double>> BuildViolationMatrix(
    const Table& table, const std::vector<WeightedConstraint>& constraints) {
  const size_t n = table.num_rows();
  std::vector<std::vector<double>> matrix(
      n, std::vector<double>(constraints.size(), 0.0));
  for (size_t l = 0; l < constraints.size(); ++l) {
    const DenialConstraint& dc = constraints[l].dc;
    if (dc.is_unary()) {
      runtime::ParallelForEach(0, n, kPairScanGrain, [&](size_t i) {
        matrix[i][l] = dc.ViolatesUnaryAt(table, i) ? 1.0 : 0.0;
      });
      continue;
    }
    const PredicateDecomposition decomp = dc.Decompose();
    if (decomp.shape == PredicateDecomposition::Shape::kNeverFires) {
      continue;  // the conjunction is unsatisfiable: the column is zero
    }
    if (decomp.shape == PredicateDecomposition::Shape::kComposite) {
      const std::vector<int64_t> column =
          PlanViolationColumn(CompositeTermPlan(decomp), table);
      runtime::ParallelForEach(0, n, kPairScanGrain, [&](size_t i) {
        matrix[i][l] = static_cast<double>(column[i]);
      });
      continue;
    }
    // Each chunk of outer rows scans its i < j pairs into a private column
    // so rows i and j of a violating pair never race, then folds it into
    // the matrix under a lock and frees it — live memory stays bounded by
    // the executor count, not the chunk count. The fold adds exact
    // integers (commutative in doubles), so the matrix is bit-identical
    // at any thread count and merge order. (Chunks shrink in cost as i
    // grows; the grain keeps them numerous enough for the pool to
    // balance.)
    const size_t num_chunks =
        n == 0 ? 0 : (n + kPairScanGrain - 1) / kPairScanGrain;
    std::mutex merge_mu;
    runtime::ParallelForEach(0, num_chunks, 1, [&](size_t k) {
      const size_t lo = k * kPairScanGrain;
      const size_t hi = std::min(n, lo + kPairScanGrain);
      std::vector<double> column(n, 0.0);
      for (size_t i = lo; i < hi; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          if (dc.ViolatesPairRows(table, i, j)) {
            column[i] += 1.0;
            column[j] += 1.0;
          }
        }
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      for (size_t i = 0; i < n; ++i) {
        if (column[i] != 0.0) matrix[i][l] += column[i];
      }
    });
  }
  return matrix;
}

std::unique_ptr<ViolationIndex> MakeViolationIndex(
    const DenialConstraint& dc) {
  if (dc.is_unary()) {
    RecordDcIndexBuilt("unary");
    return std::make_unique<UnaryViolationIndex>(dc);
  }
  const PredicateDecomposition decomp = dc.Decompose();
  using Shape = PredicateDecomposition::Shape;
  if (decomp.shape == Shape::kNeverFires) {
    RecordDcIndexBuilt("never");
    return std::make_unique<NeverViolationIndex>();
  }
  if (decomp.shape != Shape::kComposite) {
    RecordDcIndexBuilt("naive");
    return std::make_unique<NaiveViolationIndex>(dc);
  }
  // The index follows the decomposition's views, the same ones the
  // sampler's exact passes read. The FD view is scope minus diagonal (the
  // FD group index computes exactly this count and also answers
  // `FdForcedValue`); the grouped-order view is the plan's one `+order`
  // block.
  if (std::optional<FdSpec> fd = decomp.Fd()) {
    RecordDcIndexBuilt("fd");
    return std::make_unique<FdViolationIndex>(std::move(fd->lhs), fd->rhs);
  }
  if (std::optional<GroupedOrderSpec> order = decomp.GroupedOrder()) {
    RecordDcIndexBuilt("order");
    return std::make_unique<OrderViolationIndex>(std::move(*order));
  }
  RecordDcIndexBuilt("composite");
  return std::make_unique<CompositeViolationIndex>(CompositeTermPlan(decomp));
}

std::unique_ptr<ViolationIndex> MakeNaiveViolationIndex(
    const DenialConstraint& dc) {
  KAMINO_CHECK(!dc.is_unary()) << "naive index is for binary DCs";
  return std::make_unique<NaiveViolationIndex>(dc);
}

}  // namespace kamino
