#include "kamino/dc/violations.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/obs/metrics.h"
#include "kamino/runtime/parallel_for.h"

namespace kamino {
namespace {

/// Bumps `kamino.dc.<what>.<kind>` and records the table size into the
/// matching size histogram when metrics are on. `kind` names the dispatch
/// branch (fd / order / composite / naive / ...), so the counters expose
/// how often each specialized engine actually fires.
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

/// Hash key for the left-hand-side attribute values of an FD group.
struct FdKey {
  std::vector<Value> values;

  bool operator==(const FdKey& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!(values[i] == other.values[i])) return false;
    }
    return true;
  }
};

struct FdKeyHash {
  size_t operator()(const FdKey& k) const {
    size_t h = 1469598103934665603ull;
    ValueHash vh;
    for (const Value& v : k.values) {
      h ^= vh(v);
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Projects `row` onto `attrs` as a hashable group key — the one key
/// construction every grouped index and count in this file shares.
FdKey RowKey(const Row& row, const std::vector<size_t>& attrs) {
  FdKey key;
  key.values.reserve(attrs.size());
  for (size_t a : attrs) key.values.push_back(row[a]);
  return key;
}

// ---------------------------------------------------------------------------
// Packed equality keys over the typed columns.
//
// The whole-table grouped counts below (FD violations, scoped pairs,
// composite scope terms, order-DC grouping) used to project each row into
// a vector<Value> key and hash-group those. The columnar core makes the
// key a flat sequence of u64 words read straight from the typed arrays:
// dictionary codes widen to u64 and numeric cells contribute their bit
// pattern, so word equality coincides with Value equality (-0.0 is
// canonicalized to +0.0 first, the one bit-pattern split inside a Value
// equivalence class). NaN breaks the correspondence the other way
// (NaN != NaN as a Value, but its bit pattern equals itself), so `Build`
// refuses key columns containing NaN and callers fall back to the boxed
// RowKey path.
// ---------------------------------------------------------------------------

/// Row-major packed key words: row i's key is `words_per_row()`
/// consecutive u64s, one per key attribute.
class PackedKeyColumns {
 public:
  static std::optional<PackedKeyColumns> Build(
      const Table& table, const std::vector<size_t>& attrs) {
    PackedKeyColumns out;
    const size_t n = table.num_rows();
    const size_t k = attrs.size();
    out.num_rows_ = n;
    out.words_per_row_ = k;
    out.words_.resize(n * k);
    for (size_t slot = 0; slot < k; ++slot) {
      const Column& col = table.columns().column(attrs[slot]);
      uint64_t* dst = out.words_.data() + slot;
      if (col.is_categorical()) {
        const int32_t* codes = col.codes().data();
        for (size_t i = 0; i < n; ++i, dst += k) {
          *dst = static_cast<uint64_t>(static_cast<int64_t>(codes[i]));
        }
      } else {
        const double* nums = col.nums().data();
        for (size_t i = 0; i < n; ++i, dst += k) {
          const double v = nums[i];
          if (v != v) return std::nullopt;  // NaN: word != Value equality
          const double canonical = v == 0.0 ? 0.0 : v;  // fold -0.0 in
          uint64_t bits;
          std::memcpy(&bits, &canonical, sizeof(bits));
          *dst = bits;
        }
      }
    }
    return out;
  }

  size_t num_rows() const { return num_rows_; }
  size_t words_per_row() const { return words_per_row_; }
  const uint64_t* row(size_t i) const {
    return words_.data() + i * words_per_row_;
  }

 private:
  size_t num_rows_ = 0;
  size_t words_per_row_ = 0;
  std::vector<uint64_t> words_;
};

/// Dense group ids (first-occurrence order) for every row: linear-probing
/// insert-or-find over the packed words, the columnar replacement for
/// `unordered_map<FdKey, ...>` grouping. An empty key (no attributes) puts
/// every row in group 0, matching the single empty RowKey.
std::vector<uint32_t> PackedGroupIds(const PackedKeyColumns& keys,
                                     size_t* num_groups) {
  const size_t n = keys.num_rows();
  const size_t k = keys.words_per_row();
  std::vector<uint32_t> gid(n, 0);
  if (k == 0) {
    *num_groups = n == 0 ? 0 : 1;
    return gid;
  }
  size_t cap = 16;
  while (cap < 2 * n) cap *= 2;
  const size_t mask = cap - 1;
  constexpr uint32_t kEmpty = 0xffffffffu;
  std::vector<uint32_t> slot_group(cap, kEmpty);
  std::vector<uint32_t> reps;  // representative row of each group
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* w = keys.row(i);
    // FNV-1a over the key words, with a final fold so power-of-two
    // masking sees high-entropy low bits.
    uint64_t h = 1469598103934665603ull;
    for (size_t t = 0; t < k; ++t) {
      h ^= w[t];
      h *= 1099511628211ull;
    }
    h ^= h >> 32;
    size_t slot = static_cast<size_t>(h) & mask;
    while (true) {
      const uint32_t g = slot_group[slot];
      if (g == kEmpty) {
        gid[i] = static_cast<uint32_t>(reps.size());
        slot_group[slot] = gid[i];
        reps.push_back(static_cast<uint32_t>(i));
        break;
      }
      const uint64_t* rep = keys.row(reps[g]);
      bool equal = true;
      for (size_t t = 0; t < k; ++t) {
        if (rep[t] != w[t]) {
          equal = false;
          break;
        }
      }
      if (equal) {
        gid[i] = g;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  *num_groups = reps.size();
  return gid;
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

/// Boxed-key fallback of `CountFdViolations` for key columns with NaN.
int64_t CountFdViolationsRowKeyed(const std::vector<size_t>& lhs, size_t rhs,
                                  const Table& table) {
  std::unordered_map<FdKey, std::unordered_map<Value, int64_t, ValueHash>,
                     FdKeyHash>
      groups;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const Row& row = table.row(i);
    ++groups[RowKey(row, lhs)][row[rhs]];
  }
  int64_t violations = 0;
  for (const auto& [key, rhs_counts] : groups) {
    int64_t group_size = 0;
    int64_t same = 0;
    for (const auto& [value, count] : rhs_counts) {
      group_size += count;
      same += PairsOf(count);
    }
    violations += PairsOf(group_size) - same;
  }
  return violations;
}

/// Counts violating unordered pairs of an FD-shaped DC by grouping: within
/// an LHS group of size g whose RHS value multiplicities are c_v, the
/// violating pairs are C(g,2) - sum_v C(c_v,2). Grouping runs on packed
/// column words; (LHS, RHS) multiplicities are just a second grouping on
/// the key extended by the RHS attribute.
int64_t CountFdViolations(const std::vector<size_t>& lhs, size_t rhs,
                          const Table& table) {
  std::optional<PackedKeyColumns> lhs_keys =
      PackedKeyColumns::Build(table, lhs);
  std::vector<size_t> both = lhs;
  both.push_back(rhs);
  std::optional<PackedKeyColumns> both_keys =
      PackedKeyColumns::Build(table, both);
  if (!lhs_keys.has_value() || !both_keys.has_value()) {
    return CountFdViolationsRowKeyed(lhs, rhs, table);
  }
  size_t num_groups = 0;
  size_t num_cells = 0;
  const std::vector<uint32_t> gid = PackedGroupIds(*lhs_keys, &num_groups);
  const std::vector<uint32_t> cid = PackedGroupIds(*both_keys, &num_cells);
  std::vector<int64_t> group_size(num_groups, 0);
  std::vector<int64_t> cell_size(num_cells, 0);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    ++group_size[gid[i]];
    ++cell_size[cid[i]];
  }
  int64_t violations = 0;
  for (int64_t g : group_size) violations += PairsOf(g);
  for (int64_t c : cell_size) violations -= PairsOf(c);
  return violations;
}

/// O(1)-per-candidate index for FD-shaped DCs.
class FdViolationIndex : public ViolationIndex {
 public:
  FdViolationIndex(std::vector<size_t> lhs, size_t rhs)
      : lhs_(std::move(lhs)), rhs_(rhs) {}

  int64_t CountNew(const Row& row) const override {
    auto it = groups_.find(KeyOf(row));
    if (it == groups_.end()) return 0;
    const GroupStats& g = it->second;
    auto same = g.rhs_counts.find(row[rhs_]);
    int64_t matching = same == g.rhs_counts.end() ? 0 : same->second;
    return g.size - matching;
  }

  void AddRow(const Row& row) override {
    GroupStats& g = groups_[KeyOf(row)];
    ++g.size;
    ++g.rhs_counts[row[rhs_]];
    ++num_rows_;
  }

  void RemoveRow(const Row& row) override {
    auto it = groups_.find(KeyOf(row));
    KAMINO_CHECK(it != groups_.end()) << "RemoveRow of a row never added";
    GroupStats& g = it->second;
    auto same = g.rhs_counts.find(row[rhs_]);
    KAMINO_CHECK(same != g.rhs_counts.end())
        << "RemoveRow of a row never added";
    // Zero counts and empty groups are erased, so the majority vote of
    // FdForcedValue sees exactly the surviving rows.
    if (--same->second == 0) g.rhs_counts.erase(same);
    if (--g.size == 0) groups_.erase(it);
    --num_rows_;
  }

  void Merge(const ViolationIndex& other) override {
    const auto* peer = dynamic_cast<const FdViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "Merge across index types";
    for (const auto& [key, stats] : peer->groups_) {
      GroupStats& g = groups_[key];
      g.size += stats.size;
      for (const auto& [value, count] : stats.rhs_counts) {
        g.rhs_counts[value] += count;
      }
    }
    num_rows_ += peer->num_rows_;
  }

  int64_t CountAgainst(const ViolationIndex& other) const override {
    const auto* peer = dynamic_cast<const FdViolationIndex*>(&other);
    KAMINO_CHECK(peer != nullptr) << "CountAgainst across index types";
    // Cross pairs of a shared LHS group violate unless both sides carry the
    // same RHS value: |A| * |B| - sum_v cA(v) * cB(v).
    int64_t violations = 0;
    for (const auto& [key, stats] : groups_) {
      auto it = peer->groups_.find(key);
      if (it == peer->groups_.end()) continue;
      int64_t same = 0;
      for (const auto& [value, count] : stats.rhs_counts) {
        auto jt = it->second.rhs_counts.find(value);
        if (jt != it->second.rhs_counts.end()) same += count * jt->second;
      }
      violations += stats.size * it->second.size - same;
    }
    return violations;
  }

  std::optional<Value> FdForcedValue(const Row& row) const override {
    auto it = groups_.find(KeyOf(row));
    if (it == groups_.end() || it->second.rhs_counts.empty()) {
      return std::nullopt;
    }
    // Report the majority RHS value of the group (in a violation-free
    // instance the group has exactly one value). Equal counts tie-break
    // toward the smallest value under the Value ordering — never toward
    // unordered_map iteration order, which differs across standard-library
    // implementations and would make forced-value repair non-portable.
    const auto& counts = it->second.rhs_counts;
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
  struct GroupStats {
    int64_t size = 0;
    std::unordered_map<Value, int64_t, ValueHash> rhs_counts;
  };

  FdKey KeyOf(const Row& row) const { return RowKey(row, lhs_); }

  std::vector<size_t> lhs_;
  size_t rhs_;
  size_t num_rows_ = 0;
  std::unordered_map<FdKey, GroupStats, FdKeyHash> groups_;
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

/// Fallback for general binary DCs: scans every committed row. The scan
/// only materializes the attributes mentioned by the DC to keep the rows
/// compact is unnecessary here since rows are shared; we store copies.
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
// A DC matching `AsGroupedOrderPair` partitions the instance into equality
// groups, and within a group an unordered pair violates exactly when it is
// a strict *inversion* between the context axis X and the oriented
// dependent axis Y' (GroupedOrderSpec::OrientedKey folds the co- and
// anti-monotone forms into one geometry; ties on either axis never
// violate). Everything below counts inversions with rank queries instead
// of pair enumeration.
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

/// Boxed-key fallback of `GroupOrderPoints` for group columns with NaN.
std::vector<std::vector<OrderPoint>> GroupOrderPointsRowKeyed(
    const GroupedOrderSpec& spec, const Table& table) {
  std::unordered_map<FdKey, std::vector<OrderPoint>, FdKeyHash> by_group;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const Row& row = table.row(i);
    by_group[RowKey(row, spec.group_attrs)].push_back(
        {spec.ContextKey(row[spec.x_attr]), spec.OrientedKey(row[spec.y_attr]),
         i});
  }
  std::vector<std::vector<OrderPoint>> groups;
  groups.reserve(by_group.size());
  for (auto& [key, points] : by_group) {
    std::sort(points.begin(), points.end(), OrderPointByX);
    groups.push_back(std::move(points));
  }
  return groups;
}

/// Partitions `table` into the DC's equality groups, each an x-sorted
/// point vector. Grouping runs on packed column words and the sort keys
/// come straight from the typed x/y arrays; group order in the result is
/// first-occurrence (consumers only sum per-group counts, so the order is
/// immaterial).
std::vector<std::vector<OrderPoint>> GroupOrderPoints(
    const GroupedOrderSpec& spec, const Table& table) {
  std::optional<PackedKeyColumns> keys =
      PackedKeyColumns::Build(table, spec.group_attrs);
  if (!keys.has_value()) return GroupOrderPointsRowKeyed(spec, table);
  const size_t n = table.num_rows();
  size_t num_groups = 0;
  const std::vector<uint32_t> gid = PackedGroupIds(*keys, &num_groups);
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

/// Inversions within one x-sorted group: every violating pair is counted
/// exactly once, at its larger-x member.
int64_t GroupInversions(const std::vector<OrderPoint>& points) {
  int64_t count = 0;
  AscendingInversionSweep(points, YUniverse(points),
                          [&](const OrderPoint&, int64_t c) { count += c; });
  return count;
}

/// O(n log n) violation count of a grouped order DC over a table.
int64_t CountOrderViolations(const GroupedOrderSpec& spec,
                             const Table& table) {
  int64_t count = 0;
  for (const auto& points : GroupOrderPoints(spec, table)) {
    count += GroupInversions(points);
  }
  return count;
}

/// Per-row inversion counts of a grouped order DC (the DC's column of the
/// violation matrix): two Fenwick passes per group — ascending x counts
/// each row's partners with smaller x and larger y', descending x counts
/// partners with larger x and smaller y'. Exact
/// integers, so the column is bit-identical to the pair scan.
void OrderViolationColumn(const GroupedOrderSpec& spec, const Table& table,
                          std::vector<int64_t>* column) {
  column->assign(table.num_rows(), 0);
  for (const auto& points : GroupOrderPoints(spec, table)) {
    const std::vector<double> keys = YUniverse(points);
    auto into_column = [&](const OrderPoint& p, int64_t count) {
      (*column)[p.row] += count;
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
/// both in x order and sorted. `CountNew` resolves whole blocks strictly
/// left/right of the candidate's x with one binary search each (the rows
/// above/below the candidate's y), and scans only the <= 2 blocks the
/// candidate's x falls into — O(sqrt(m) * log) per candidate instead of
/// O(m). `RemoveRow` erases the entry from its block in O(cap) and drops
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
    const double x = spec_.ContextKey(row[spec_.x_attr]);
    const double y = spec_.OrientedKey(row[spec_.y_attr]);
    int64_t count = 0;
    for (const Block& b : it->second.blocks) {
      if (b.xs.back() < x) {
        // Entirely left of the candidate in x: its rows with larger
        // oriented y are inversions.
        count += b.ys_sorted.end() -
                 std::upper_bound(b.ys_sorted.begin(), b.ys_sorted.end(), y);
      } else if (b.xs.front() > x) {
        count += std::lower_bound(b.ys_sorted.begin(), b.ys_sorted.end(), y) -
                 b.ys_sorted.begin();
      } else if (b.xs.front() == x && b.xs.back() == x) {
        // x ties never violate a strict order predicate.
      } else {
        // A block straddling the candidate's x (at most two per query):
        // test its rows individually.
        for (size_t k = 0; k < b.xs.size(); ++k) {
          if ((b.xs[k] < x && b.ys[k] > y) || (b.xs[k] > x && b.ys[k] < y)) {
            ++count;
          }
        }
      }
    }
    return count;
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
  explicit CompositeViolationIndex(const PredicateDecomposition& d) {
    for (CompositeTerm& t : CompositeTermPlan(d)) {
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

/// Pairs agreeing on `key_attrs` (all pairs for an empty key): the
/// offline form of a scope block. Grouping runs on packed column words,
/// falling back to boxed keys when a key column holds NaN.
int64_t CountScopedPairs(const std::vector<size_t>& key_attrs,
                         const Table& table) {
  std::optional<PackedKeyColumns> keys =
      PackedKeyColumns::Build(table, key_attrs);
  if (keys.has_value()) {
    size_t num_groups = 0;
    const std::vector<uint32_t> gid = PackedGroupIds(*keys, &num_groups);
    std::vector<int64_t> group_size(num_groups, 0);
    for (uint32_t g : gid) ++group_size[g];
    int64_t pairs = 0;
    for (int64_t g : group_size) pairs += PairsOf(g);
    return pairs;
  }
  std::unordered_map<FdKey, int64_t, FdKeyHash> counts;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    ++counts[RowKey(table.row(i), key_attrs)];
  }
  int64_t pairs = 0;
  for (const auto& [key, count] : counts) pairs += PairsOf(count);
  return pairs;
}

/// O(2^k * n log n) full violation count of a composite DC.
int64_t CountCompositeViolations(const PredicateDecomposition& d,
                                 const Table& table) {
  int64_t total = 0;
  for (const CompositeTerm& t : CompositeTermPlan(d)) {
    total += t.sign * (t.is_order ? CountOrderViolations(t.order, table)
                                  : CountScopedPairs(t.key_attrs, table));
  }
  return total;
}

/// Per-row violation counts of a composite DC (its column of the
/// violation matrix): signed per-term columns — group size minus one
/// (the row itself) for scope terms, the two-pass Fenwick sweep for
/// order terms. Exact integers throughout.
void CompositeViolationColumn(const PredicateDecomposition& d,
                              const Table& table,
                              std::vector<int64_t>* column) {
  const size_t n = table.num_rows();
  column->assign(n, 0);
  std::vector<int64_t> term_column;
  for (const CompositeTerm& t : CompositeTermPlan(d)) {
    if (t.is_order) {
      OrderViolationColumn(t.order, table, &term_column);
      for (size_t i = 0; i < n; ++i) {
        (*column)[i] += t.sign * term_column[i];
      }
      continue;
    }
    // Scope term: each row contributes its group size minus itself.
    std::optional<PackedKeyColumns> keys =
        PackedKeyColumns::Build(table, t.key_attrs);
    if (keys.has_value()) {
      size_t num_groups = 0;
      const std::vector<uint32_t> gid = PackedGroupIds(*keys, &num_groups);
      std::vector<int64_t> group_size(num_groups, 0);
      for (uint32_t g : gid) ++group_size[g];
      for (size_t i = 0; i < n; ++i) {
        (*column)[i] += t.sign * (group_size[gid[i]] - 1);
      }
      continue;
    }
    std::unordered_map<FdKey, int64_t, FdKeyHash> counts;
    for (size_t i = 0; i < n; ++i) ++counts[RowKey(table.row(i), t.key_attrs)];
    for (size_t i = 0; i < n; ++i) {
      (*column)[i] += t.sign * (counts[RowKey(table.row(i), t.key_attrs)] - 1);
    }
  }
}

}  // namespace

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
  std::vector<size_t> lhs;
  size_t rhs = 0;
  if (dc.AsFd(&lhs, &rhs)) {
    RecordDcMetric("count", "fd", n);
    return CountFdViolations(lhs, rhs, table);
  }
  std::optional<GroupedOrderSpec> order = dc.AsGroupedOrderSpec();
  if (order.has_value()) {
    RecordDcMetric("count", "order", n);
    return CountOrderViolations(*order, table);
  }
  const PredicateDecomposition decomp = dc.Decompose();
  if (decomp.shape == PredicateDecomposition::Shape::kNeverFires) {
    RecordDcMetric("count", "never", n);
    return 0;
  }
  if (decomp.shape == PredicateDecomposition::Shape::kComposite) {
    RecordDcMetric("count", "composite", n);
    return CountCompositeViolations(decomp, table);
  }
  RecordDcMetric("count", "naive", n);
  return CountViolationsNaive(dc, table);
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
    std::vector<size_t> fd_lhs;
    size_t fd_rhs = 0;
    if (dc.AsFd(&fd_lhs, &fd_rhs)) {
      // Equality-only (FD-shaped) DC: hash-partition instead of the O(n^2)
      // pair scan. Each row's violation count is |LHS group| - |same
      // (LHS, RHS)| — the committed row cancels itself out of both terms.
      // Both groupings run on packed column words (see PackedKeyColumns);
      // exact integer counts, so the column matches the pair scan bit for
      // bit. NaN in a key column falls back to the boxed FD index.
      std::optional<PackedKeyColumns> lhs_keys =
          PackedKeyColumns::Build(table, fd_lhs);
      std::vector<size_t> both = fd_lhs;
      both.push_back(fd_rhs);
      std::optional<PackedKeyColumns> both_keys =
          PackedKeyColumns::Build(table, both);
      if (lhs_keys.has_value() && both_keys.has_value()) {
        size_t num_groups = 0;
        size_t num_cells = 0;
        const std::vector<uint32_t> gid =
            PackedGroupIds(*lhs_keys, &num_groups);
        const std::vector<uint32_t> cid =
            PackedGroupIds(*both_keys, &num_cells);
        std::vector<int64_t> group_size(num_groups, 0);
        std::vector<int64_t> cell_size(num_cells, 0);
        for (size_t i = 0; i < n; ++i) {
          ++group_size[gid[i]];
          ++cell_size[cid[i]];
        }
        runtime::ParallelForEach(0, n, kPairScanGrain, [&](size_t i) {
          matrix[i][l] =
              static_cast<double>(group_size[gid[i]] - cell_size[cid[i]]);
        });
        continue;
      }
      FdViolationIndex groups(fd_lhs, fd_rhs);
      for (size_t i = 0; i < n; ++i) groups.AddRow(table.row(i));
      runtime::ParallelForEach(0, n, kPairScanGrain, [&](size_t i) {
        matrix[i][l] = static_cast<double>(groups.CountNew(table.row(i)));
      });
      continue;
    }
    std::optional<GroupedOrderSpec> order_spec = dc.AsGroupedOrderSpec();
    if (order_spec.has_value()) {
      // (Equality-scoped) order DC: sorted scan instead of the O(n^2)
      // pair scan — per-row inversion counts via two Fenwick passes per
      // group (O(n log n)), exact integers, so the column matches the
      // pair scan bit for bit.
      std::vector<int64_t> column;
      OrderViolationColumn(*order_spec, table, &column);
      runtime::ParallelForEach(0, n, kPairScanGrain, [&](size_t i) {
        matrix[i][l] = static_cast<double>(column[i]);
      });
      continue;
    }
    const PredicateDecomposition decomp = dc.Decompose();
    if (decomp.shape == PredicateDecomposition::Shape::kNeverFires) {
      continue;  // the conjunction is unsatisfiable: the column is zero
    }
    if (decomp.shape == PredicateDecomposition::Shape::kComposite) {
      // Composite (mixed-shape) binary DC — equality scope, inequation
      // residuals, optional order residual pair: signed hash-group and
      // Fenwick sweeps instead of the O(n^2) pair scan. Exact integers,
      // so the column matches the pair scan bit for bit.
      std::vector<int64_t> column;
      CompositeViolationColumn(decomp, table, &column);
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
  std::vector<size_t> lhs;
  size_t rhs = 0;
  if (dc.AsFd(&lhs, &rhs)) {
    RecordDcIndexBuilt("fd");
    return std::make_unique<FdViolationIndex>(std::move(lhs), rhs);
  }
  std::optional<GroupedOrderSpec> order = dc.AsGroupedOrderSpec();
  if (order.has_value()) {
    RecordDcIndexBuilt("order");
    return std::make_unique<OrderViolationIndex>(std::move(*order));
  }
  const PredicateDecomposition decomp = dc.Decompose();
  using Shape = PredicateDecomposition::Shape;
  if (decomp.shape == Shape::kNeverFires) {
    RecordDcIndexBuilt("never");
    return std::make_unique<NeverViolationIndex>();
  }
  if (decomp.shape == Shape::kComposite) {
    if (decomp.order_residuals.empty() && decomp.ne_attrs.size() == 1) {
      // Normalized FD / pure-inequation shape (e.g. a lone strict order
      // turned inequation, or an FD with no syntactic equality LHS): the
      // FD hash index computes exactly scope minus diagonal — an empty
      // scope key is one global group.
      RecordDcIndexBuilt("fd");
      return std::make_unique<FdViolationIndex>(decomp.scope_attrs,
                                                decomp.ne_attrs[0]);
    }
    // Everything else — including normalized grouped-order shapes the
    // syntactic matcher missed — goes through the composite plan (for a
    // pure two-strict-order shape that plan is a single order block, so
    // the direction-to-co_monotone convention lives in one place).
    RecordDcIndexBuilt("composite");
    return std::make_unique<CompositeViolationIndex>(decomp);
  }
  RecordDcIndexBuilt("naive");
  return std::make_unique<NaiveViolationIndex>(dc);
}

std::unique_ptr<ViolationIndex> MakeNaiveViolationIndex(
    const DenialConstraint& dc) {
  KAMINO_CHECK(!dc.is_unary()) << "naive index is for binary DCs";
  return std::make_unique<NaiveViolationIndex>(dc);
}

}  // namespace kamino
