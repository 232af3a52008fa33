#ifndef KAMINO_CORE_PREFIX_MERGE_H_
#define KAMINO_CORE_PREFIX_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kamino/data/table.h"
#include "kamino/dc/grouping.h"

namespace kamino {

/// Prefix-frozen reconciliation state for synthesis (core/sampler.cc) at
/// every shard count: the two exact passes a shard freeze runs, one for
/// hard FDs and one for hard order DCs, and the numeric-candidate seeds
/// the sampling loop and the freeze repair draw from (`NeighborSeeds`).
///
/// Each pass is a lookup class over the frozen prefix. `Absorb` folds in
/// each newly frozen slice, in ascending global row order, at its freeze;
/// the pass then brings a live table — the next shard's rows, which
/// follow the absorbed prefix — into agreement with everything absorbed
/// so far. It writes only live cells and never reads a frozen row again,
/// which is what lets out-of-core synthesis drop frozen columns from
/// memory. How the prefix was sliced never changes the result.
///
/// Both passes are pure deterministic functions of the absorbed rows and
/// the live table: no RNG, and no dependence on hash iteration order
/// (each group or component reads and writes only its own rows, and a
/// component adopts the value of its smallest representative or member).

/// All hard FDs sharing one right-hand-side attribute. FDs with a common
/// RHS must be canonicalized jointly — fixing them one at a time lets a
/// row satisfy one FD by breaking another (see the tax workload, where
/// `zip -> state` and `areacode -> state` share `state`).
struct PrefixFdFamily {
  /// The shared RHS attribute.
  size_t rhs = 0;
  /// One LHS attribute set per FD in the family.
  std::vector<std::vector<size_t>> lhs_sets;
};

/// One equality-scoped hard order DC in alignment form (the grouped-order
/// view of `DenialConstraint::Decompose()`, so every equivalent spelling
/// of the DC aligns the same way): within each
/// `group_attrs` value group, `dep_attr` must be weakly monotone in
/// `ctx_attr` — co-monotone or anti-monotone; ties never violate.
struct PrefixAlignSpec {
  std::vector<size_t> group_attrs;
  size_t ctx_attr = 0;
  size_t dep_attr = 0;
  bool co_monotone = true;
};

/// Forces live rows onto the frozen prefix's canonical FD values.
///
/// Live rows that any family FD transitively forces to agree are unioned
/// into components. A component with at least one frozen LHS-key match
/// adopts the value of the match with the smallest frozen representative
/// row; a component with none canonicalizes to its smallest member's
/// value. When a member's key under some FD is frozen with a *different*
/// value than the adopted one — the row bridges two frozen groups,
/// neither of which may be rewritten — the member's LHS attributes for
/// that FD are overwritten with the adopted representative's, re-pointing
/// the key at a frozen group that already agrees. Rounds repeat until a
/// fixpoint (bounded by the schema width) so rewrites cascading into
/// other families' keys settle. If the absorbed prefix was FD-exact, the
/// prefix plus the canonicalized live rows is too.
///
/// Grouping is hashed throughout (dc/grouping.h). Per (family, FD) the
/// state maps each frozen LHS key (`FdKey`) to its first RHS value and
/// its smallest holding row; that row's values of the family's LHS
/// attributes, needed for a re-point, are captured flat at absorb time
/// (frozen rows are immutable). A family pass groups the live rows by
/// `GroupIds` over each FD's LHS, unions each row with its group's first
/// row, lists each component by its root, and looks each live group's
/// key up once — expected O(rows) work per family per round.
///
/// Round skip: a family is not run again in a round when nothing it
/// reads — its LHS attributes or its RHS — was written since its last
/// pass, other than by that pass's own RHS writes (its own LHS writes
/// count). After such a pass the components are unchanged and each
/// already holds one value, so the repeat would rewrite nothing: rounds,
/// rewrite counts and the canonicalized rows are those of running every
/// family every round.
///
/// NaN rule: two keys match when every cell is equal as a `Value`, so a
/// key with a NaN cell matches no other key, live or frozen. Such a row
/// is its own group under that FD; a frozen NaN key is never stored.
class FrozenFdLookups {
 public:
  explicit FrozenFdLookups(std::vector<PrefixFdFamily> families);

  /// Folds the rows of a newly frozen slice (global rows
  /// [global_begin, global_begin + slice.num_rows())) into the lookups.
  void Absorb(const Table& slice, size_t global_begin);

  /// Canonicalizes all rows of `live` against the absorbed prefix.
  /// Returns cells rewritten.
  int64_t Canonicalize(Table* live) const;

 private:
  struct FrozenEntry {
    Value canonical;     // the key's frozen RHS value (first row wins)
    size_t rep_row = 0;  // smallest global frozen row holding the key
    size_t rep = 0;      // that row's slot in `Family::rep_values`
  };
  using KeyMap = std::unordered_map<FdKey, FrozenEntry, FdKeyHash>;

  struct Family {
    size_t rhs = 0;
    std::vector<std::vector<size_t>> lhs_sets;
    /// keys[d]: frozen lookup for FD d.
    std::vector<KeyMap> keys;
    /// Sorted distinct LHS attributes across the family's FDs.
    std::vector<size_t> lhs_union;
    /// lhs_pos[d][k]: index of lhs_sets[d][k] within lhs_union.
    std::vector<std::vector<size_t>> lhs_pos;
    /// True when the RHS is also an LHS attribute (a trivial FD).
    bool rhs_in_lhs = false;
    /// Captured lhs_union values of every frozen row that first-inserted
    /// a key (the only representative candidates): slot k holds
    /// [k * lhs_union.size(), (k + 1) * lhs_union.size()).
    std::vector<Value> rep_values;
    size_t num_reps = 0;
  };

  std::vector<Family> families_;
};

/// Slots the live rows of each group into the frozen rows' monotone
/// relation without moving a frozen cell.
///
/// Per group, the frozen rows define an envelope for a live row at
/// context x: its oriented dependent value must be >= the greatest frozen
/// dependent at contexts strictly below x (`lo`) and <= the least frozen
/// dependent at contexts strictly above x (`hi`). Frozen ties at x impose
/// nothing, and a violation-free frozen prefix guarantees lo <= hi. The
/// live rows are first rank-aligned among themselves — walked in
/// (context, row) order, they receive their own dependent values in
/// oriented sorted order, preserving the shard's value multiset — and
/// then each is clamped into its envelope (the only step that can
/// substitute a frozen value for a sampled one). Since `lo`, `hi`, and
/// the rank-aligned targets are all non-decreasing along the walk, the
/// clamped sequence is too: the group ends with zero violations, within
/// the live rows and against the prefix. The sampler only absorbs
/// violation-free slices (no exact pass after an alignment writes its
/// attributes), so its envelopes never invert; for a caller that absorbs
/// a non-monotone prefix, an inverted envelope resolves to its upper
/// bound, deterministically.
///
/// Per group key (`FdKey`, hashed) the state keeps the distinct frozen
/// contexts with their oriented dependent extrema and running envelopes,
/// so `Align` answers `lo` / `hi` by binary search. `Absorb` groups a
/// slice by `GroupIds`, stably sorts each group's (context, dependent)
/// pairs into per-context runs and merges them into the envelope in one
/// linear pass; `Align` groups the live rows by `GroupIds` too.
///
/// NaN rule: a group key with a NaN cell matches no other key (the row
/// is a group of its own and meets no frozen envelope). A NaN context or
/// dependent compares false both ways, so such a row can violate nothing:
/// it is neither absorbed into an envelope nor rank-aligned, and keeps
/// its values.
class FrozenAlignLookups {
 public:
  explicit FrozenAlignLookups(PrefixAlignSpec spec);

  /// Folds a newly frozen slice's (context, dependent) pairs in.
  void Absorb(const Table& slice);

  /// Rank-aligns `live`'s rows among themselves and clamps them into the
  /// absorbed frozen envelope. Returns cells rewritten.
  int64_t Align(Table* live) const;

 private:
  struct Envelope {
    std::vector<Value> ctx;   // distinct frozen contexts, ascending
    std::vector<Value> mx;    // per-context oriented max dependent
    std::vector<Value> mn;    // per-context oriented min dependent
    std::vector<Value> pmax;  // running prefix max of mx
    std::vector<Value> smin;  // running suffix min of mn
  };

  bool OrientedLt(const Value& a, const Value& b) const {
    return spec_.co_monotone ? a < b : b < a;
  }

  PrefixAlignSpec spec_;
  std::unordered_map<FdKey, Envelope, FdKeyHash> groups_;
};

/// Numeric candidate seeds under one ungrouped order pair: one
/// (partner value, unit value) pair per row, sorted ascending. The
/// sampling loop inserts each row as it is drawn; the freeze repair's
/// seeds absorb each frozen slice, so the repair seeds from the frozen
/// prefix without reading a frozen row again.
///
/// Ties: `Insert` places a pair before every stored pair equal to it,
/// and `Absorb` yields exactly the sequence of inserting the slice's rows
/// one by one, also where equal pairs differ in bits (-0.0 and +0.0).
/// NaN rule: a pair with a NaN is never stored, and a NaN key seeds
/// nothing.
class NeighborSeeds {
 public:
  /// Seeds `value_attr` from rows keyed by their `key_attr` value.
  NeighborSeeds(size_t key_attr, size_t value_attr)
      : key_attr_(key_attr), value_attr_(value_attr) {}

  size_t key_attr() const { return key_attr_; }
  void Insert(double key, double value);
  /// Inserts every row of a newly frozen slice, in row order.
  void Absorb(const Table& slice);
  /// Appends the unit values of the stored pairs at positions p - 2 to
  /// p + 2, p = the first pair not below (key, -inf), in position order.
  void Seed(double key, std::vector<double>* out) const;

 private:
  size_t key_attr_ = 0;
  size_t value_attr_ = 0;
  std::vector<std::pair<double, double>> pairs_;  // sorted ascending
};

}  // namespace kamino

#endif  // KAMINO_CORE_PREFIX_MERGE_H_
