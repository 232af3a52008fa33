#ifndef KAMINO_CORE_PREFIX_MERGE_H_
#define KAMINO_CORE_PREFIX_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "kamino/data/table.h"

namespace kamino {

/// Prefix-frozen reconciliation state for synthesis (core/sampler.cc) at
/// every shard count: the two exact passes a shard freeze runs, one for
/// hard FDs and one for hard order DCs.
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
/// the live table: no RNG, no iteration-order dependence (groups and
/// components are walked in value / smallest-row order).

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

/// Strict weak order over value vectors (group / FD keys) for the lookup
/// maps below.
struct PrefixKeyLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const;
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
/// Per (family, FD) the state keeps each frozen key's first RHS value and
/// smallest holding row; the representative's LHS values needed for a
/// re-point are captured at absorb time (frozen rows are immutable).
class FrozenFdLookups {
 public:
  explicit FrozenFdLookups(std::vector<PrefixFdFamily> families);

  /// Folds the rows of a newly frozen slice (global rows
  /// [global_begin, global_begin + slice.num_rows())) into the lookups.
  void Absorb(const Table& slice, size_t global_begin);

  /// Canonicalizes all rows of `live` against the absorbed prefix.
  /// Returns cells rewritten; flags touched attributes in `attr_modified`
  /// (schema-width vector, may be null).
  int64_t Canonicalize(Table* live, std::vector<bool>* attr_modified) const;

 private:
  struct FrozenEntry {
    Value canonical;       // the key's frozen RHS value (first row wins)
    size_t rep_row = 0;    // smallest global frozen row holding the key
  };
  using KeyMap = std::map<std::vector<Value>, FrozenEntry, PrefixKeyLess>;

  std::vector<PrefixFdFamily> families_;
  /// keys_[f][d]: lookup for family f's FD d.
  std::vector<std::vector<KeyMap>> keys_;
  /// lhs_union_[f]: sorted distinct LHS attributes across family f's FDs.
  std::vector<std::vector<size_t>> lhs_union_;
  /// lhs_pos_[f][d][k]: index of lhs_sets[d][k] within lhs_union_[f].
  std::vector<std::vector<std::vector<size_t>>> lhs_pos_;
  /// rep_values_[f]: global row -> captured values of lhs_union_[f], for
  /// every frozen row that first-inserted a key (the only best_rep
  /// candidates).
  std::vector<std::map<size_t, std::vector<Value>>> rep_values_;
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
/// the live rows and against the prefix. If the frozen prefix itself is
/// non-monotone (possible only after a hard-FDs-win re-canonicalization
/// broke an earlier alignment) the envelope can invert; the upper bound
/// wins, deterministically.
///
/// Per group key the state keeps the distinct frozen contexts with their
/// oriented dependent extrema and running envelopes, so `Align` answers
/// `lo` / `hi` by binary search.
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

  PrefixAlignSpec spec_;
  std::map<std::vector<Value>, Envelope, PrefixKeyLess> groups_;
};

}  // namespace kamino

#endif  // KAMINO_CORE_PREFIX_MERGE_H_
