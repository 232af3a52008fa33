#ifndef KAMINO_CORE_PREFIX_MERGE_H_
#define KAMINO_CORE_PREFIX_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "kamino/data/table.h"

namespace kamino {

/// Prefix-frozen reconciliation primitives for sharded synthesis
/// (core/sampler.cc, `KaminoOptions::num_shards` > 1).
///
/// Both passes bring the suffix rows [frozen_end, num_rows) of a table —
/// a freshly sampled shard appended behind the already-delivered prefix —
/// into agreement with the frozen prefix [0, frozen_end) while NEVER
/// writing a frozen cell, because those rows may already have left the
/// process as chunks.
///
/// Both are pure deterministic functions of the table contents: no RNG,
/// no iteration-order dependence (groups and components are walked in
/// value / smallest-row order).

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

/// Forces the suffix rows onto the frozen prefix's canonical FD values.
///
/// Suffix rows that any family FD transitively forces to agree are
/// unioned into components. A component with at least one frozen LHS-key
/// match adopts the value of the match with the smallest frozen
/// representative row; a component with none canonicalizes to its
/// smallest member's value. When a member's key under some FD is frozen
/// with a *different* value than the adopted one — the row bridges two
/// frozen groups, neither of which may be rewritten — the member's LHS
/// attributes for that FD are overwritten with the adopted
/// representative's, re-pointing the key at a frozen group that already
/// agrees. Rounds repeat until a fixpoint (bounded by the schema
/// width) so rewrites cascading into other families' keys settle.
///
/// Returns the number of cells rewritten; flags every touched attribute
/// in `attr_modified` (schema-width vector, may be null). Frozen rows are
/// never written, so if the prefix was FD-exact before the call it still
/// is, and afterwards the whole table is.
int64_t PrefixFrozenFdCanonicalize(Table* table,
                                   const std::vector<PrefixFdFamily>& families,
                                   size_t frozen_end,
                                   std::vector<bool>* attr_modified);

/// One equality-scoped hard order DC in alignment form (the shape
/// `DenialConstraint::AsGroupedOrderSpec` recognizes): within each
/// `group_attrs` value group, `dep_attr` must be weakly monotone in
/// `ctx_attr` — co-monotone or anti-monotone; ties never violate.
struct PrefixAlignSpec {
  std::vector<size_t> group_attrs;
  size_t ctx_attr = 0;
  size_t dep_attr = 0;
  bool co_monotone = true;
};

/// Slots the suffix rows of each group into the frozen rows' monotone
/// relation without moving a frozen cell.
///
/// Per group, the frozen rows (sorted by context) define an envelope for
/// a new row at context x: its oriented dependent value must be >= the
/// greatest frozen dependent at contexts strictly below x (`lo`) and
/// <= the least frozen dependent at contexts strictly above x (`hi`).
/// Frozen ties at x impose nothing, and a violation-free frozen prefix
/// guarantees lo <= hi. The suffix rows are first rank-aligned among
/// themselves — walked in (context, row) order, they receive their own
/// dependent values in oriented sorted order, preserving the shard's
/// value multiset exactly as the global alignment does — and then each is
/// clamped into its envelope (the only step that can substitute a frozen
/// value for a sampled one). Since `lo`, `hi`, and the rank-aligned
/// targets are all non-decreasing along the walk, the clamped sequence is
/// too: the group ends with zero violations, intra-suffix and
/// cross-prefix. If the frozen prefix itself is non-monotone (possible
/// only after a hard-FDs-win re-canonicalization broke an earlier
/// alignment) the envelope can invert; the upper bound wins,
/// deterministically.
///
/// Returns the number of cells rewritten.
int64_t PrefixFrozenRankAlign(Table* table, const PrefixAlignSpec& spec,
                              size_t frozen_end);

/// Strict weak order over value vectors (group / FD keys), shared by the
/// prefix-frozen passes and the persistent lookup state below.
struct PrefixKeyLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const;
};

/// Persistent form of the frozen FD lookups that
/// `PrefixFrozenFdCanonicalize` rebuilds from the prefix rows on every
/// call. Out-of-core synthesis drops frozen columns from memory, so the
/// lookups are absorbed incrementally at each freeze instead — after
/// which no frozen row is ever read again for FD reconciliation.
///
/// `Absorb` must be called once per frozen slice, in ascending global row
/// order; `Canonicalize` then brings a live (suffix) table into agreement
/// with everything absorbed so far, bit-identically to
/// `PrefixFrozenFdCanonicalize` run over the concatenated table. The
/// representative's LHS attribute values needed for bridge re-pointing
/// are captured at absorb time (frozen rows are immutable by contract).
class FrozenFdLookups {
 public:
  explicit FrozenFdLookups(std::vector<PrefixFdFamily> families);

  /// Folds the rows of a newly frozen slice (global rows
  /// [global_begin, global_begin + slice.num_rows())) into the lookups.
  void Absorb(const Table& slice, size_t global_begin);

  /// Canonicalizes all rows of `live` against the absorbed prefix.
  /// Returns cells rewritten; flags touched attributes in `attr_modified`
  /// (schema-width vector, may be null). Never reads a frozen row.
  int64_t Canonicalize(Table* live, std::vector<bool>* attr_modified) const;

  const std::vector<PrefixFdFamily>& families() const { return families_; }

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

/// Persistent form of the frozen order envelopes `PrefixFrozenRankAlign`
/// rebuilds by sorting the prefix rows on every call. Per group key the
/// state keeps the distinct frozen context values with their oriented
/// dependent extrema, from which the running envelope (greatest dependent
/// strictly below a context, least strictly above) is answered without
/// touching a frozen row. `Absorb` per frozen slice in ascending global
/// row order; `Align` then equals `PrefixFrozenRankAlign` over the
/// concatenated table, restricted to the live rows.
class FrozenAlignLookups {
 public:
  explicit FrozenAlignLookups(PrefixAlignSpec spec);

  /// Folds a newly frozen slice's (context, dependent) pairs in.
  void Absorb(const Table& slice);

  /// Rank-aligns `live`'s rows among themselves and clamps them into the
  /// absorbed frozen envelope. Returns cells rewritten.
  int64_t Align(Table* live) const;

  const PrefixAlignSpec& spec() const { return spec_; }

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
