#ifndef KAMINO_DC_VIOLATIONS_H_
#define KAMINO_DC_VIOLATIONS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "kamino/data/table.h"
#include "kamino/dc/constraint.h"

namespace kamino {

/// C(m, 2), the number of unordered pairs of m rows, as an exact 64-bit
/// count. The even factor is halved *before* the multiply, so there is no
/// intermediate overflow: the result is exact for any m <= 2^32 (above
/// that the pair count itself no longer fits in int64 — checked).
int64_t PairsOf(int64_t m);

/// C(m, 2) in double precision: never overflows, but deliberately
/// approximate once the pair count passes 2^53 (m > ~1.3e8 rows), where
/// doubles stop representing every integer. Rates and telemetry use this
/// form; anything that must stay exact (violation counts, digests) uses
/// the integer `PairsOf`.
double PairsOfDouble(int64_t m);

/// Counts the violations of `dc` over the whole instance:
/// - unary DC: the number of violating tuples;
/// - binary DC: the number of violating *unordered* tuple pairs (a pair
///   violates when either binding orientation fires).
/// Dispatches on `dc.Decompose()`: a `kComposite` DC (FDs, order DCs and
/// every mixed equality + `!=` + order shape) counts as the sum of its
/// composite term plan's signed per-term counts — Σ C(g, 2) over the key
/// groups of a scope term, an O(n log n) sort + Fenwick-tree inversion
/// count for an order term. `kNeverFires` is zero, and unary and
/// `kGeneral` DCs take the naive O(n^2) scan.
int64_t CountViolations(const DenialConstraint& dc, const Table& table);

/// Forces the naive scan (reference implementation; used by tests to check
/// the fast path and by benchmarks to measure the speedup).
int64_t CountViolationsNaive(const DenialConstraint& dc, const Table& table);

/// Violations as the percentage used by Table 2 of the paper:
/// 100 * |V| / C(n, 2) for binary DCs, 100 * |V| / n for unary DCs.
/// The pair-count denominator is computed with `PairsOfDouble`, so the
/// rate never overflows but carries double rounding past 2^53 pairs.
double ViolationRatePercent(const DenialConstraint& dc, const Table& table);

/// Number of violations tuple `row` would add against rows [0, prefix_len)
/// of `table` (the incremental count V(phi, t | D_:i) of Eqn. 3).
int64_t CountNewViolations(const DenialConstraint& dc, const Row& row,
                           const Table& table, size_t prefix_len);

/// The |D| x |Phi| violation matrix of Algorithm 5: entry (i, l) is the
/// number of violations of DC l caused by tuple i with respect to all other
/// tuples of `table`.
///
/// Dispatches on `Decompose()` like `CountViolations`: a `kComposite` DC's
/// column is the sum of its term plan's signed per-term columns (group
/// size minus one for a scope term, two Fenwick-tree passes for an order
/// term; O(n log n) per term), and a `kNeverFires` column is zero. Only
/// `kGeneral` binary DCs pair-scan, on the global runtime pool
/// (kamino/runtime/): chunk-private partial columns merge in fixed order
/// with exact integer sums, so the matrix is bit-identical to the pair
/// scan at any thread count.
std::vector<std::vector<double>> BuildViolationMatrix(
    const Table& table, const std::vector<WeightedConstraint>& constraints);

/// Incremental per-DC index: the one violation-penalty kernel of the
/// sampler. Rows are added as their relevant attributes get filled, and
/// the candidate values of one (row, unit) are scored for the number of
/// *new* violations each would introduce against the committed rows.
///
/// Implementations, chosen from `Decompose()` and its two views — the
/// same views `AsFd` and `AsGroupedOrderSpec` return, so equivalent
/// spellings of a DC get the same index and the sampler's exact passes
/// own exactly the DCs these indices serve: a trivial evaluator for unary
/// DCs; an O(1) group index for the FD view (scope minus diagonal: FDs,
/// normalized FD equivalents, pure-`!=` DCs; groups of a single
/// categorical LHS in a dense per-code table, every other key hashed; one
/// group lookup per candidate set); a sorted block-list index for the grouped-order view,
/// a plan that is a single order term (sub-linear `CountNew`, and one
/// block walk per candidate set); a
/// composite index for every other `kComposite` plan (a signed
/// inclusion–exclusion sum of hash-group and order blocks — see
/// `PredicateDecomposition`); a zero-reporting index for `kNeverFires`
/// conjunctions; and a prefix-scan fallback for `kGeneral` binary DCs.
///
/// The sampler uses five operations:
/// - `CountNewBatch` scores a unit's whole candidate set over one base
///   row (sampling, MCMC and freeze-repair scoring);
/// - `CountNew` scores one complete row (freeze conflict detection);
/// - `AddRow` commits a row: the sampling loop as each row is drawn;
/// - `RemoveRow` retracts one: the MCMC pass and the freeze repair score
///   against the shard's sampling indices, and replace each row they
///   rewrite with `RemoveRow` then `AddRow`;
/// - `FdForcedValue` feeds the hard-FD fast path.
/// Counts are exact integers for every class, so no caller ever
/// pair-scans a table, and a batch count equals the per-row `CountNew`
/// of each candidate. Queries are read-only: several threads may query
/// one index while no thread writes it. `Merge` and `CountAgainst` have
/// no production caller; they remain for tests and the service
/// benchmark's probe.
class ViolationIndex {
 public:
  virtual ~ViolationIndex() = default;

  /// New violations that `row` (with all attributes of the DC filled)
  /// would introduce against the rows added so far.
  virtual int64_t CountNew(const Row& row) const = 0;

  /// Scores one candidate set: for each c in [0, num_candidates),
  /// `counts[c]` is `CountNew` of `base` with `attrs[i]` set to
  /// `values[c * attrs.size() + i]` for every i. `base` fills every DC
  /// attribute that `attrs` does not set. The default runs `CountNew` on
  /// one scratch copy of `base`. The FD and order indices override it:
  /// when `attrs` sets no attribute of their group key, every candidate
  /// shares base's group, which they look up once per set. The FD index
  /// then costs one RHS check per candidate (a single compare while the
  /// group is pure; none when `attrs` misses the RHS too). When `attrs`
  /// is the FD's single LHS attribute alone — a histogram unit scoring
  /// its whole domain — each candidate is one group lookup (one dense
  /// slot read for a category code) plus that RHS check. The order index
  /// scores the set in one block walk when `attrs` sets x but not y,
  /// counting each straddled block once. The composite index forwards the
  /// set to its blocks.
  virtual void CountNewBatch(const Row& base, const std::vector<size_t>& attrs,
                             const Value* values, size_t num_candidates,
                             int64_t* counts) const;

  /// Commits `row` to the index.
  virtual void AddRow(const Row& row) = 0;

  /// Retracts one committed row equal to `row` on the DC's attributes.
  /// Afterwards `CountNew`, `FdForcedValue` and `size` answer exactly as
  /// an index built from the remaining rows. Removing a row that was
  /// never added is an internal error (checked).
  virtual void RemoveRow(const Row& row) = 0;

  /// Folds `other`'s committed rows into this index, equivalent to
  /// re-adding them through `AddRow` one by one (but O(groups) for the FD
  /// index). `other` must index the same DC.
  virtual void Merge(const ViolationIndex& other) = 0;

  /// Number of violating pairs (a, b) with `a` committed to this index and
  /// `b` committed to `other` — cross violations only; pairs within either
  /// index are not counted. Zero for unary DCs (no pairwise semantics).
  /// `other` must index the same DC.
  virtual int64_t CountAgainst(const ViolationIndex& other) const = 0;

  /// For FD-shaped DCs: the unique right-hand-side value already recorded
  /// for this row's left-hand-side group, if any. Enables the hard-FD fast
  /// path of section 7.3.6 (copy the forced value instead of scoring every
  /// candidate). Returns nullopt for non-FD DCs or unseen groups.
  virtual std::optional<Value> FdForcedValue(const Row& row) const {
    (void)row;
    return std::nullopt;
  }

  /// Number of rows committed so far.
  virtual size_t size() const = 0;
};

/// Creates the best index implementation for `dc`.
std::unique_ptr<ViolationIndex> MakeViolationIndex(const DenialConstraint& dc);

/// Forces the prefix-scan fallback regardless of DC shape (the reference
/// implementation: property tests and benchmarks compare the specialized
/// indices against it, mirroring CountViolationsNaive).
std::unique_ptr<ViolationIndex> MakeNaiveViolationIndex(
    const DenialConstraint& dc);

}  // namespace kamino

#endif  // KAMINO_DC_VIOLATIONS_H_
