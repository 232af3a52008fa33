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
/// Uses the FD grouping fast path for FD-shaped DCs, an O(n log n)
/// sort + Fenwick-tree inversion count for (equality-scoped) order DCs,
/// the inclusion–exclusion composite engine for every other DC whose
/// decomposition is `kComposite` (mixed equality + `!=` + order shapes),
/// zero for `kNeverFires`, and the naive O(n^2) scan otherwise.
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
/// FD-shaped DCs hash-partition to O(n), (equality-scoped) order DCs
/// use a sorted scan with two Fenwick-tree passes (O(n log n)), and every
/// other DC with a `kComposite` decomposition gets signed per-term
/// hash-group / Fenwick columns (inclusion–exclusion over its inequation
/// residuals); only `kGeneral` binary DCs still pair-scan on the global
/// runtime pool (kamino/runtime/): chunk-private partial columns merge in
/// fixed order with exact integer sums, so the matrix is bit-identical to
/// the pair scan at any thread count.
std::vector<std::vector<double>> BuildViolationMatrix(
    const Table& table, const std::vector<WeightedConstraint>& constraints);

/// Incremental per-DC index: the one violation-penalty kernel of the
/// sampler. Rows are added as their relevant attributes get filled, and
/// candidate rows are scored for the number of *new* violations they
/// would introduce against the committed rows.
///
/// Implementations: an O(1) hash-group index for FD-shaped DCs (including
/// decomposition-normalized FD equivalents and pure-`!=` DCs), a trivial
/// evaluator for unary DCs, a sorted block-list index for (equality-
/// scoped) order DCs (sub-linear `CountNew`), a composite index for the
/// remaining DCs with a `kComposite` decomposition (a signed
/// inclusion–exclusion sum of hash-group and order blocks — see
/// `PredicateDecomposition`), a zero-reporting index for `kNeverFires`
/// conjunctions, and a prefix-scan fallback for `kGeneral` binary DCs.
///
/// The sampler uses four operations: `AddRow`, `RemoveRow`, `CountNew`
/// and `FdForcedValue`. The sampling loop commits each row as it is
/// drawn; the MCMC pass keeps a full-table index and the freeze repair a
/// live-slice index, and both replace a rewritten row with `RemoveRow`
/// then `AddRow`. `CountNew` is an exact integer count for every class,
/// so no caller ever pair-scans a table. `Merge` and `CountAgainst` have
/// no production caller; they remain for tests and the service
/// benchmark's probe.
class ViolationIndex {
 public:
  virtual ~ViolationIndex() = default;

  /// New violations that `row` (with all attributes of the DC filled)
  /// would introduce against the rows added so far.
  virtual int64_t CountNew(const Row& row) const = 0;

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
