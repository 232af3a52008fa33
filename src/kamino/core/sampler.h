#ifndef KAMINO_CORE_SAMPLER_H_
#define KAMINO_CORE_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "kamino/common/status.h"
#include "kamino/core/model.h"
#include "kamino/core/options.h"
#include "kamino/data/table.h"
#include "kamino/dc/constraint.h"

namespace kamino {

/// A contiguous slice of the synthetic instance, delivered through
/// `SynthesisHooks::on_chunk` once its rows are final (the shard has
/// cleared reconciliation — no later pipeline step will rewrite them).
struct TableChunk {
  /// Shard that sampled these rows (chunks arrive in ascending shard
  /// order; a single-shard run delivers exactly one chunk, shard 0).
  size_t shard = 0;
  /// Global row index of `rows.row(0)` in the assembled instance.
  size_t row_offset = 0;
  /// The slice's rows, in final (reconciled) form. When the run delivers
  /// compressed payloads (`KaminoOptions::compress_chunks`) this table is
  /// schema-only (zero rows) and `encoded` carries the slice instead.
  Table rows;
  /// Compressed per-column payload (`EncodeChunkColumns`), non-empty only
  /// under `compress_chunks`. Decode with `DecodeChunkColumns` against
  /// `rows.schema()`.
  std::vector<uint8_t> encoded;
  /// Row count carried by `encoded` (0 when delivering materialized rows).
  size_t encoded_rows = 0;
  /// True on the final chunk of the run — together the chunks tile
  /// [0, n) without gap or overlap.
  bool last = false;

  bool compressed() const { return !encoded.empty(); }
  /// Rows in this chunk regardless of representation — row accounting
  /// must use this, not `rows.num_rows()`.
  size_t num_rows() const { return compressed() ? encoded_rows : rows.num_rows(); }
};

/// Observer/control hooks threaded through `Synthesize` by the session
/// engine (`kamino/service/`). All hooks are optional (leave the
/// std::function empty); a null hooks pointer means "run to completion,
/// return only the final table".
struct SynthesisHooks {
  /// Cooperative cancellation: polled at every shard boundary and at
  /// every column-group (model unit) boundary inside a shard, and between
  /// chunk deliveries. Returning false makes `Synthesize` stop at the
  /// next poll and return StatusCode::kCancelled. May be invoked
  /// concurrently from pool workers; implementations must be
  /// thread-safe (an atomic flag read suffices).
  std::function<bool()> keep_going;
  /// Progress: invoked once per shard as soon as that shard's sampling
  /// loop has produced all of its rows (before merge/reconciliation).
  /// May be invoked concurrently from pool workers.
  std::function<void(size_t rows_in_shard)> on_rows_sampled;
  /// Streaming delivery, called serially from the synthesizing thread:
  /// chunks arrive in ascending `row_offset` order, each shard exactly
  /// once, tiling [0, n), every row in final reconciled form, and all
  /// before `Synthesize` returns. A non-OK return aborts the run with
  /// that status.
  std::function<Status(const TableChunk&)> on_chunk;
  /// The caller consumes the run through `on_chunk` only and will drop
  /// the returned table (the engine sets this when `collect_table` is
  /// off). The run then returns a schema-only table in every mode:
  /// in memory it never accumulates the frozen slices, and under
  /// `out_of_core` it skips re-reading them from the spill store — the
  /// truly constant-memory delivery path.
  bool discard_result = false;
};

/// Counters describing one synthesis run (for the optimization
/// experiments).
struct SynthesisTelemetry {
  /// Total accept-reject proposals drawn (AR mode only).
  int64_t ar_proposals = 0;
  /// Cells whose value was forced through the hard-FD lookup fast path.
  int64_t fd_fast_path_hits = 0;
  /// Cells re-sampled by the constrained MCMC pass.
  int64_t mcmc_resamples = 0;
  /// Thread budget the run executed with (resolved; >= 1).
  size_t num_threads = 1;
  /// Candidate-set scorings dispatched through the parallel runtime (the
  /// rest ran inline because the set or the committed prefix was small).
  int64_t parallel_score_dispatches = 0;
  /// Row batches executed by the parallel MCMC pass.
  int64_t mcmc_batches = 0;

  // --- Shard plan and prefix freezes (every run) ---
  /// Shards the run was partitioned into (resolved; >= 1).
  size_t num_shards = 1;
  /// Cross-shard violating pairs found between each shard and the frozen
  /// prefix before it (violations the per-shard sampling could not see),
  /// over every DC whatever reconciles it.
  int64_t merge_cross_violations = 0;
  /// Rows queued for the bounded repair: rows in at least one cross-shard
  /// violation of a repair-owned DC (soft, or hard with no exact pass).
  /// Zero when the exact FD / order passes own every DC.
  int64_t merge_conflict_rows = 0;
  /// Re-samples spent by the bounded reconciliation repair.
  int64_t merge_resamples = 0;
  /// Re-sample budget of the reconciliation repair, summed over freezes:
  /// each freeze that queues rows for repair gets 16 + 2 * those rows.
  int64_t merge_budget = 0;
  /// Repair sweeps cut short because consecutive repairs stopped reducing
  /// the weighted violation penalty.
  int64_t merge_early_stops = 0;
  /// Cells rewritten by the hard-FD canonicalization passes.
  int64_t merge_fd_rewrites = 0;
  /// Cells moved by the hard-order-DC rank alignment (a permutation of
  /// the sampled values, so per-value marginals are unchanged).
  int64_t merge_order_alignments = 0;
  /// Wall-clock seconds of reconciliation (included in the sampling phase
  /// timing): the sum of the per-freeze `sampler/prefix_merge` spans.
  double merge_seconds = 0.0;
  /// Prefix freezes performed: one per shard, each ending with the frozen
  /// prefix hard-DC exact and its chunk emitted.
  int64_t merge_prefix_freezes = 0;
  /// Rows frozen (made immutable and eligible for delivery) by those
  /// freezes; equals the row count on a completed run.
  int64_t merge_frozen_rows = 0;
  /// Partner rows pair-scanned by the freeze repair's penalty kernel in
  /// *live* (not yet frozen) tables. The kernel scores candidates as
  /// index-delta (`CountNew` against the merged indices) + live pair
  /// scan, so...
  int64_t merge_penalty_live_row_scans = 0;
  /// ...this stays zero: frozen rows are never re-scanned. Asserted by
  /// tests; a nonzero value means the constant-memory contract broke.
  int64_t merge_penalty_frozen_row_scans = 0;

  // --- Out-of-core spill (`KaminoOptions::out_of_core`) ---
  /// Frozen-slice blocks sealed into the spill file (one per freeze).
  int64_t spill_blocks = 0;
  /// Bytes appended to the spill file (chunk-codec payloads + framing).
  int64_t spill_bytes = 0;
  /// Rows written to the spill store (equals n on a completed run).
  int64_t spilled_rows = 0;
  /// High-water mark of rows resident in materialized tables at any
  /// point of the run (dispatched shard tables + the slice being frozen
  /// + the accumulated output). Out-of-core runs bound this to ~2 shard
  /// widths; in-memory runs grow it to n.
  int64_t peak_resident_rows = 0;
  /// Seconds from job start (after dequeue — queue wait excluded) to the
  /// first `TableChunk` handed to the `RowSink`. Filled by the service
  /// engine, not the sampler; 0 when the run streamed no chunks. Also
  /// recorded into the `kamino.service.first_chunk_seconds` histogram
  /// when metrics are enabled.
  double first_chunk_seconds = 0.0;
};

/// Algorithm 3: constraint-aware database instance sampling.
///
/// Builds a synthetic instance of `n` rows column-group by column-group in
/// schema-sequence order. For every cell it combines the learned
/// conditional probability p_{v|c} with the DC factor
/// exp(-sum_phi w_phi * new_violations(v)) over the DCs whose attributes
/// are fully sampled at this point (Phi_{A_j}), and samples from the
/// normalized product (line 10). Honors the options' ablation switches:
/// i.i.d. sampling (RandSampling), accept-reject sampling, the hard-FD
/// fast path, and `mcmc_resamples` rounds of constrained re-sampling per
/// column.
///
/// Every run takes one path: shard plan -> sample -> freeze -> emit. The
/// rows are partitioned into `options.num_shards` (resolved) contiguous
/// shards sampled concurrently (each shard drives the full per-row loop
/// over its slice from its own RngStream sub-seed with per-shard
/// violation indices; the one shard of a one-shard run samples from `rng`
/// itself, the sequential paper stream). Shards then freeze in ascending
/// order: each is reconciled against the frozen prefix before it (empty
/// for shard 0), rewriting only the incoming shard's rows, and its chunk
/// is emitted at once. Every DC has one reconciling mechanism: hard FDs
/// are canonicalized onto the prefix's values, hard order DCs are
/// rank-aligned into the prefix's monotone relation (both exact, and
/// both also fixing violations inside the shard), and every other DC —
/// soft, or hard with no exact pass — gets a bounded greedy repair of the
/// rows in its cross-shard conflicts. The output is a pure function of
/// (seed, num_shards) — bit-identical at any `num_threads` — and the
/// hard DCs hold over every delivered prefix at every shard count.
///
/// Runs entirely on the learned model - a post-processing step with no
/// additional privacy cost.
///
/// `hooks` (optional) adds cooperative cancellation, per-shard progress
/// callbacks and streaming chunk delivery — see `SynthesisHooks` for the
/// delivery-order contract. Passing hooks never changes the synthesized
/// rows: the hooks observe the run, they do not steer it.
Result<Table> Synthesize(const ProbabilisticDataModel& model,
                         const std::vector<WeightedConstraint>& constraints,
                         size_t n, const KaminoOptions& options, Rng* rng,
                         SynthesisTelemetry* telemetry = nullptr,
                         const SynthesisHooks* hooks = nullptr);

}  // namespace kamino

#endif  // KAMINO_CORE_SAMPLER_H_
