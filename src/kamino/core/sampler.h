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
  /// compressed payloads (`SampleSpec::compress_chunks`) this table is
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
};

/// One sampling run: the one declaration of every per-run knob, carried
/// from a synthesis request down to `Synthesize` (the service's
/// `SynthesisRequest` extends this). The defaults reproduce the
/// monolithic `RunKamino` sampling phase for the fit's config.
struct SampleSpec {
  /// Synthetic rows to generate. `SamplePipeline` resolves 0 to the fitted
  /// instance's row count; `Synthesize` uses the value as given.
  size_t num_rows = 0;
  /// Root seed of the sampling run. 0 (the default) resumes the fit's RNG
  /// snapshot — the `RunKamino`-identical stream; any other value seeds a
  /// fresh independent stream, making the output a pure function of
  /// (model, seed, resolved num_shards).
  uint64_t seed = 0;
  /// Shard override; kUnset keeps the fitted options' shard count. Part
  /// of the output contract (see `KaminoOptions::num_shards`).
  size_t num_shards = kUnset;
  /// Thread-budget override; kUnset keeps the process-wide budget as the
  /// fit configured it. Never changes the output, only wall clock. The
  /// budget is global: with overlapping runs the last starter wins for
  /// newly started parallel regions (outputs are unaffected by
  /// construction).
  size_t num_threads = kUnset;
  /// Deliver streamed `TableChunk`s as compressed per-column payloads
  /// (dictionary codes bit-packed against the chunk-local range, numeric
  /// columns frame-of-reference / run-length / raw bit patterns, smallest
  /// wins) instead of materialized rows. Sinks decode with
  /// `DecodeChunkColumns`; round trips are bit-exact, so the delivered
  /// rows are unchanged — only their wire form is. Ignored without an
  /// `on_chunk` hook.
  bool compress_chunks = false;
  /// With `collect_table` off, bound the shards in flight: the
  /// coordinator keeps at most two shards dispatched (the one being frozen
  /// plus the one sampling behind it) and releases the next only after a
  /// freeze retires its slice, instead of dispatching every shard up
  /// front. That is the constant-memory delivery path: only the live
  /// shards, the frozen FD / envelope lookups and the repair's merged
  /// violation indices stay resident (~2 shard widths of rows). A
  /// collecting run returns all n rows whatever the window, so there the
  /// flag changes nothing and every shard is dispatched up front.
  /// Synthesis writes nothing to disk in either case. Bit-identical to
  /// the in-memory run at any num_threads.
  bool out_of_core = false;
  /// When false, the run keeps no table: it returns a schema-only table,
  /// the rows are observable through `on_chunk` only, and no frozen slice
  /// is stored. When true, each frozen slice is appended to the returned
  /// table at its freeze.
  bool collect_table = true;

  static constexpr size_t kUnset = static_cast<size_t>(-1);
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
  /// Always 0: candidate scoring runs inline and never dispatches to the
  /// parallel runtime. Kept only for the service benchmark, which still
  /// reads it; it goes with that benchmark's next change.
  int64_t parallel_score_dispatches = 0;
  /// Row batches of the MCMC pass, each `runtime::ParallelFor` over up to
  /// 32 re-samples (inline when the shard is a pool task or the budget is
  /// one thread).
  int64_t mcmc_batches = 0;

  // --- Shard plan and prefix freezes (every run) ---
  /// Shards the run was partitioned into (resolved; >= 1).
  size_t num_shards = 1;
  /// Cross-shard violating pairs of repair-owned DCs between each shard
  /// and the frozen prefix before it: the pairs the freeze repair acts on
  /// (0 when the exact passes own every DC; see `merge_fd_rewrites`).
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
  /// Rows pair-scanned by the freeze repair's penalty scoring, in the live
  /// slice and in the frozen prefix. Both are always 0: the repair scores
  /// candidates through the violation indices only (`CountNewBatch`
  /// against the merged frozen-prefix indices plus the shard's own), so no
  /// row is scanned and frozen rows are never re-read. Kept because the
  /// service benchmark reads and cross-checks them.
  int64_t merge_penalty_live_row_scans = 0;
  int64_t merge_penalty_frozen_row_scans = 0;

  /// High-water mark of rows resident in materialized tables at any
  /// point of the run (dispatched shard tables + the slice being frozen
  /// + the frozen rows collected so far), set on every run. A run that
  /// collects the table reaches n; an `out_of_core` run that keeps no
  /// table stays within ~2 shard widths.
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
/// Builds a synthetic instance of `run.num_rows` rows column-group by
/// column-group in schema-sequence order. For every cell it combines the
/// learned conditional probability p_{v|c} with the DC factor
/// exp(-sum_phi w_phi * new_violations(v)) over the DCs whose attributes
/// are fully sampled at this point (Phi_{A_j}), and samples from the
/// normalized product (line 10). Honors the options' ablation switches:
/// i.i.d. sampling (RandSampling), accept-reject sampling, the hard-FD
/// fast path, and `mcmc_resamples` rounds of constrained re-sampling per
/// column.
///
/// Every run takes one path: shard plan -> sample -> freeze -> emit. The
/// rows are partitioned into `run.num_shards` (kUnset: `options.num_shards`;
/// resolved) contiguous shards sampled concurrently (each shard drives the
/// full per-row loop over its slice from its own RngStream sub-seed with
/// per-shard violation indices; the one shard of a one-shard run samples
/// from `rng` itself, the sequential paper stream). Shards then freeze in
/// ascending order: each is reconciled against the frozen prefix before it
/// (empty for shard 0), rewriting only the incoming shard's rows, and its
/// chunk is emitted at once. Every DC has one reconciling mechanism, fixed
/// once per run: hard FDs are canonicalized onto the prefix's values, hard
/// order DCs are rank-aligned into the prefix's monotone relation where no
/// FD touches the attribute alignment rewrites (both exact, both also
/// fixing violations inside the shard, and each run once per freeze), and
/// every other DC — soft, or hard with no exact pass — gets a bounded
/// greedy repair of the rows in its cross-shard conflicts. The output is a
/// pure function of (seed, num_shards) — bit-identical at any
/// `num_threads` — and every hard DC an exact pass owns holds over every
/// delivered prefix at every shard count.
///
/// Runs entirely on the learned model - a post-processing step with no
/// additional privacy cost.
///
/// `run` also carries the delivery settings (`compress_chunks`,
/// `out_of_core`, `collect_table`); its `seed` and `num_threads` are not
/// read here (`SamplePipeline` resolves them). `hooks` (optional) adds
/// cooperative cancellation, per-shard progress callbacks and streaming
/// chunk delivery — see `SynthesisHooks` for the delivery-order contract.
/// Passing hooks never changes the synthesized rows: the hooks observe the
/// run, they do not steer it.
Result<Table> Synthesize(const ProbabilisticDataModel& model,
                         const std::vector<WeightedConstraint>& constraints,
                         const KaminoOptions& options, const SampleSpec& run,
                         Rng* rng, SynthesisTelemetry* telemetry = nullptr,
                         const SynthesisHooks* hooks = nullptr);

}  // namespace kamino

#endif  // KAMINO_CORE_SAMPLER_H_
