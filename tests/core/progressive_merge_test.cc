// Tests for the prefix-frozen shard reconciliation every sharded run goes
// through: the (seed, num_shards) determinism contract across thread
// budgets, hard-DC exactness after *every* prefix freeze (checked against
// the MakeNaiveViolationIndex oracle), DC ownership (an order DC whose
// dependent attribute an FD touches is repaired, not rank-aligned),
// frozen-prefix immutability (rows already streamed are never
// rewritten), the one-shard golden digest, chunk-only delivery
// (`collect_table` off), and unit tests of the frozen-prefix FD and order
// lookups in core/prefix_merge.h.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/core/kamino.h"
#include "kamino/core/prefix_merge.h"
#include "kamino/core/sequencing.h"
#include "kamino/data/generators.h"
#include "kamino/dc/violations.h"
#include "kamino/obs/metrics.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

/// Restores the global thread budget when a test scope ends.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n) { runtime::SetGlobalNumThreads(n); }
  ~ScopedNumThreads() { runtime::SetGlobalNumThreads(0); }
};

/// FNV-1a over an exact textual rendering of every cell (17 significant
/// digits round-trips doubles), so equal digests mean bit-identical
/// tables.
uint64_t TableDigest(const Table& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const char* s) {
    for (; *s; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 1099511628211ull;
    }
  };
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Value& v = t.at(r, c);
      char buf[64];
      if (v.is_numeric()) {
        std::snprintf(buf, sizeof(buf), "n:%.17g;", v.numeric());
      } else {
        std::snprintf(buf, sizeof(buf), "c:%d;", v.category());
      }
      mix(buf);
    }
  }
  return h;
}

void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_TRUE(a.at(r, c) == b.at(r, c))
          << "cell (" << r << ", " << c << ") diverged: "
          << a.CellToString(r, c) << " vs " << b.CellToString(r, c);
    }
  }
}

/// Violation count of `table` under `dc` per the naive prefix-scan oracle
/// (row r pairs against rows < r exactly once).
int64_t NaiveViolations(const DenialConstraint& dc, const Table& table) {
  std::unique_ptr<ViolationIndex> oracle = MakeNaiveViolationIndex(dc);
  int64_t total = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    total += oracle->CountNew(table.row(r));
    oracle->AddRow(table.row(r));
  }
  return total;
}

struct ProgressiveRun {
  Table out;
  SynthesisTelemetry telemetry;
  /// Materialized copy of every delivered chunk, in delivery order.
  std::vector<TableChunk> chunks;
};

/// Trains on `ds` and synthesizes `n` rows in `num_shards` shards,
/// capturing every chunk. Model training and sampling seeds are fixed so
/// runs are comparable across thread budgets. With `collect_table` off
/// the caller consumes the run through the chunks only.
ProgressiveRun RunProgressive(const BenchmarkDataset& ds, size_t n,
                              size_t num_threads, size_t num_shards,
                              bool collect_table = true) {
  ScopedNumThreads threads(num_threads);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 8;
  options.mcmc_resamples = 40;
  options.seed = 77;
  options.num_shards = num_shards;
  Rng rng(77);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  ProgressiveRun run;
  SampleSpec spec{n};
  spec.collect_table = collect_table;
  SynthesisHooks hooks;
  hooks.on_chunk = [&run](const TableChunk& chunk) {
    run.chunks.push_back(chunk);
    return Status::OK();
  };
  Rng srng(17);
  run.out = Synthesize(model, constraints, options, spec, &srng,
                       &run.telemetry, &hooks)
                .TakeValue();
  return run;
}

TEST(ProgressiveMergeTest, OutputPureFunctionOfSeedAndShardsAcrossThreads) {
  // The acceptance grid: at num_shards=4 the thread budget must not
  // change a single bit, and the same
  // (seed, num_shards) twice must reproduce exactly.
  const BenchmarkDataset ds = MakeAdultLike(100, 13);
  const ProgressiveRun t1 = RunProgressive(ds, 120, 1, 4);
  const ProgressiveRun t4 = RunProgressive(ds, 120, 4, 4);
  const ProgressiveRun t4_again = RunProgressive(ds, 120, 4, 4);
  EXPECT_EQ(t1.telemetry.num_shards, 4u);
  ExpectSameTable(t1.out, t4.out);
  ExpectSameTable(t4.out, t4_again.out);
  EXPECT_EQ(TableDigest(t1.out), TableDigest(t4.out));
  EXPECT_EQ(t1.telemetry.merge_cross_violations,
            t4.telemetry.merge_cross_violations);
  EXPECT_EQ(t1.telemetry.merge_resamples, t4.telemetry.merge_resamples);
  EXPECT_EQ(t1.telemetry.merge_fd_rewrites, t4.telemetry.merge_fd_rewrites);
  EXPECT_EQ(t1.telemetry.merge_prefix_freezes, 4);
  EXPECT_EQ(t4.telemetry.merge_prefix_freezes, 4);
  EXPECT_EQ(t1.telemetry.merge_frozen_rows, 120);
}

TEST(ProgressiveMergeTest, ChunksTileTheInstanceInAscendingOrder) {
  const BenchmarkDataset ds = MakeAdultLike(100, 13);
  const ProgressiveRun run = RunProgressive(ds, 110, 1, 4);
  ASSERT_EQ(run.chunks.size(), 4u);
  size_t next_offset = 0;
  for (size_t s = 0; s < run.chunks.size(); ++s) {
    EXPECT_EQ(run.chunks[s].shard, s);
    EXPECT_EQ(run.chunks[s].row_offset, next_offset);
    EXPECT_EQ(run.chunks[s].last, s + 1 == run.chunks.size());
    next_offset += run.chunks[s].num_rows();
  }
  EXPECT_EQ(next_offset, run.out.num_rows());
}

TEST(ProgressiveMergeTest, HardDcsExactAfterEveryPrefixFreeze) {
  // Tax has 6 hard DCs, including two FDs sharing an RHS attribute
  // (areacode -> state, zip -> state: a shard row can bridge two frozen
  // groups, forcing the LHS re-point) and a per-state salary/rate order
  // DC (exercises the prefix-frozen envelope clamp). After every freeze
  // the delivered prefix must be exactly violation-free per the naive
  // oracle — not just at job completion.
  const BenchmarkDataset ds = MakeTaxLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  const ProgressiveRun run = RunProgressive(ds, 100, 1, 4);
  ASSERT_EQ(run.chunks.size(), 4u);
  Table prefix(run.out.schema());
  for (size_t s = 0; s < run.chunks.size(); ++s) {
    prefix.AppendRowsFrom(run.chunks[s].rows, 0, run.chunks[s].num_rows());
    for (size_t l = 0; l < constraints.size(); ++l) {
      if (!constraints[l].hard) continue;
      EXPECT_EQ(NaiveViolations(constraints[l].dc, prefix), 0)
          << "hard DC " << l << " ("
          << constraints[l].dc.ToString(ds.table.schema())
          << ") violated on the frozen prefix after freeze " << s;
    }
  }
  // The freezes' exact passes actually rewrote rows, not luck.
  EXPECT_GT(run.telemetry.merge_fd_rewrites +
                run.telemetry.merge_order_alignments,
            0);
  EXPECT_EQ(run.telemetry.merge_prefix_freezes, 4);
}

TEST(ProgressiveMergeTest, ExactPassesOwnEveryHardDcOnTaxAndTpch) {
  // Every Tax and TPC-H DC is a hard FD or a hard order DC, so an exact
  // pass owns each one: the freezes meet violations the per-shard sampling
  // left (across shards, or inside the one shard), yet the greedy repair
  // never runs, and the hard DCs still hold over every delivered prefix by
  // the naive pair scan. Each DC's frozen prefix lives only in its exact
  // pass's lookups, so the only violation indices a run builds are the
  // shards' sampling ones, one per (shard, active DC), and no cross-shard
  // pair is counted.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const BenchmarkDataset& ds :
       {MakeTaxLike(100, 13), MakeTpchLike(100, 13)}) {
    auto constraints =
        ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema())
            .TakeValue();
    int64_t active_dcs = 0;
    for (const std::vector<size_t>& at : ActivationPositions(
             SequenceSchema(ds.table.schema(), constraints), constraints)) {
      active_dcs += static_cast<int64_t>(at.size());
    }
    ASSERT_GT(active_dcs, 0) << ds.name;
    for (const size_t num_shards : {size_t{1}, size_t{4}}) {
      registry.Reset();
      registry.SetEnabled(true);
      const ProgressiveRun run = RunProgressive(ds, 100, 1, num_shards);
      int64_t built = 0;
      for (const char* kind :
           {"unary", "fd", "order", "composite", "naive", "never"}) {
        built += registry.counter(std::string("kamino.dc.index_built.") + kind)
                     ->Value();
      }
      registry.SetEnabled(false);
      registry.Reset();
      EXPECT_EQ(built, static_cast<int64_t>(num_shards) * active_dcs)
          << ds.name << " at " << num_shards << " shard(s)";
      EXPECT_GT(run.telemetry.merge_fd_rewrites +
                    run.telemetry.merge_order_alignments,
                0)
          << ds.name;
      EXPECT_EQ(run.telemetry.merge_cross_violations, 0) << ds.name;
      EXPECT_EQ(run.telemetry.merge_conflict_rows, 0) << ds.name;
      EXPECT_EQ(run.telemetry.merge_resamples, 0) << ds.name;
      EXPECT_EQ(run.telemetry.merge_budget, 0) << ds.name;
      EXPECT_EQ(run.telemetry.merge_penalty_live_row_scans, 0) << ds.name;
      ASSERT_EQ(run.chunks.size(), num_shards);
      Table prefix(run.out.schema());
      for (size_t s = 0; s < run.chunks.size(); ++s) {
        prefix.AppendRowsFrom(run.chunks[s].rows, 0,
                              run.chunks[s].num_rows());
        for (const WeightedConstraint& wc : constraints) {
          if (!wc.hard) continue;
          EXPECT_EQ(CountViolationsNaive(wc.dc, prefix), 0)
              << ds.name << " at " << num_shards << " shard(s): "
              << wc.dc.ToString(ds.table.schema())
              << " violated on the frozen prefix after freeze " << s;
        }
      }
    }
  }
}

TEST(ProgressiveMergeTest, OrderDcOnAnFdAttributeStaysRepairOwned) {
  // Adult plus two hard FDs, edu -> cap_gain and edu -> cap_loss: the
  // order DC's dependent attribute (whichever cap is sampled last) is an
  // FD's RHS, so rank alignment would rewrite a cell the FD pass owns.
  // The order DC stays with the repair instead: no cell is rank-aligned,
  // the FDs hold over every delivered prefix by the naive pair scan, and
  // the thread budget changes no bit.
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  ds.dc_specs.push_back("!(t1.edu == t2.edu & t1.cap_gain != t2.cap_gain)");
  ds.dc_specs.push_back("!(t1.edu == t2.edu & t1.cap_loss != t2.cap_loss)");
  ds.hardness.push_back(true);
  ds.hardness.push_back(true);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  for (const size_t num_shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << num_shards);
    const ProgressiveRun t1 = RunProgressive(ds, 120, 1, num_shards);
    const ProgressiveRun t4 = RunProgressive(ds, 120, 4, num_shards);
    ExpectSameTable(t1.out, t4.out);
    EXPECT_EQ(t1.telemetry.merge_order_alignments, 0);
    EXPECT_EQ(t4.telemetry.merge_order_alignments, 0);
    if (num_shards == 4) {
      // The order DC's cross-shard pairs now queue rows for the repair.
      EXPECT_GT(t1.telemetry.merge_conflict_rows, 0);
    }
    ASSERT_EQ(t1.chunks.size(), num_shards);
    Table prefix(t1.out.schema());
    for (size_t s = 0; s < t1.chunks.size(); ++s) {
      prefix.AppendRowsFrom(t1.chunks[s].rows, 0, t1.chunks[s].num_rows());
      for (const WeightedConstraint& wc : constraints) {
        if (!wc.dc.Decompose().Fd().has_value()) continue;
        EXPECT_EQ(CountViolationsNaive(wc.dc, prefix), 0)
            << wc.dc.ToString(ds.table.schema())
            << " violated on the frozen prefix after freeze " << s;
      }
    }
  }
}

TEST(ProgressiveMergeTest, FrozenPrefixNeverRewritten) {
  // Prefix immutability: every row exactly as delivered in its chunk must
  // reappear bit-identical in the final table — later freezes repair only
  // their own shard's rows.
  const BenchmarkDataset ds = MakeTaxLike(100, 13);
  const ProgressiveRun run = RunProgressive(ds, 100, 4, 4);
  ASSERT_FALSE(run.chunks.empty());
  for (const TableChunk& chunk : run.chunks) {
    const Table slice = run.out.Slice(chunk.row_offset, chunk.num_rows());
    ExpectSameTable(chunk.rows, slice);
  }
}

TEST(ProgressiveMergeTest, DefaultOffGoldenDigestUnchanged) {
  // The golden scenario (same as ShardedSamplerTest's digest pin): the
  // default num_shards=1 samples the sequential paper stream and freezes
  // it once against an empty prefix; the exact passes find nothing to
  // rewrite, so the digest stays 0x214d31f811dbdd0f.
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema())
          .TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 12;
  options.mcmc_resamples = 48;
  options.seed = 31;
  ASSERT_EQ(options.num_shards, 1u);
  Rng rng(31);
  auto model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
                   .TakeValue();
  Rng srng(17);
  SynthesisTelemetry telemetry;
  Table out = Synthesize(model, constraints, options, SampleSpec{150}, &srng,
                         &telemetry)
                  .TakeValue();
  EXPECT_EQ(TableDigest(out), 0x214d31f811dbdd0full)
      << "the one-shard output changed";
  EXPECT_EQ(telemetry.merge_prefix_freezes, 1);
}

TEST(ProgressiveMergeTest, DefaultShardedRunFreezesEveryShard) {
  // A sharded run with default options (the full pipeline, no streaming
  // hooks) reconciles through one prefix freeze per shard.
  const BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 8;
  config.options.seed = 77;
  config.options.num_shards = 4;
  auto result = RunKamino(ds.table, constraints, config);
  runtime::SetGlobalNumThreads(0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().telemetry.merge_prefix_freezes, 4);
  EXPECT_EQ(result.value().telemetry.merge_frozen_rows, 100);
}

TEST(ProgressiveMergeTest, DiscardResultDeliversChunksOnly) {
  // collect_table off behaves the same in memory as out of core: the
  // sampler returns a schema-only table and never accumulates the frozen
  // slices, while the chunks still tile [0, n) and carry the same rows
  // as a run that keeps the table.
  const BenchmarkDataset ds = MakeAdultLike(100, 13);
  const size_t n = 120;
  const ProgressiveRun kept = RunProgressive(ds, n, 1, 4);
  const ProgressiveRun discarded =
      RunProgressive(ds, n, 1, 4, /*collect_table=*/false);
  EXPECT_EQ(discarded.out.num_rows(), 0u);
  EXPECT_EQ(discarded.out.num_columns(), kept.out.num_columns());
  ASSERT_EQ(discarded.chunks.size(), 4u);
  size_t next_offset = 0;
  for (size_t s = 0; s < discarded.chunks.size(); ++s) {
    const TableChunk& chunk = discarded.chunks[s];
    EXPECT_EQ(chunk.row_offset, next_offset);
    EXPECT_EQ(chunk.last, s + 1 == discarded.chunks.size());
    ExpectSameTable(chunk.rows, kept.out.Slice(chunk.row_offset,
                                               chunk.num_rows()));
    next_offset += chunk.num_rows();
  }
  EXPECT_EQ(next_offset, n);
  // Only the slice being frozen is ever resident at one thread.
  EXPECT_LT(discarded.telemetry.peak_resident_rows, static_cast<int64_t>(n));
  EXPECT_EQ(kept.telemetry.peak_resident_rows, static_cast<int64_t>(n));
}

// ---------------------------------------------------------------------
// Unit tests of the frozen-prefix lookups (core/prefix_merge.h) on
// hand-built tables. Rows [0, frozen_end) play the frozen prefix and the
// rest the live shard, as at a shard freeze.
// ---------------------------------------------------------------------

/// Replaces rows [frozen_end, n) of `t` with `live`.
void WriteBackLive(Table* t, size_t frozen_end, const Table& live) {
  Table out = t->Slice(0, frozen_end);
  out.AppendRowsFrom(live, 0, live.num_rows());
  *t = std::move(out);
}

/// Absorbs rows [0, frozen_end) of `t` as one frozen slice, canonicalizes
/// the rest as the live table, and writes it back. Returns cells
/// rewritten.
int64_t CanonicalizeLive(Table* t, const std::vector<PrefixFdFamily>& families,
                         size_t frozen_end) {
  FrozenFdLookups lookups(families);
  lookups.Absorb(t->Slice(0, frozen_end), 0);
  Table live = t->Slice(frozen_end, t->num_rows() - frozen_end);
  const int64_t rewrites = lookups.Canonicalize(&live);
  WriteBackLive(t, frozen_end, live);
  return rewrites;
}

/// Per attribute: whether some row of `after` differs from `before`.
std::vector<bool> ChangedAttrs(const Table& before, const Table& after) {
  std::vector<bool> changed(before.num_columns(), false);
  for (size_t r = 0; r < before.num_rows(); ++r) {
    for (size_t c = 0; c < before.num_columns(); ++c) {
      if (!(before.at(r, c) == after.at(r, c))) changed[c] = true;
    }
  }
  return changed;
}

/// Absorbs rows [0, frozen_end) of `t` as one frozen slice, aligns the
/// rest as the live table, and writes it back. Returns cells rewritten.
int64_t AlignLive(Table* t, const PrefixAlignSpec& spec, size_t frozen_end) {
  FrozenAlignLookups lookups(spec);
  lookups.Absorb(t->Slice(0, frozen_end));
  Table live = t->Slice(frozen_end, t->num_rows() - frozen_end);
  const int64_t moved = lookups.Align(&live);
  WriteBackLive(t, frozen_end, live);
  return moved;
}

/// Schema of three numeric attributes g, x, y (group, context, dependent).
Table NumericTable(const std::vector<std::vector<double>>& rows) {
  Schema schema({Attribute::MakeNumeric("g", 0.0, 1000.0, 16),
                 Attribute::MakeNumeric("x", 0.0, 1000.0, 16),
                 Attribute::MakeNumeric("y", 0.0, 1000.0, 16)});
  Table t(schema);
  for (const auto& r : rows) {
    Row row;
    for (double v : r) row.push_back(Value::Numeric(v));
    KAMINO_CHECK(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

PrefixAlignSpec GroupedSpec(bool co_monotone) {
  PrefixAlignSpec spec;
  spec.group_attrs = {0};
  spec.ctx_attr = 1;
  spec.dep_attr = 2;
  spec.co_monotone = co_monotone;
  return spec;
}

int64_t AlignViolations(const Table& t, const PrefixAlignSpec& spec) {
  // Strict inversions within each group under the oriented order: the
  // quantity FrozenAlignLookups::Align must zero.
  int64_t violations = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      bool same_group = true;
      for (size_t a : spec.group_attrs) {
        same_group = same_group && t.at(i, a) == t.at(j, a);
      }
      if (!same_group) continue;
      const double xi = t.at(i, spec.ctx_attr).numeric();
      const double xj = t.at(j, spec.ctx_attr).numeric();
      double yi = t.at(i, spec.dep_attr).numeric();
      double yj = t.at(j, spec.dep_attr).numeric();
      if (!spec.co_monotone) {
        yi = -yi;
        yj = -yj;
      }
      if ((xi < xj && yi > yj) || (xj < xi && yj > yi)) ++violations;
    }
  }
  return violations;
}

TEST(PrefixRankAlignTest, SlotsNewRowsIntoFrozenMonotoneRelation) {
  // Frozen rows (group 0): x = 10/20/30 -> y = 1/5/9, weakly monotone.
  // Suffix rows arrive out of order and out of envelope.
  Table t = NumericTable({{0, 10, 1},
                          {0, 20, 5},
                          {0, 30, 9},
                          {0, 25, 0},    // below lo(25) = 5
                          {0, 15, 100},  // above hi(15) = 5
                          {0, 35, 2}});
  const PrefixAlignSpec spec = GroupedSpec(true);
  EXPECT_GT(AlignViolations(t, spec), 0);
  const int64_t moved = AlignLive(&t, spec, 3);
  EXPECT_GT(moved, 0);
  EXPECT_EQ(AlignViolations(t, spec), 0);
  // Frozen cells untouched.
  EXPECT_EQ(t.at(0, 2).numeric(), 1.0);
  EXPECT_EQ(t.at(1, 2).numeric(), 5.0);
  EXPECT_EQ(t.at(2, 2).numeric(), 9.0);
}

TEST(PrefixRankAlignTest, AntiMonotoneOrientation) {
  // Anti-monotone: y must weakly *decrease* in x. Frozen: x=10 -> y=9,
  // x=30 -> y=1. A suffix row at x=20 with y=100 must clamp into [1, 9]
  // (oriented), i.e. its y lands between the frozen neighbours.
  Table t = NumericTable({{0, 10, 9}, {0, 30, 1}, {0, 20, 100}});
  const PrefixAlignSpec spec = GroupedSpec(false);
  AlignLive(&t, spec, 2);
  EXPECT_EQ(AlignViolations(t, spec), 0);
  const double y = t.at(2, 2).numeric();
  EXPECT_LE(y, 9.0);
  EXPECT_GE(y, 1.0);
}

TEST(PrefixRankAlignTest, GroupsAlignIndependently) {
  // Two groups; group 1's frozen relation must not constrain group 2.
  Table t = NumericTable({{1, 10, 5},
                          {2, 10, 50},
                          {1, 20, 2},     // group 1 suffix, below lo = 5
                          {2, 20, 10}});  // group 2 suffix, below lo = 50
  const PrefixAlignSpec spec = GroupedSpec(true);
  AlignLive(&t, spec, 2);
  EXPECT_EQ(AlignViolations(t, spec), 0);
  EXPECT_EQ(t.at(2, 2).numeric(), 5.0);   // clamped to group 1's lo
  EXPECT_EQ(t.at(3, 2).numeric(), 50.0);  // clamped to group 2's lo
}

TEST(PrefixRankAlignTest, EmptyFrozenPrefixIsPlainRankAlignment) {
  // frozen_end = 0 degenerates to the global rank alignment restricted to
  // the suffix: the dependent values are a permutation of the originals.
  Table t = NumericTable({{0, 30, 1}, {0, 10, 9}, {0, 20, 5}});
  const PrefixAlignSpec spec = GroupedSpec(true);
  AlignLive(&t, spec, 0);
  EXPECT_EQ(AlignViolations(t, spec), 0);
  EXPECT_EQ(t.at(0, 2).numeric(), 9.0);  // x=30 takes the largest y
  EXPECT_EQ(t.at(1, 2).numeric(), 1.0);
  EXPECT_EQ(t.at(2, 2).numeric(), 5.0);
}

TEST(PrefixRankAlignTest, PreservesSuffixMultisetWhenEnvelopeIsLoose) {
  // Envelope wide open: the suffix keeps its own values, rank-permuted.
  Table t = NumericTable({{0, 10, 0},
                          {0, 50, 100},
                          {0, 30, 40},
                          {0, 20, 60},
                          {0, 40, 20}});
  const PrefixAlignSpec spec = GroupedSpec(true);
  AlignLive(&t, spec, 2);
  EXPECT_EQ(AlignViolations(t, spec), 0);
  EXPECT_EQ(t.at(3, 2).numeric(), 20.0);  // x=20 -> smallest suffix y
  EXPECT_EQ(t.at(2, 2).numeric(), 40.0);
  EXPECT_EQ(t.at(4, 2).numeric(), 60.0);
}

TEST(PrefixRankAlignTest, TiedContextsImposeNoConstraint) {
  // A frozen row at the same context as the suffix row bounds nothing:
  // ties never violate an order DC.
  Table t = NumericTable({{0, 10, 5}, {0, 10, 999}});
  const PrefixAlignSpec spec = GroupedSpec(true);
  const int64_t moved = AlignLive(&t, spec, 1);
  EXPECT_EQ(moved, 0);
  EXPECT_EQ(t.at(1, 2).numeric(), 999.0);
}

TEST(PrefixRankAlignTest, AlignInvariantToFrozenSlicing) {
  // A freeze absorbs the frozen prefix one slice at a time. Absorbing the
  // same nine frozen rows whole or as three slices must give the same
  // envelope — here with contexts tied across slices (x=10, 20 and 30 of
  // group 0 each appear in two slices) — so the live rows align alike.
  const Table frozen = NumericTable({{0, 10, 1}, {0, 20, 5}, {1, 10, 50},
                                     {0, 20, 3}, {0, 30, 9}, {1, 20, 60},
                                     {0, 10, 2}, {0, 30, 7}, {1, 10, 40}});
  const Table live = NumericTable({{0, 20, 100}, {0, 15, 0}, {0, 30, 1},
                                   {0, 5, 8}, {1, 10, 0}, {1, 15, 70},
                                   {2, 1, 1}});
  for (const bool co_monotone : {true, false}) {
    FrozenAlignLookups whole(GroupedSpec(co_monotone));
    FrozenAlignLookups sliced(GroupedSpec(co_monotone));
    whole.Absorb(frozen);
    for (size_t begin = 0; begin < 9; begin += 3) {
      sliced.Absorb(frozen.Slice(begin, 3));
    }
    Table a = live;
    Table b = live;
    const int64_t moved = whole.Align(&a);
    EXPECT_GT(moved, 0);
    EXPECT_EQ(moved, sliced.Align(&b)) << "co_monotone=" << co_monotone;
    ExpectSameTable(a, b);
  }
}

/// Schema of four categorical attributes a, b, c, d for the FD tests.
Table CategoricalTable(const std::vector<std::vector<int32_t>>& rows) {
  // Category dictionaries sized generously; indices are what matter.
  std::vector<Attribute> attrs;
  for (const char* name : {"a", "b", "c", "d"}) {
    std::vector<std::string> cats;
    for (int i = 0; i < 16; ++i) {
      cats.push_back(std::string(name) + "_" + std::to_string(i));
    }
    attrs.push_back(Attribute::MakeCategorical(name, std::move(cats)));
  }
  Table t(Schema(std::move(attrs)));
  for (const auto& r : rows) {
    Row row;
    for (int32_t v : r) row.push_back(Value::Categorical(v));
    KAMINO_CHECK(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

TEST(ProgressiveMergeTest, PrefixFdCanonicalizeAdoptsFrozenValue) {
  // FD a -> c. Frozen: a=0 -> c=1, a=1 -> c=2. A suffix row with a=0 must
  // adopt c=1; a suffix-only key (a=2) canonicalizes internally to its
  // smallest member's value.
  Table t = CategoricalTable({{0, 0, 1, 0},
                              {1, 0, 2, 0},
                              {0, 0, 5, 0},
                              {2, 0, 7, 0},
                              {2, 0, 8, 0}});
  PrefixFdFamily family;
  family.rhs = 2;
  family.lhs_sets = {{0}};
  const Table before = t;
  const int64_t rewrites = CanonicalizeLive(&t, {family}, 2);
  EXPECT_EQ(rewrites, 2);
  EXPECT_TRUE(ChangedAttrs(before, t)[2]);
  EXPECT_EQ(t.at(2, 2).category(), 1);  // adopted frozen canonical
  EXPECT_EQ(t.at(3, 2).category(), 7);  // suffix-internal canonical
  EXPECT_EQ(t.at(4, 2).category(), 7);
  EXPECT_EQ(t.at(0, 2).category(), 1);  // frozen untouched
  EXPECT_EQ(t.at(1, 2).category(), 2);
}

TEST(ProgressiveMergeTest, BridgingRowRepointsLhsAtAdoptedRepresentative) {
  // Two FDs sharing RHS c: a -> c and b -> c (the tax state shape).
  // Frozen: (a=0, b=0) -> c=1 and (a=1, b=1) -> c=2. The suffix row
  // (a=0, b=1) bridges both frozen groups; since frozen rows cannot move,
  // it must adopt the smaller representative's value (c=1) and re-point
  // its b key at that representative (b=0) so both FDs hold.
  Table t = CategoricalTable({{0, 0, 1, 0}, {1, 1, 2, 0}, {0, 1, 9, 0}});
  PrefixFdFamily family;
  family.rhs = 2;
  family.lhs_sets = {{0}, {1}};
  const Table before = t;
  CanonicalizeLive(&t, {family}, 2);
  EXPECT_EQ(t.at(2, 2).category(), 1);
  EXPECT_EQ(t.at(2, 1).category(), 0);
  EXPECT_EQ(t.at(2, 0).category(), 0);
  EXPECT_TRUE(ChangedAttrs(before, t)[1]);
  // Both FDs now exact over the whole table.
  for (size_t lhs : {size_t{0}, size_t{1}}) {
    for (size_t i = 0; i < t.num_rows(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (t.at(i, lhs) == t.at(j, lhs)) {
          EXPECT_TRUE(t.at(i, 2) == t.at(j, 2));
        }
      }
    }
  }
  // Frozen rows byte-identical.
  EXPECT_EQ(t.at(0, 2).category(), 1);
  EXPECT_EQ(t.at(1, 2).category(), 2);
}

TEST(ProgressiveMergeTest, FdCanonicalizationCascadesAcrossFamilies) {
  // a -> c and c -> d chained: adopting c's frozen value changes the key
  // of the c -> d family, which the next round must re-canonicalize.
  Table t = CategoricalTable({{0, 0, 1, 5},   // frozen: a=0 -> c=1, c=1 -> d=5
                              {0, 0, 3, 9}});  // suffix: wrong c AND wrong d
  PrefixFdFamily ac;
  ac.rhs = 2;
  ac.lhs_sets = {{0}};
  PrefixFdFamily cd;
  cd.rhs = 3;
  cd.lhs_sets = {{2}};
  CanonicalizeLive(&t, {ac, cd}, 1);
  EXPECT_EQ(t.at(1, 2).category(), 1);
  EXPECT_EQ(t.at(1, 3).category(), 5);
}

TEST(ProgressiveMergeTest, FdCanonicalizeInvariantToFrozenSlicing) {
  // A freeze absorbs the frozen prefix one slice at a time. Absorbing the
  // same nine FD-exact frozen rows (a -> c, b -> c, c -> d) whole or as
  // three slices must canonicalize the live rows alike. Keys repeat
  // across slices, and two live rows bridge frozen groups whose adopted
  // representative lies in a later slice (rows 3 and 6), so the LHS
  // re-point reads values captured from that slice.
  const Table frozen = CategoricalTable({{0, 0, 1, 5}, {1, 1, 2, 6},
                                         {0, 0, 1, 5}, {2, 2, 3, 7},
                                         {1, 1, 2, 6}, {3, 0, 1, 5},
                                         {4, 4, 4, 8}, {2, 5, 3, 7},
                                         {5, 1, 2, 6}});
  const Table live = CategoricalTable({{0, 1, 9, 0},    // bridges rows 0, 1
                                       {3, 2, 7, 1},    // bridges rows 5, 3
                                       {6, 6, 9, 9},    // live-only keys
                                       {6, 7, 8, 2},    // joins the row above
                                       {5, 4, 0, 0}});  // bridges rows 8, 6
  PrefixFdFamily ac;
  ac.rhs = 2;
  ac.lhs_sets = {{0}, {1}};
  PrefixFdFamily cd;
  cd.rhs = 3;
  cd.lhs_sets = {{2}};
  FrozenFdLookups whole({ac, cd});
  FrozenFdLookups sliced({ac, cd});
  whole.Absorb(frozen, 0);
  for (size_t begin = 0; begin < 9; begin += 3) {
    sliced.Absorb(frozen.Slice(begin, 3), begin);
  }
  Table a = live;
  Table b = live;
  const int64_t rewrites = whole.Canonicalize(&a);
  EXPECT_GT(rewrites, 0);
  EXPECT_EQ(rewrites, sliced.Canonicalize(&b));
  ExpectSameTable(a, b);
  // The bridging rows adopted the later-slice representative's values.
  EXPECT_EQ(a.at(1, 0).category(), 2);
  EXPECT_EQ(a.at(1, 2).category(), 3);
  EXPECT_EQ(a.at(4, 0).category(), 4);
  EXPECT_EQ(a.at(4, 2).category(), 4);
}

}  // namespace
}  // namespace kamino
