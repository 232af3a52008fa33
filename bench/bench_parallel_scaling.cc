// Parallel-runtime scaling: throughput of the three wired hot paths —
// BuildViolationMatrix (Algorithm 5), constraint-aware synthesis
// (Algorithm 3) and DP-SGD training (Algorithm 2) — at 1/2/4/N threads on
// the generated 600-row Adult workload, plus a cross-thread-count
// determinism check, the 1/2/4/8 shard sweep, the constrained MCMC pass
// at 1 and 4 shards, the sorted order-DC and composite mixed-DC engines vs
// the naive pair scan at growing n, per-candidate vs batched order-DC
// candidate scoring, and the columnar core (packed-key
// index build, block shard merge, chunk codec) vs the boxed row-oriented
// equivalents. Emits BENCH_parallel.json for the perf trajectory.

#include <algorithm>
#include <chrono>
#include <limits>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "kamino/data/chunk_codec.h"
#include "kamino/dc/violations.h"
#include "kamino/obs/metrics.h"
#include "kamino/obs/trace.h"
#include "kamino/runtime/thread_pool.h"
#include "kamino/service/engine.h"

namespace kamino::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall-clock seconds for `fn` (best-of damps scheduler
/// noise, which dwarfs variance on loaded CI machines).
template <typename Fn>
double TimeBest(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double start = Now();
    fn();
    best = std::min(best, Now() - start);
  }
  return best;
}

/// `RunKamino` `reps` times with one config, hence one output: the last
/// result, with its training, sampling and shard-merge timings each the
/// best over the runs, and `*total` (optional) the best wall clock of the
/// call.
KaminoResult RunKaminoBest(int reps, const Table& data,
                           const std::vector<WeightedConstraint>& constraints,
                           const KaminoConfig& config,
                           double* total = nullptr) {
  KaminoResult last;
  PhaseTimings best;
  double best_total = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double start = Now();
    auto result = RunKamino(data, constraints, config);
    best_total = std::min(best_total, Now() - start);
    KAMINO_CHECK(result.ok()) << result.status().ToString();
    last = std::move(result).TakeValue();
    const PhaseTimings& ph = last.timings;
    if (r == 0) best = ph;
    best.training = std::min(best.training, ph.training);
    best.sampling = std::min(best.sampling, ph.sampling);
    best.shard_merge = std::min(best.shard_merge, ph.shard_merge);
  }
  last.timings = best;
  if (total != nullptr) *total = best_total;
  return last;
}

std::vector<size_t> ThreadCounts() {
  std::vector<size_t> counts = {1, 2, 4};
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

bool SameTable(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!(a.at(r, c) == b.at(r, c))) return false;
    }
  }
  return true;
}

int Main() {
  PrintHeader("Parallel runtime scaling (600-row Adult workload)");
  const BenchmarkDataset ds = MakeAdultLike(kDefaultRows, kSeed);
  const std::vector<WeightedConstraint> constraints = Constraints(ds);
  const size_t rows = ds.table.num_rows();
  std::vector<BenchRecord> records;

  // --- Hot path 1: the |D| x |Phi| violation matrix (Algorithm 5). ---
  std::printf("\n%-28s %8s %12s %10s\n", "method", "threads", "seconds",
              "speedup");
  double matrix_serial = 0.0;
  for (size_t t : ThreadCounts()) {
    runtime::SetGlobalNumThreads(t);
    const double secs = TimeBest(
        3, [&] { (void)BuildViolationMatrix(ds.table, constraints); });
    if (t == 1) matrix_serial = secs;
    records.push_back({"build_violation_matrix", rows, t, secs});
    std::printf("%-28s %8zu %12.4f %9.2fx\n", "build_violation_matrix", t,
                secs, matrix_serial / secs);
  }

  // --- Hot path 1b: the naive pair scan (general binary DCs). ---
  const DenialConstraint* binary_dc = nullptr;
  for (const WeightedConstraint& wc : constraints) {
    if (!wc.dc.is_unary()) binary_dc = &wc.dc;
  }
  if (binary_dc != nullptr) {
    double naive_serial = 0.0;
    for (size_t t : ThreadCounts()) {
      runtime::SetGlobalNumThreads(t);
      const double secs = TimeBest(
          3, [&] { (void)CountViolationsNaive(*binary_dc, ds.table); });
      if (t == 1) naive_serial = secs;
      records.push_back({"count_violations_naive", rows, t, secs});
      std::printf("%-28s %8zu %12.4f %9.2fx\n", "count_violations_naive", t,
                  secs, naive_serial / secs);
    }
  }

  // --- Hot paths 2+3: full pipeline (DP-SGD training + sampling), with
  // per-phase timings (best of 3) and the determinism guarantee checked
  // for real. ---
  PhaseTimings serial_timings;
  Table serial_output;
  bool deterministic = true;
  for (size_t t : ThreadCounts()) {
    KaminoConfig config = BenchKaminoConfig(1.0, kSeed);
    config.options.num_threads = t;
    config.options.mcmc_resamples = 64;  // exercise the batched MCMC pass
    double total = 0.0;
    const KaminoResult result =
        RunKaminoBest(3, ds.table, constraints, config, &total);
    const PhaseTimings& ph = result.timings;
    if (t == 1) {
      serial_timings = ph;
      serial_output = result.synthetic;
    } else if (!SameTable(serial_output, result.synthetic)) {
      deterministic = false;
    }
    records.push_back({"pipeline_training", rows, t, ph.training});
    records.push_back({"pipeline_sampling", rows, t, ph.sampling});
    records.push_back({"pipeline_total", rows, t, total});
    std::printf("%-28s %8zu %12.4f %9.2fx\n", "pipeline_training", t,
                ph.training, serial_timings.training / ph.training);
    std::printf("%-28s %8zu %12.4f %9.2fx\n", "pipeline_sampling", t,
                ph.sampling, serial_timings.sampling / ph.sampling);
  }
  std::printf("\nsynthetic output across thread counts: %s\n",
              deterministic ? "IDENTICAL (bit-exact)" : "MISMATCH");

  // --- Hot path 4: shard-parallel synthesis (shard-count sweep). ---
  // Each shard count is its own output contract — (seed, num_shards)
  // determines the instance — so the sweep reports per-configuration
  // sampling time (best of 3) plus the cross-thread-count determinism
  // check at every shard count.
  std::printf("\n%-28s %8s %12s %12s\n", "method", "shards", "seconds",
              "merge-sec");
  bool shards_deterministic = true;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Table reference;
    for (size_t t : {size_t{1}, size_t{4}}) {
      KaminoConfig config = BenchKaminoConfig(1.0, kSeed);
      config.options.num_threads = t;
      config.options.num_shards = shards;
      config.options.mcmc_resamples = 64;
      const KaminoResult result =
          RunKaminoBest(3, ds.table, constraints, config);
      if (t == 1) {
        reference = result.synthetic;
      } else if (!SameTable(reference, result.synthetic)) {
        shards_deterministic = false;
      }
      const PhaseTimings& ph = result.timings;
      records.push_back({"sampling_shards" + std::to_string(shards), rows, t,
                         ph.sampling});
      records.push_back({"shard_merge_shards" + std::to_string(shards), rows,
                         t, ph.shard_merge});
      if (t == 4) {
        std::printf("%-28s %8zu %12.4f %12.4f\n", "sampling_shards", shards,
                    ph.sampling, ph.shard_merge);
      }
    }
  }
  std::printf("\nsharded output across thread counts: %s\n",
              shards_deterministic ? "IDENTICAL (bit-exact)" : "MISMATCH");

  // --- Hot path 4b: constrained MCMC (Algorithm 3 line 12). ---
  // One fit with 1000 re-samples per unit, synthesized at 2400 and 9600
  // rows at 1 and 4 shards, each at 1 and 4 threads (both timed); the
  // 4-thread output is checked bit-identical against the 1-thread one. At
  // 1 shard the 4-thread row times the parallel MCMC batches.
  std::printf("\n%-28s %8s %8s %12s %12s\n", "method", "rows", "shards",
              "1t-seconds", "4t-seconds");
  bool mcmc_deterministic = true;
  {
    KaminoEngine engine;
    KaminoConfig config = BenchKaminoConfig(1.0, kSeed);
    config.options.mcmc_resamples = 1000;
    auto model = engine.Fit(ds.table, constraints, config);
    KAMINO_CHECK(model.ok()) << model.status();
    for (size_t mcmc_rows : {size_t{2400}, size_t{9600}}) {
      for (size_t shards : {size_t{1}, size_t{4}}) {
        SynthesisRequest request;
        request.seed = 7;
        request.num_rows = mcmc_rows;
        request.num_shards = shards;
        request.num_threads = 1;
        auto serial = engine.Synthesize(model.value(), request);
        KAMINO_CHECK(serial.ok()) << serial.status();
        request.num_threads = 4;
        auto parallel = engine.Synthesize(model.value(), request);
        KAMINO_CHECK(parallel.ok()) << parallel.status();
        if (!SameTable(serial.value().synthetic,
                       parallel.value().synthetic)) {
          mcmc_deterministic = false;
        }
        const std::string method =
            "mcmc_sampling_shards" + std::to_string(shards);
        const double secs = serial.value().sampling_seconds;
        const double secs4 = parallel.value().sampling_seconds;
        records.push_back({method, mcmc_rows, 1, secs});
        records.push_back({method, mcmc_rows, 4, secs4});
        std::printf("%-28s %8zu %8zu %12.4f %12.4f\n", method.c_str(),
                    mcmc_rows, shards, secs, secs4);
      }
    }
  }
  runtime::SetGlobalNumThreads(0);
  std::printf("\nMCMC output across thread counts: %s\n",
              mcmc_deterministic ? "IDENTICAL (bit-exact)" : "MISMATCH");

  // --- Hot path 4c: the shard freeze on Tax. ---
  // One Tax fit, synthesized at 4 shards at 600, 2400 and 9600 rows, each
  // at 1 and 4 threads. The row is the run's summed freeze wall time
  // (`telemetry.merge_seconds`: conflict detection, repair, FD
  // canonicalization, rank alignment, the index fold and emit), best of
  // 3. The 4-thread output must equal the 1-thread one.
  std::printf("\n%-28s %8s %12s %12s\n", "method", "rows", "1t-seconds",
              "4t-seconds");
  bool freeze_deterministic = true;
  {
    const BenchmarkDataset tax = MakeTaxLike(kDefaultRows, kSeed);
    KaminoEngine engine;
    auto model =
        engine.Fit(tax.table, Constraints(tax), BenchKaminoConfig(1.0, kSeed));
    KAMINO_CHECK(model.ok()) << model.status();
    for (size_t freeze_rows : {size_t{600}, size_t{2400}, size_t{9600}}) {
      const size_t threads[2] = {1, 4};
      double secs[2];
      Table outputs[2];
      for (size_t k = 0; k < 2; ++k) {
        SynthesisRequest request;
        request.seed = 7;
        request.num_rows = freeze_rows;
        request.num_shards = 4;
        request.num_threads = threads[k];
        secs[k] = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 3; ++rep) {
          auto result = engine.Synthesize(model.value(), request);
          KAMINO_CHECK(result.ok()) << result.status();
          secs[k] =
              std::min(secs[k], result.value().telemetry.merge_seconds);
          outputs[k] = std::move(result.value().synthetic);
        }
        records.push_back(
            {"freeze_tax_shards4", freeze_rows, threads[k], secs[k]});
      }
      if (!SameTable(outputs[0], outputs[1])) freeze_deterministic = false;
      std::printf("%-28s %8zu %12.4f %12.4f\n", "freeze_tax_shards4",
                  freeze_rows, secs[0], secs[1]);
    }
  }
  runtime::SetGlobalNumThreads(0);
  std::printf("\nTax freeze output across thread counts: %s\n",
              freeze_deterministic ? "IDENTICAL (bit-exact)" : "MISMATCH");

  // --- Hot path 5: sorted order-DC violation engine. ---
  // Naive pair scan vs the sorted Fenwick/block-list engine on the Tax
  // workload's grouped order DC (per-state salary/rate), at growing n:
  // full counting and the sampler-shaped incremental CountNew/AddRow
  // commit loop. Single-threaded so the ratio is purely algorithmic.
  runtime::SetGlobalNumThreads(1);
  std::printf("\n%-28s %8s %12s %12s %9s\n", "method", "rows", "naive-sec",
              "sorted-sec", "speedup");
  bool order_counts_agree = true;
  for (size_t n : {size_t{600}, size_t{2400}, size_t{9600}}) {
    const BenchmarkDataset tax = MakeTaxLike(n, kSeed);
    const std::vector<WeightedConstraint> tax_dcs = Constraints(tax);
    const DenialConstraint* order_dc = nullptr;
    for (const WeightedConstraint& wc : tax_dcs) {
      if (wc.dc.AsGroupedOrderSpec().has_value()) order_dc = &wc.dc;
    }
    KAMINO_CHECK(order_dc != nullptr) << "tax workload lost its order DC";
    if (CountViolations(*order_dc, tax.table) !=
        CountViolationsNaive(*order_dc, tax.table)) {
      order_counts_agree = false;
    }
    const double naive_count = TimeBest(
        2, [&] { (void)CountViolationsNaive(*order_dc, tax.table); });
    const double sorted_count =
        TimeBest(2, [&] { (void)CountViolations(*order_dc, tax.table); });
    records.push_back({"order_count_naive", n, 1, naive_count});
    records.push_back({"order_count_sorted", n, 1, sorted_count});
    std::printf("%-28s %8zu %12.4f %12.4f %8.1fx\n", "order_count", n,
                naive_count, sorted_count, naive_count / sorted_count);
    // The incremental commit loop: score every row against the prefix,
    // then add it — the shape of Algorithm 3's per-candidate scoring.
    auto run_index = [&](std::unique_ptr<ViolationIndex> index) {
      int64_t sum = 0;
      for (size_t i = 0; i < tax.table.num_rows(); ++i) {
        sum += index->CountNew(tax.table.row(i));
        index->AddRow(tax.table.row(i));
      }
      return sum;
    };
    int64_t naive_sum = 0;
    int64_t sorted_sum = 0;
    const double naive_index = TimeBest(
        2, [&] { naive_sum = run_index(MakeNaiveViolationIndex(*order_dc)); });
    const double sorted_index = TimeBest(
        2, [&] { sorted_sum = run_index(MakeViolationIndex(*order_dc)); });
    if (naive_sum != sorted_sum) order_counts_agree = false;
    records.push_back({"order_index_naive", n, 1, naive_index});
    records.push_back({"order_index_sorted", n, 1, sorted_index});
    std::printf("%-28s %8zu %12.4f %12.4f %8.1fx\n", "order_index", n,
                naive_index, sorted_index, naive_index / sorted_index);
  }
  std::printf("\norder-DC sorted vs naive counts: %s\n",
              order_counts_agree ? "IDENTICAL (exact)" : "MISMATCH");

  // --- Hot path 5b: scoring a candidate set against the order index. ---
  // The sampler's shape on Adult's cap_gain/cap_loss DC: each committed
  // row is preceded by ~30 cap_gain candidates sharing its cap_loss (the
  // unit sets the DC's x). Per-candidate scoring calls CountNew on a
  // scratch row for each; batched scoring makes one CountNewBatch call per
  // row. Single-threaded; the two must agree on every count.
  std::printf("\n%-28s %8s %12s %12s %9s\n", "method", "rows", "single-sec",
              "batched-sec", "speedup");
  bool scoring_counts_agree = true;
  for (size_t n : {size_t{600}, size_t{2400}, size_t{9600}}) {
    const BenchmarkDataset adult = MakeAdultLike(n, kSeed);
    const std::vector<WeightedConstraint> adult_dcs = Constraints(adult);
    const DenialConstraint* order_dc = nullptr;
    for (const WeightedConstraint& wc : adult_dcs) {
      if (wc.dc.AsGroupedOrderSpec().has_value()) order_dc = &wc.dc;
    }
    KAMINO_CHECK(order_dc != nullptr) << "adult workload lost its order DC";
    const std::vector<size_t> attrs = {
        adult.table.schema().IndexOf("cap_gain").value()};
    constexpr size_t kCandidates = 30;
    // Candidate cap_gain values per row: drawn from the table's column,
    // so the zero-heavy x ties and the spread tail both appear.
    Rng pick(kSeed);
    std::vector<Value> values(n * kCandidates);
    for (Value& v : values) {
      v = adult.table.at(
          static_cast<size_t>(pick.UniformInt(0, static_cast<int64_t>(n) - 1)),
          attrs[0]);
    }
    std::vector<int64_t> single_counts(n * kCandidates);
    std::vector<int64_t> batched_counts(n * kCandidates);
    const double single = TimeBest(2, [&] {
      auto index = MakeViolationIndex(*order_dc);
      for (size_t i = 0; i < n; ++i) {
        Row scratch = adult.table.row(i);
        for (size_t c = 0; c < kCandidates; ++c) {
          scratch[attrs[0]] = values[i * kCandidates + c];
          single_counts[i * kCandidates + c] = index->CountNew(scratch);
        }
        index->AddRow(adult.table.row(i));
      }
    });
    const double batched = TimeBest(2, [&] {
      auto index = MakeViolationIndex(*order_dc);
      for (size_t i = 0; i < n; ++i) {
        const Row row = adult.table.row(i);
        index->CountNewBatch(row, attrs, values.data() + i * kCandidates,
                             kCandidates,
                             batched_counts.data() + i * kCandidates);
        index->AddRow(row);
      }
    });
    if (single_counts != batched_counts) scoring_counts_agree = false;
    records.push_back({"order_scoring_per_candidate", n, 1, single});
    records.push_back({"order_scoring_batched", n, 1, batched});
    std::printf("%-28s %8zu %12.4f %12.4f %8.1fx\n", "order_scoring", n,
                single, batched, single / batched);
  }
  std::printf("\norder-DC batched vs per-candidate counts: %s\n",
              scoring_counts_agree ? "IDENTICAL (exact)" : "MISMATCH");

  // --- Hot path 5c: scoring a histogram unit's whole domain against an
  // FD index. --- Tax's zip is a histogram unit and the single LHS of
  // zip -> state, so each committed row is preceded by a score of every
  // zip code, in index order, over the row (its state is the RHS).
  // Per-candidate scoring calls CountNew on a scratch row for each code;
  // batched scoring makes one CountNewBatch call per row. Single-threaded;
  // the two must agree on every count. Each row's counts fold into an
  // FNV-1a digest per method rather than being stored (n x 300 counts
  // would make both loops memory-bound).
  auto fold_counts = [](uint64_t digest, const std::vector<int64_t>& counts) {
    for (int64_t c : counts) {
      digest ^= static_cast<uint64_t>(c);
      digest *= 1099511628211ull;
    }
    return digest;
  };
  std::printf("\n%-28s %8s %12s %12s %9s\n", "method", "rows", "single-sec",
              "batched-sec", "speedup");
  bool fd_scoring_counts_agree = true;
  for (size_t n : {size_t{600}, size_t{2400}, size_t{9600}}) {
    const BenchmarkDataset tax = MakeTaxLike(n, kSeed);
    const std::vector<WeightedConstraint> tax_dcs = Constraints(tax);
    const Schema& schema = tax.table.schema();
    const size_t zip = schema.IndexOf("zip").value();
    const size_t state = schema.IndexOf("state").value();
    const DenialConstraint* fd_dc = nullptr;
    for (const WeightedConstraint& wc : tax_dcs) {
      const std::optional<FdSpec> fd = wc.dc.Decompose().Fd();
      if (fd.has_value() && fd->lhs == std::vector<size_t>{zip} &&
          fd->rhs == state) {
        fd_dc = &wc.dc;
      }
    }
    KAMINO_CHECK(fd_dc != nullptr) << "tax workload lost zip -> state";
    const std::vector<size_t> attrs = {zip};
    const size_t domain = schema.attribute(zip).categories().size();
    std::vector<Value> values;
    for (size_t k = 0; k < domain; ++k) {
      values.push_back(Value::Categorical(static_cast<int32_t>(k)));
    }
    std::vector<int64_t> counts(domain);
    uint64_t single_digest = 0;
    uint64_t batched_digest = 0;
    const double single = TimeBest(2, [&] {
      auto index = MakeViolationIndex(*fd_dc);
      single_digest = 1469598103934665603ull;
      for (size_t i = 0; i < n; ++i) {
        Row scratch = tax.table.row(i);
        for (size_t c = 0; c < domain; ++c) {
          scratch[zip] = values[c];
          counts[c] = index->CountNew(scratch);
        }
        single_digest = fold_counts(single_digest, counts);
        index->AddRow(tax.table.row(i));
      }
    });
    const double batched = TimeBest(2, [&] {
      auto index = MakeViolationIndex(*fd_dc);
      batched_digest = 1469598103934665603ull;
      for (size_t i = 0; i < n; ++i) {
        const Row row = tax.table.row(i);
        index->CountNewBatch(row, attrs, values.data(), domain,
                             counts.data());
        batched_digest = fold_counts(batched_digest, counts);
        index->AddRow(row);
      }
    });
    if (single_digest != batched_digest) fd_scoring_counts_agree = false;
    records.push_back({"fd_scoring_per_candidate", n, 1, single});
    records.push_back({"fd_scoring_batched", n, 1, batched});
    std::printf("%-28s %8zu %12.4f %12.4f %8.1fx\n", "fd_scoring", n,
                single, batched, single / batched);
  }
  std::printf("\nFD batched vs per-candidate counts: %s\n",
              fd_scoring_counts_agree ? "IDENTICAL (exact)" : "MISMATCH");

  // --- Hot path 6: composite violation engine for mixed-shape DCs. ---
  // Binary DCs combining equality scope, strict/non-strict order
  // predicates, and inequations in one constraint — the residual class
  // that pair-scanned before the predicate decomposition — on the Tax
  // schema at growing n: full counting and the incremental commit loop,
  // composite engine vs the naive reference. Single-threaded so the
  // ratio is purely algorithmic.
  std::printf("\n%-28s %8s %12s %12s %9s\n", "method", "rows", "naive-sec",
              "composite-sec", "speedup");
  bool mixed_counts_agree = true;
  for (size_t n : {size_t{600}, size_t{2400}, size_t{9600}}) {
    const BenchmarkDataset tax = MakeTaxLike(n, kSeed);
    const Schema& schema = tax.table.schema();
    std::vector<DenialConstraint> mixed;
    for (const char* spec : {
             // equality + strict order pair + inequation
             "!(t1.state == t2.state & t1.salary > t2.salary & "
             "t1.rate < t2.rate & t1.marital != t2.marital)",
             // equality + two inequations
             "!(t1.state == t2.state & t1.marital != t2.marital & "
             "t1.single_exemp != t2.single_exemp)",
             // non-strict order pair + inequation
             "!(t1.single_exemp >= t2.single_exemp & "
             "t1.child_exemp <= t2.child_exemp & t1.has_child != t2.has_child)",
         }) {
      auto dc = DenialConstraint::Parse(spec, schema);
      KAMINO_CHECK(dc.ok()) << dc.status();
      KAMINO_CHECK(dc.value().Decompose().shape ==
                   PredicateDecomposition::Shape::kComposite)
          << spec << " left the composite class";
      mixed.push_back(dc.value());
    }
    for (const DenialConstraint& dc : mixed) {
      if (CountViolations(dc, tax.table) !=
          CountViolationsNaive(dc, tax.table)) {
        mixed_counts_agree = false;
      }
    }
    const double naive_count = TimeBest(2, [&] {
      for (const DenialConstraint& dc : mixed) {
        (void)CountViolationsNaive(dc, tax.table);
      }
    });
    const double composite_count = TimeBest(2, [&] {
      for (const DenialConstraint& dc : mixed) {
        (void)CountViolations(dc, tax.table);
      }
    });
    records.push_back({"mixed_count_naive", n, 1, naive_count});
    records.push_back({"mixed_count_composite", n, 1, composite_count});
    std::printf("%-28s %8zu %12.4f %12.4f %8.1fx\n", "mixed_count", n,
                naive_count, composite_count, naive_count / composite_count);
    auto run_indices = [&] (bool naive) {
      int64_t sum = 0;
      for (const DenialConstraint& dc : mixed) {
        auto index = naive ? MakeNaiveViolationIndex(dc)
                           : MakeViolationIndex(dc);
        for (size_t i = 0; i < tax.table.num_rows(); ++i) {
          sum += index->CountNew(tax.table.row(i));
          index->AddRow(tax.table.row(i));
        }
      }
      return sum;
    };
    int64_t naive_sum = 0;
    int64_t composite_sum = 0;
    const double naive_index =
        TimeBest(2, [&] { naive_sum = run_indices(true); });
    const double composite_index =
        TimeBest(2, [&] { composite_sum = run_indices(false); });
    if (naive_sum != composite_sum) mixed_counts_agree = false;
    records.push_back({"mixed_index_naive", n, 1, naive_index});
    records.push_back({"mixed_index_composite", n, 1, composite_index});
    std::printf("%-28s %8zu %12.4f %12.4f %8.1fx\n", "mixed_index", n,
                naive_index, composite_index, naive_index / composite_index);
  }
  std::printf("\nmixed-DC composite vs naive counts: %s\n",
              mixed_counts_agree ? "IDENTICAL (exact)" : "MISMATCH");
  runtime::SetGlobalNumThreads(0);

  // --- Columnar core: packed-key grouping, block shard merge, and the
  // chunk codec, vs the row-oriented equivalents they replaced. The
  // boxed baselines reproduce the pre-columnar semantics inline (Value
  // keys hashed through ValueHash into a node-based map; per-row boxed
  // appends), so the ratio isolates the layout change. Single-threaded.
  runtime::SetGlobalNumThreads(1);
  bool columnar_agree = true;
  std::printf("\n%-28s %8s %12s %12s %9s\n", "method", "rows", "boxed-sec",
              "columnar-sec", "speedup");
  struct BoxedKey {
    std::vector<Value> values;
    bool operator==(const BoxedKey& o) const {
      if (values.size() != o.values.size()) return false;
      for (size_t i = 0; i < values.size(); ++i) {
        if (!(values[i] == o.values[i])) return false;
      }
      return true;
    }
  };
  struct BoxedKeyHash {
    size_t operator()(const BoxedKey& k) const {
      size_t h = 1469598103934665603ull;
      for (const Value& v : k.values) {
        h ^= ValueHash{}(v);
        h *= 1099511628211ull;
      }
      return h;
    }
  };
  for (size_t n : {size_t{600}, size_t{2400}, size_t{9600}}) {
    const BenchmarkDataset tax = MakeTaxLike(n, kSeed);
    const std::vector<WeightedConstraint> tax_dcs = Constraints(tax);
    std::vector<WeightedConstraint> fd_dcs;
    std::vector<std::pair<std::vector<size_t>, size_t>> fds;
    for (const WeightedConstraint& wc : tax_dcs) {
      std::vector<size_t> lhs;
      size_t rhs = 0;
      if (wc.dc.AsFd(&lhs, &rhs)) {
        fd_dcs.push_back(wc);
        fds.emplace_back(std::move(lhs), rhs);
      }
    }
    KAMINO_CHECK(!fd_dcs.empty()) << "tax workload lost its FDs";
    // FD counts run through the composite plan's scope terms: hold each
    // one to the pair scan at every size.
    for (const WeightedConstraint& wc : fd_dcs) {
      if (CountViolations(wc.dc, tax.table) !=
          CountViolationsNaive(wc.dc, tax.table)) {
        columnar_agree = false;
      }
    }

    // FD violation-index build: per-row (group_size - cell_size) columns.
    auto boxed_fd_columns = [&] {
      std::vector<std::vector<double>> cols;
      for (const auto& [lhs, rhs] : fds) {
        std::unordered_map<BoxedKey, int64_t, BoxedKeyHash> groups, cells;
        std::vector<BoxedKey> gkeys(n), ckeys(n);
        for (size_t i = 0; i < n; ++i) {
          BoxedKey g;
          g.values.reserve(lhs.size());
          for (size_t a : lhs) g.values.push_back(tax.table.at(i, a));
          BoxedKey cell = g;
          cell.values.push_back(tax.table.at(i, rhs));
          ++groups[g];
          ++cells[cell];
          gkeys[i] = std::move(g);
          ckeys[i] = std::move(cell);
        }
        std::vector<double> col(n);
        for (size_t i = 0; i < n; ++i) {
          col[i] = static_cast<double>(groups[gkeys[i]] - cells[ckeys[i]]);
        }
        cols.push_back(std::move(col));
      }
      return cols;
    };
    std::vector<std::vector<double>> boxed_cols;
    std::vector<std::vector<double>> packed_matrix;
    const double boxed_build =
        TimeBest(3, [&] { boxed_cols = boxed_fd_columns(); });
    const double packed_build = TimeBest(
        3, [&] { packed_matrix = BuildViolationMatrix(tax.table, fd_dcs); });
    for (size_t l = 0; l < fds.size(); ++l) {
      for (size_t i = 0; i < n; ++i) {
        if (packed_matrix[i][l] != boxed_cols[l][i]) columnar_agree = false;
      }
    }
    records.push_back({"boxed_index_build", n, 1, boxed_build});
    records.push_back({"columnar_index_build", n, 1, packed_build});
    std::printf("%-28s %8zu %12.4f %12.4f %8.1fx\n", "columnar_index_build",
                n, boxed_build, packed_build, boxed_build / packed_build);

    // Shard merge: 4 shard slices concatenated into one instance —
    // per-row boxed appends vs the columnar block copy.
    std::vector<Table> shards;
    const size_t per = n / 4;
    for (size_t s = 0; s < 4; ++s) {
      const size_t lo = s * per;
      const size_t len = s + 1 == 4 ? n - lo : per;
      shards.push_back(tax.table.Slice(lo, len));
    }
    Table merged_rowwise(tax.table.schema());
    Table merged_columnar(tax.table.schema());
    const double rowwise_merge = TimeBest(3, [&] {
      Table out(tax.table.schema());
      for (const Table& s : shards) {
        for (size_t i = 0; i < s.num_rows(); ++i) {
          out.AppendRowUnchecked(s.row(i));
        }
      }
      merged_rowwise = std::move(out);
    });
    const double columnar_merge = TimeBest(3, [&] {
      Table out(tax.table.schema());
      for (const Table& s : shards) {
        out.AppendRowsFrom(s, 0, s.num_rows());
      }
      merged_columnar = std::move(out);
    });
    if (!SameTable(merged_rowwise, merged_columnar) ||
        !SameTable(merged_columnar, tax.table)) {
      columnar_agree = false;
    }
    records.push_back({"rowwise_shard_merge", n, 1, rowwise_merge});
    records.push_back({"columnar_shard_merge", n, 1, columnar_merge});
    std::printf("%-28s %8zu %12.4f %12.4f %8.1fx\n", "columnar_shard_merge",
                n, rowwise_merge, columnar_merge,
                rowwise_merge / columnar_merge);

    // Chunk codec: encoded payload vs the raw Value payload it replaces
    // on the wire (bytes recorded in the value slot of the record).
    const std::vector<uint8_t> encoded = EncodeChunkColumns(tax.table);
    auto decoded = DecodeChunkColumns(tax.table.schema(), encoded);
    KAMINO_CHECK(decoded.ok()) << decoded.status();
    if (!SameTable(decoded.value(), tax.table)) columnar_agree = false;
    const size_t raw_bytes = RawChunkBytes(tax.table);
    records.push_back({"chunk_encode_bytes", n, 1,
                       static_cast<double>(encoded.size())});
    records.push_back({"chunk_raw_bytes", n, 1,
                       static_cast<double>(raw_bytes)});
    std::printf("%-28s %8zu %12zu %12zu %8.1fx\n", "chunk_encode_bytes", n,
                raw_bytes, encoded.size(),
                static_cast<double>(raw_bytes) /
                    static_cast<double>(encoded.size()));
  }
  std::printf("\ncolumnar vs boxed results: %s\n",
              columnar_agree ? "IDENTICAL (exact)" : "MISMATCH");
  runtime::SetGlobalNumThreads(0);

  // --- Hot path 7: the session engine (fit-once / synthesize-many). ---
  // One fit amortizes over N synthesis requests: the break-even point vs
  // N full RunKamino calls is fit/(fit_per_run_saved) = 1, i.e. every
  // request past the first gets the entire fit for free. Also measures
  // the streaming time-to-first-chunk on a 4-shard job — the latency a
  // row consumer sees before the job itself completes.
  bool service_deterministic = true;
  bool ooc_resident_bounded = true;
  {
    KaminoEngine engine;
    KaminoConfig config = BenchKaminoConfig(1.0, kSeed);
    const double fit_start = Now();
    auto model = engine.Fit(ds.table, constraints, config);
    const double fit_seconds = Now() - fit_start;
    KAMINO_CHECK(model.ok()) << model.status();
    // The engine runs at the fit's thread budget (the hardware one: the
    // config leaves `num_threads` unset), so the service, stream and
    // out-of-core records carry the budget each run resolved.
    records.push_back(
        {"service_fit", rows, runtime::GlobalNumThreads(), fit_seconds});

    constexpr int kRequests = 4;
    double synthesize_seconds = 0.0;
    std::printf("\n%-28s %8s %12s\n", "method", "request", "seconds");
    std::printf("%-28s %8s %12.4f\n", "service_fit", "-", fit_seconds);
    for (int i = 0; i < kRequests; ++i) {
      SynthesisRequest request;
      request.seed = 100 + static_cast<uint64_t>(i);
      const double t0 = Now();
      auto result = engine.Synthesize(model.value(), request);
      KAMINO_CHECK(result.ok()) << result.status();
      const double secs = Now() - t0;
      synthesize_seconds += secs;
      records.push_back({"service_synthesize", rows,
                         result.value().telemetry.num_threads, secs});
      std::printf("%-28s %8d %12.4f\n", "service_synthesize", i, secs);
      // Identical requests must reproduce identical instances.
      auto again = engine.Synthesize(model.value(), request);
      KAMINO_CHECK(again.ok()) << again.status();
      if (!SameTable(result.value().synthetic, again.value().synthetic)) {
        service_deterministic = false;
      }
    }
    std::printf(
        "%-28s %8d %12.4f  (vs %.4f for %d full runs)\n",
        "service_session_total", kRequests, fit_seconds + synthesize_seconds,
        static_cast<double>(kRequests) *
            (fit_seconds + synthesize_seconds / kRequests),
        kRequests);

    // Streaming: time to the first delivered chunk vs job total at 4
    // shards (each chunk leaves as its shard freezes), across request
    // sizes. Both clocks come from the engine's own telemetry, which starts at
    // job start (after dequeue) — queue wait is excluded, so the numbers
    // measure sampling + merge latency, not Submit-to-dequeue slack.
    struct CountingSink : RowSink {
      size_t chunks = 0;
      Status OnChunk(const TableChunk&) override {
        ++chunks;
        return Status::OK();
      }
    };
    std::printf("\n%-28s %8s %12s %12s\n", "method", "rows", "first_chunk",
                "job_total");
    for (size_t stream_rows : {size_t{600}, size_t{2400}, size_t{9600}}) {
      CountingSink sink;
      SynthesisRequest streaming;
      streaming.seed = 7;
      streaming.num_rows = stream_rows;
      streaming.num_shards = 4;
      streaming.sink = &sink;
      streaming.collect_table = false;
      auto job = engine.Submit(model.value(), streaming);
      auto job_result = job->Wait();
      KAMINO_CHECK(job_result.ok()) << job_result.status();
      KAMINO_CHECK(sink.chunks == 4u) << "streaming run lost chunks";
      const SynthesisTelemetry& tel = job_result.value().telemetry;
      const double first = tel.first_chunk_seconds;
      const double total = job_result.value().sampling_seconds;
      records.push_back({"stream_first_chunk_shards4", stream_rows,
                         tel.num_threads, first});
      records.push_back({"stream_job_total_shards4", stream_rows,
                         tel.num_threads, total});
      std::printf("%-28s %8zu %12.4f %12.4f\n", "stream_shards4", stream_rows,
                  first, total);
    }

    // Out-of-core streaming: the in-memory sharded run vs the
    // out-of-core one at 4 shards across request sizes, both streamed to
    // a sink with no table kept (the out-of-core run differs only by its
    // two-shard dispatch window). Rows are
    // bit-identical by contract (asserted in OutOfCoreTest); what this
    // sweep measures is the memory/latency trade — the resident-row
    // high-water mark collapsing from n to ~2 shard widths, and what the
    // window costs in first-chunk / job-total seconds.
    std::printf("\n%-28s %8s %12s %12s %10s\n", "method", "rows",
                "first_chunk", "job_total", "peak_rows");
    for (size_t stream_rows : {size_t{600}, size_t{2400}, size_t{9600}}) {
      for (bool out_of_core : {false, true}) {
        CountingSink sink;
        SynthesisRequest streaming;
        streaming.seed = 7;
        streaming.num_rows = stream_rows;
        streaming.num_shards = 4;
        streaming.out_of_core = out_of_core;
        streaming.sink = &sink;
        streaming.collect_table = false;
        auto job = engine.Submit(model.value(), streaming);
        auto job_result = job->Wait();
        KAMINO_CHECK(job_result.ok()) << job_result.status();
        KAMINO_CHECK(sink.chunks == 4u) << "out-of-core run lost chunks";
        const SynthesisTelemetry& tel = job_result.value().telemetry;
        const double first = tel.first_chunk_seconds;
        const double total = job_result.value().sampling_seconds;
        const char* tag = out_of_core ? "ooc" : "inmem";
        records.push_back({std::string(tag) + "_first_chunk_shards4",
                           stream_rows, tel.num_threads, first});
        records.push_back({std::string(tag) + "_job_total_shards4",
                           stream_rows, tel.num_threads, total});
        records.push_back({std::string(tag) + "_peak_resident_rows",
                           stream_rows, tel.num_threads,
                           static_cast<double>(tel.peak_resident_rows)});
        if (out_of_core) {
          // The acceptance bound: at 4 shards the out-of-core run's
          // residency must stay within 2 shard widths at every size.
          const int64_t shard_width =
              static_cast<int64_t>((stream_rows + 3) / 4);
          if (tel.peak_resident_rows > 2 * shard_width) {
            ooc_resident_bounded = false;
          }
        }
        std::printf("%-28s %8zu %12.4f %12.4f %10lld\n",
                    out_of_core ? "stream_out_of_core" : "stream_in_memory",
                    stream_rows, first, total,
                    static_cast<long long>(tel.peak_resident_rows));
      }
    }
    std::printf("\nout-of-core peak residency <= 2 shard widths: %s\n",
                ooc_resident_bounded ? "OK" : "EXCEEDED");

    // Model artifact serde: the cost of checkpointing a fit to its wire
    // form and rehydrating it (what a load-by-id worker pays per cold
    // model), plus the artifact size (bytes in the value slot, like
    // chunk_encode_bytes).
    auto artifact_bytes = model.value().Serialize();
    KAMINO_CHECK(artifact_bytes.ok()) << artifact_bytes.status();
    const double save_seconds = TimeBest(3, [&] {
      auto bytes = model.value().Serialize();
      KAMINO_CHECK(bytes.ok()) << bytes.status();
    });
    const double load_seconds = TimeBest(3, [&] {
      auto loaded = FittedModel::Deserialize(artifact_bytes.value());
      KAMINO_CHECK(loaded.ok()) << loaded.status();
    });
    auto reloaded = FittedModel::Deserialize(artifact_bytes.value());
    KAMINO_CHECK(reloaded.ok()) << reloaded.status();
    SynthesisRequest artifact_check;
    artifact_check.seed = 100;
    auto from_fit = engine.Synthesize(model.value(), artifact_check);
    auto from_artifact = engine.Synthesize(reloaded.value(), artifact_check);
    KAMINO_CHECK(from_fit.ok() && from_artifact.ok());
    if (!SameTable(from_fit.value().synthetic,
                   from_artifact.value().synthetic)) {
      service_deterministic = false;
    }
    records.push_back({"artifact_save", rows, 1, save_seconds});
    records.push_back({"artifact_load", rows, 1, load_seconds});
    records.push_back({"artifact_bytes", rows, 1,
                       static_cast<double>(artifact_bytes.value().size())});
    std::printf("%-28s %8s %12.4f\n", "artifact_save", "-", save_seconds);
    std::printf("%-28s %8s %12.4f  (%zu bytes)\n", "artifact_load", "-",
                load_seconds, artifact_bytes.value().size());
  }
  runtime::SetGlobalNumThreads(0);

  // --- Observability overhead: the 9600-row order-DC sweep (count + the
  // incremental index commit loop) with tracing + metrics off vs on. The
  // obs layer promises near-zero overhead: recording is one relaxed
  // enabled-check per instrumentation point and the per-row hot loops are
  // untouched, so the on/off delta should disappear into timer noise
  // (acceptance bound: < 5%).
  bool obs_output_identical = true;
  runtime::SetGlobalNumThreads(1);
  {
    const size_t n = 9600;
    const BenchmarkDataset tax = MakeTaxLike(n, kSeed);
    const std::vector<WeightedConstraint> tax_dcs = Constraints(tax);
    const DenialConstraint* order_dc = nullptr;
    for (const WeightedConstraint& wc : tax_dcs) {
      if (wc.dc.AsGroupedOrderSpec().has_value()) order_dc = &wc.dc;
    }
    KAMINO_CHECK(order_dc != nullptr) << "tax workload lost its order DC";
    int64_t sweep_sum = 0;
    auto sweep = [&] {
      obs::TraceSpan span("bench/obs_sweep");
      sweep_sum = CountViolations(*order_dc, tax.table);
      auto index = MakeViolationIndex(*order_dc);
      for (size_t i = 0; i < tax.table.num_rows(); ++i) {
        sweep_sum += index->CountNew(tax.table.row(i));
        index->AddRow(tax.table.row(i));
      }
    };
    sweep();  // warm up caches before either timed variant
    const int64_t expected_sum = sweep_sum;
    const double off_seconds = TimeBest(5, sweep);
    obs::TraceRecorder::Global().SetEnabled(true);
    obs::MetricsRegistry::Global().SetEnabled(true);
    const double on_seconds = TimeBest(5, sweep);
    if (sweep_sum != expected_sum) obs_output_identical = false;
    obs::TraceRecorder::Global().SetEnabled(false);
    obs::TraceRecorder::Global().Clear();
    obs::MetricsRegistry::Global().SetEnabled(false);
    obs::MetricsRegistry::Global().Reset();
    records.push_back({"obs_overhead_off", n, 1, off_seconds});
    records.push_back({"obs_overhead_on", n, 1, on_seconds});
    std::printf("\n%-28s %8s %12s %12s %9s\n", "method", "rows", "off-sec",
                "on-sec", "overhead");
    std::printf("%-28s %8zu %12.4f %12.4f %8.1f%%\n", "obs_overhead", n,
                off_seconds, on_seconds,
                100.0 * (on_seconds - off_seconds) / off_seconds);
  }
  runtime::SetGlobalNumThreads(0);

  WriteBenchJson("BENCH_parallel.json", records);
  return deterministic && shards_deterministic && mcmc_deterministic &&
                 freeze_deterministic && order_counts_agree &&
                 scoring_counts_agree && fd_scoring_counts_agree &&
                 mixed_counts_agree && columnar_agree &&
                 service_deterministic && obs_output_identical &&
                 ooc_resident_bounded
             ? 0
             : 1;
}

}  // namespace
}  // namespace kamino::bench

int main() { return kamino::bench::Main(); }
