#include "perfbench/src/probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "kamino/core/model.h"
#include "kamino/data/chunk_codec.h"
#include "kamino/dc/violations.h"
#include "kamino/store/spill_store.h"

namespace kamino::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Rows the nn probe scores per discriminative unit.
constexpr size_t kPredictRows = 256;
/// Prefix the dc probe replays through the naive reference index.
constexpr size_t kNaivePrefixRows = 1024;
/// Shard width the dc pair-scan and merge probes slice the rows into,
/// matching the 4-shard workloads.
constexpr size_t kProbeSlices = 4;

void Fail(std::vector<std::string>* failures, const std::string& what) {
  failures->push_back(what);
}

/// Index shape of a DC, as the metric suffix `dc.count_new_us.<shape>`.
const char* ShapeOf(const DenialConstraint& dc) {
  std::vector<size_t> lhs;
  size_t rhs = 0, x = 0, y = 0;
  if (dc.AsFd(&lhs, &rhs)) return "fd";
  if (dc.AsOrderPair(&x, &y) || dc.AsGroupedOrderSpec().has_value()) {
    return "order";
  }
  return "other";
}

/// A copy of `rows` whose cells come from unrelated rows, column by
/// column: the constraints the delivered rows satisfy are broken many
/// times over, so the index oracles compare nonzero counts.
Table Scramble(const Table& rows) {
  Table out(rows.schema());
  const size_t n = rows.num_rows();
  Row row(rows.num_columns());
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < rows.num_columns(); ++c) {
      row[c] = rows.at((i * 7 + c * 131 + 1) % n, c);
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

/// CountNew/AddRow over every row; returns the summed CountNew.
int64_t CommitLoop(ViolationIndex* index, const Table& rows, size_t limit) {
  int64_t sum = 0;
  Row row;
  for (size_t i = 0; i < limit; ++i) {
    rows.CopyRowInto(i, &row);
    sum += index->CountNew(row);
    index->AddRow(row);
  }
  return sum;
}

void ProbeNn(const ProbabilisticDataModel& model, const Table& rows,
             MetricMap* m, std::vector<std::string>* failures) {
  const size_t probe_rows = std::min(kPredictRows, rows.num_rows());
  double cat_s = 0.0, gauss_s = 0.0;
  int64_t cat_calls = 0, gauss_calls = 0, units = 0;
  Row row;
  for (const ModelUnit& unit : model.units()) {
    if (unit.kind != ModelUnit::Kind::kDiscriminative) continue;
    ++units;
    const DiscriminativeModel& net = *unit.model;
    for (size_t i = 0; i < probe_rows; ++i) {
      rows.CopyRowInto(i, &row);
      if (net.target_is_categorical()) {
        const auto t0 = Clock::now();
        const std::vector<double> p = net.PredictCategorical(row);
        cat_s += SecondsSince(t0);
        ++cat_calls;
        double sum = 0.0;
        bool sane = p.size() == net.joint_domain_size();
        for (double v : p) {
          sane = sane && std::isfinite(v) && v >= 0.0;
          sum += v;
        }
        if (!sane || std::fabs(sum - 1.0) > 1e-6) {
          Fail(failures, "nn: PredictCategorical is not a distribution");
          return;
        }
      } else {
        const auto t0 = Clock::now();
        const std::pair<double, double> g = net.PredictGaussian(row);
        gauss_s += SecondsSince(t0);
        ++gauss_calls;
        if (!std::isfinite(g.first) || !(g.second > 0.0) ||
            !std::isfinite(g.second)) {
          Fail(failures, "nn: PredictGaussian returned a bad (mu, sigma)");
          return;
        }
      }
    }
  }
  (*m)["nn.predict_categorical_us"] =
      cat_calls > 0 ? 1e6 * cat_s / static_cast<double>(cat_calls) : 0.0;
  (*m)["nn.predict_gaussian_us"] =
      gauss_calls > 0 ? 1e6 * gauss_s / static_cast<double>(gauss_calls)
                      : 0.0;
  (*m)["nn.discriminative_units"] = static_cast<double>(units);
}

/// 4-slice fold: per-slice indices merged in order, CountAgainst
/// measuring each slice's cross pairs against the merged prefix. Returns
/// within-slice + cross violations; `*seconds` accumulates CountAgainst.
int64_t SliceFold(const DenialConstraint& dc, const Table& rows,
                  double* seconds) {
  const size_t n = rows.num_rows();
  const size_t width = (n + kProbeSlices - 1) / kProbeSlices;
  auto merged = MakeViolationIndex(dc);
  int64_t total = 0;
  for (size_t lo = 0; lo < n; lo += width) {
    const size_t len = std::min(width, n - lo);
    const Table slice = rows.Slice(lo, len);
    auto index = MakeViolationIndex(dc);
    total += CommitLoop(index.get(), slice, len);
    const auto t0 = Clock::now();
    total += merged->CountAgainst(*index);
    *seconds += SecondsSince(t0);
    merged->Merge(*index);
  }
  return total;
}

/// Sum over the rows of `slice` of CountNewViolations against the rows
/// before it: every unordered pair scanned once.
int64_t TrianglePairScan(const DenialConstraint& dc, const Table& slice) {
  int64_t sum = 0;
  Row row;
  for (size_t r = 0; r < slice.num_rows(); ++r) {
    slice.CopyRowInto(r, &row);
    sum += CountNewViolations(dc, row, slice, r);
  }
  return sum;
}

void ProbeDc(const std::vector<WeightedConstraint>& constraints,
             const Table& rows, MetricMap* m,
             std::vector<std::string>* failures) {
  const size_t n = rows.num_rows();
  const Table scrambled = Scramble(rows);
  std::map<std::string, double> shape_s, shape_calls;
  double add_s = 0.0, against_s = 0.0, scan_s = 0.0;
  int64_t add_calls = 0, scanned_pairs = 0;
  Row row;
  for (const WeightedConstraint& wc : constraints) {
    const DenialConstraint& dc = wc.dc;
    const std::string shape = ShapeOf(dc);
    // Timed commit loop over the delivered rows.
    auto index = MakeViolationIndex(dc);
    int64_t committed = 0;
    for (size_t i = 0; i < n; ++i) {
      rows.CopyRowInto(i, &row);
      auto t0 = Clock::now();
      committed += index->CountNew(row);
      shape_s[shape] += SecondsSince(t0);
      t0 = Clock::now();
      index->AddRow(row);
      add_s += SecondsSince(t0);
    }
    shape_calls[shape] += static_cast<double>(n);
    add_calls += static_cast<int64_t>(n);
    if (committed != CountViolations(dc, rows)) {
      Fail(failures, "dc: commit-loop sum != CountViolations (" + shape + ")");
    }
    // Oracle: the specialized index against the naive one on a prefix of
    // the delivered rows and of the scrambled rows.
    for (const Table* t : {&rows, &scrambled}) {
      const size_t prefix = std::min(kNaivePrefixRows, t->num_rows());
      auto fast = MakeViolationIndex(dc);
      auto naive = MakeNaiveViolationIndex(dc);
      if (CommitLoop(fast.get(), *t, prefix) !=
          CommitLoop(naive.get(), *t, prefix)) {
        Fail(failures, "dc: index != naive index on a prefix (" + shape + ")");
      }
    }
    if (dc.is_unary()) continue;
    // Pair scan over one shard-width slice (the freeze repair's kernel).
    const size_t width = std::max<size_t>(1, n / kProbeSlices);
    const Table slice = rows.Slice(0, width);
    const auto t0 = Clock::now();
    const int64_t scanned = TrianglePairScan(dc, slice);
    scan_s += SecondsSince(t0);
    scanned_pairs += static_cast<int64_t>(width) *
                     static_cast<int64_t>(width - 1) / 2;
    if (scanned != CountViolationsNaive(dc, slice) ||
        TrianglePairScan(dc, scrambled.Slice(0, width)) !=
            CountViolationsNaive(dc, scrambled.Slice(0, width))) {
      Fail(failures, "dc: CountNewViolations pair scan != naive count");
    }
    // 4-slice Merge + CountAgainst, timed on the delivered rows and
    // checked on both row sets against the whole-table count.
    if (SliceFold(dc, rows, &against_s) != CountViolations(dc, rows)) {
      Fail(failures, "dc: 4-slice Merge/CountAgainst != CountViolations");
    }
    double unused = 0.0;
    if (SliceFold(dc, scrambled, &unused) !=
        CountViolationsNaive(dc, scrambled)) {
      Fail(failures, "dc: scrambled 4-slice fold != naive count");
    }
  }
  for (const char* shape : {"fd", "order", "other"}) {
    const double calls = shape_calls[shape];
    (*m)[std::string("dc.count_new_us.") + shape] =
        calls > 0 ? 1e6 * shape_s[shape] / calls : 0.0;
  }
  (*m)["dc.add_row_us"] =
      add_calls > 0 ? 1e6 * add_s / static_cast<double>(add_calls) : 0.0;
  (*m)["dc.pair_scan_ns"] =
      scanned_pairs > 0 ? 1e9 * scan_s / static_cast<double>(scanned_pairs)
                        : 0.0;
  (*m)["dc.count_against_s"] = against_s;
}

/// Codec round trip and spill store append/read-back over the rows cut
/// into shard-width chunks.
void ProbeDataAndStore(const Table& rows, const std::string& spill_dir,
                       MetricMap* m, std::vector<std::string>* failures) {
  const size_t n = rows.num_rows();
  const size_t width =
      std::max<size_t>(1, (n + kProbeSlices - 1) / kProbeSlices);
  std::vector<Table> slices;
  for (size_t lo = 0; lo < n; lo += width) {
    slices.push_back(rows.Slice(lo, std::min(width, n - lo)));
  }
  constexpr int kReps = 5;
  double raw_bytes = 0.0, encoded_bytes = 0.0, encode_s = 0.0, decode_s = 0.0;
  std::vector<std::vector<uint8_t>> payloads;
  for (const Table& slice : slices) {
    std::vector<uint8_t> payload;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      payload = EncodeChunkColumns(slice);
      encode_s += SecondsSince(t0);
    }
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      Result<Table> decoded = DecodeChunkColumns(slice.schema(), payload);
      decode_s += SecondsSince(t0);
      if (!decoded.ok() || !SameBits(decoded.value(), slice)) {
        Fail(failures, "data: chunk codec round trip is not bit-exact");
        return;
      }
    }
    raw_bytes += static_cast<double>(RawChunkBytes(slice));
    encoded_bytes += static_cast<double>(payload.size());
    payloads.push_back(std::move(payload));
  }
  (*m)["data.encode_mb_s"] = kReps * raw_bytes / 1e6 / encode_s;
  (*m)["data.decode_mb_s"] = kReps * raw_bytes / 1e6 / decode_s;
  (*m)["data.compression_ratio"] = raw_bytes / encoded_bytes;

  Result<std::unique_ptr<store::SpillStore>> created =
      store::SpillStore::Create(spill_dir);
  if (!created.ok()) {
    Fail(failures, "store: " + created.status().ToString());
    return;
  }
  store::SpillStore& spill = *created.value();
  auto t0 = Clock::now();
  for (size_t b = 0; b < payloads.size(); ++b) {
    const Status st = spill.AppendBlock(payloads[b], slices[b].num_rows());
    if (!st.ok()) {
      Fail(failures, "store: " + st.ToString());
      return;
    }
  }
  const double append_s = SecondsSince(t0);
  t0 = Clock::now();
  for (size_t b = 0; b < payloads.size(); ++b) {
    Result<Table> back = spill.ReadBlock(b, rows.schema());
    Result<std::vector<uint8_t>> payload = spill.ReadBlockPayload(b);
    if (!back.ok() || !SameBits(back.value(), slices[b]) || !payload.ok() ||
        payload.value() != payloads[b]) {
      Fail(failures, "store: spill block did not read back the same payload");
      return;
    }
  }
  const double read_s = SecondsSince(t0);
  const double spilled = static_cast<double>(spill.spilled_bytes());
  (*m)["store.append_mb_s"] = spilled / 1e6 / append_s;
  (*m)["store.read_mb_s"] = spilled / 1e6 / read_s;
}

/// A cell as (kind tag, exact payload bits).
std::pair<uint64_t, uint64_t> CellBits(const Value& v) {
  if (!v.is_numeric()) {
    return {2, static_cast<uint32_t>(v.category())};
  }
  const double d = v.numeric();
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return {1, bits};
}

}  // namespace

uint64_t TableDigest(const Table& table) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(table.num_rows());
  mix(table.num_columns());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const auto [kind, bits] = CellBits(table.at(r, c));
      mix(kind);
      mix(bits);
    }
  }
  return h;
}

bool SameBits(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (CellBits(a.at(r, c)) != CellBits(b.at(r, c))) return false;
    }
  }
  return true;
}

void RunLayerProbes(const FitArtifacts& fit, const Table& rows,
                    const std::string& spill_dir, bool codec_and_store,
                    MetricMap* metrics, std::vector<std::string>* failures) {
  if (rows.num_rows() == 0) {
    Fail(failures, "probes: no delivered rows to replay");
    return;
  }
  ProbeNn(fit.model, rows, metrics, failures);
  ProbeDc(fit.weighted, rows, metrics, failures);
  for (const char* name : {"data.encode_mb_s", "data.decode_mb_s",
                           "data.compression_ratio", "store.append_mb_s",
                           "store.read_mb_s"}) {
    (*metrics)[name] = 0.0;
  }
  if (codec_and_store) ProbeDataAndStore(rows, spill_dir, metrics, failures);
}

}  // namespace kamino::perfbench
