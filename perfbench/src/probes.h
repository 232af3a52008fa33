#ifndef KAMINO_PERFBENCH_PROBES_H_
#define KAMINO_PERFBENCH_PROBES_H_

// Layer probes for the traced run: each replays one module's public
// functions on the workload's own delivered rows, times them, and checks
// its results against that module's own oracle (naive index, codec round
// trip, spill read-back, distribution sanity). Only public headers of
// src/kamino are used.

#include <map>
#include <string>
#include <vector>

#include "kamino/core/pipeline.h"
#include "kamino/data/table.h"

namespace kamino::perfbench {

/// Named metric values, as printed in the result line.
using MetricMap = std::map<std::string, double>;

/// FNV-1a over every cell's kind and exact bits, in row-major order:
/// equal digests mean bit-identical tables.
uint64_t TableDigest(const Table& table);

/// True when both tables have the same shape and bit-identical cells.
bool SameBits(const Table& a, const Table& b);

/// Runs the nn and dc probes — and, when `codec_and_store`, the data and
/// store probes — on `rows` (the verification job's delivered rows) for
/// the model and constraints of `fit`. Fills the probes' metrics into
/// `metrics` (the skipped probes' as 0); a failed oracle appends a line
/// to `failures`. The store probe creates its spill file under
/// `spill_dir`.
void RunLayerProbes(const FitArtifacts& fit, const Table& rows,
                    const std::string& spill_dir, bool codec_and_store,
                    MetricMap* metrics, std::vector<std::string>* failures);

}  // namespace kamino::perfbench

#endif  // KAMINO_PERFBENCH_PROBES_H_
