#include "kamino/core/sampler.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "kamino/common/logging.h"
#include "kamino/core/prefix_merge.h"
#include "kamino/core/sequencing.h"
#include "kamino/data/chunk_codec.h"
#include "kamino/dc/violations.h"
#include "kamino/obs/metrics.h"
#include "kamino/obs/trace.h"
#include "kamino/runtime/parallel_for.h"
#include "kamino/runtime/rng_stream.h"
#include "kamino/runtime/thread_pool.h"
#include "kamino/store/spill_store.h"

namespace kamino {
namespace {

/// Rows re-sampled per parallel MCMC batch. Fixed (not thread-derived) so
/// the batch boundaries — and thus which table snapshot each re-sample
/// scores against — are identical at any `num_threads`.
constexpr size_t kMcmcBatchRows = 32;

/// True unless the hooks carry a cancellation predicate that fired.
bool KeepGoing(const SynthesisHooks* hooks) {
  return hooks == nullptr || !hooks->keep_going || hooks->keep_going();
}

Status CancelledStatus() {
  return Status::Cancelled("synthesis cancelled by caller");
}

/// The candidate set D(S[j]) of one (row, unit): joint assignments for
/// the unit's attributes, flat, each aligned with unit.attrs, with their
/// model probabilities p_{v|c}.
struct CandidateSet {
  size_t width = 0;           // unit.attrs.size()
  std::vector<Value> values;  // candidate c at [c * width, (c + 1) * width)
  std::vector<double> probs;  // one per candidate

  size_t size() const { return probs.size(); }
  bool empty() const { return probs.empty(); }
  const Value* at(size_t c) const { return values.data() + c * width; }
};

double GaussianPdf(double x, double mu, double sigma) {
  const double z = (x - mu) / sigma;
  return std::exp(-0.5 * z * z) / (sigma * std::sqrt(2.0 * M_PI));
}

/// Converts per-candidate log-scores into sampling weights, shifting by
/// the max so that large DC penalties (hard weights * many violations)
/// never underflow every weight to zero at once - the *relative* penalty
/// is what matters for line 10 of Algorithm 3.
std::vector<double> LogScoresToWeights(const std::vector<double>& log_scores) {
  double mx = -std::numeric_limits<double>::infinity();
  for (double s : log_scores) mx = std::max(mx, s);
  if (!std::isfinite(mx)) {
    // Every candidate collapsed to zero mass (all log-scores -inf, e.g.
    // hard-DC penalties on every value): make the uniform fallback
    // explicit instead of handing a zero-mass distribution to Rng.
    return std::vector<double>(log_scores.size(), 1.0);
  }
  std::vector<double> weights(log_scores.size(), 0.0);
  for (size_t i = 0; i < log_scores.size(); ++i) {
    weights[i] = std::exp(log_scores[i] - mx);
  }
  return weights;
}

/// Enumerates the candidate set D(S[j]) with conditional probabilities
/// (Algorithm 3 line 6, plus the continuous-domain candidate sampling).
CandidateSet GenerateCandidates(const ModelUnit& unit, const Schema& schema,
                                const Row& row, const KaminoOptions& options,
                                const std::vector<double>& prior_values,
                                Rng* rng) {
  CandidateSet out;
  out.width = unit.attrs.size();
  // Categorical joint assignments, decoded index by index.
  auto add_joint = [&](std::vector<double> probs) {
    std::vector<Value> joint;
    out.values.reserve(probs.size() * out.width);
    for (size_t idx = 0; idx < probs.size(); ++idx) {
      unit.DecodeJointIndex(idx, &joint);
      out.values.insert(out.values.end(), joint.begin(), joint.end());
    }
    out.probs = std::move(probs);
  };
  if (unit.kind == ModelUnit::Kind::kHistogram) {
    if (unit.quantizer.has_value()) {
      // Numeric histogram: one candidate per bin, valued uniformly within.
      out.values.reserve(unit.distribution.size());
      for (size_t b = 0; b < unit.distribution.size(); ++b) {
        out.values.push_back(Value::Numeric(
            unit.quantizer->SampleWithin(static_cast<int>(b), rng)));
      }
      out.probs = unit.distribution;
    } else {
      add_joint(unit.distribution);
    }
    return out;
  }

  // Discriminative unit.
  const DiscriminativeModel& model = *unit.model;
  if (model.target_is_categorical()) {
    add_joint(model.PredictCategorical(row));
    return out;
  }

  // Numeric target: draw d candidates from the predicted Gaussian, each
  // weighted by its density (section 4.2). A few deterministic quantile
  // points (mu, mu +- {0.5, 1, 2} sigma) are added so that at least some
  // candidates cover the distribution's bulk even for small d, which gives
  // the DC factor feasible values to choose from.
  auto [mu, sigma] = model.PredictGaussian(row);
  const Attribute& attr = schema.attribute(unit.attrs[0]);
  if (sigma <= 0.0) sigma = 1e-3;
  auto add_candidate = [&](double v) {
    v = std::min(attr.max_value(), std::max(attr.min_value(), v));
    out.values.push_back(Value::Numeric(v));
    out.probs.push_back(GaussianPdf(v, mu, sigma));
  };
  const size_t expected = options.max_candidates + 7 + prior_values.size();
  out.values.reserve(expected);
  out.probs.reserve(expected);
  for (double offset : {0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0}) {
    add_candidate(mu + offset * sigma);
  }
  for (int c = 0; c < options.max_candidates; ++c) {
    add_candidate(rng->Gaussian(mu, sigma));
  }
  // When DCs constrain this attribute, values already synthesized for it
  // are strong candidates: order DCs treat equal values as consistent, so
  // reusing them keeps the feasible set reachable even when it collapses
  // to exact points. They still carry their model density, so improbable
  // reuse stays improbable. The caller curates this list (nearest
  // neighbours under active order DCs plus a few random recycled values).
  for (double v : prior_values) add_candidate(v);
  return out;
}

/// Installs a candidate's values (aligned with `unit.attrs`) into the row.
void ApplyCandidate(const ModelUnit& unit, const Value* values, Table* table,
                    size_t row_index) {
  for (size_t i = 0; i < unit.attrs.size(); ++i) {
    table->set(row_index, unit.attrs[i], values[i]);
  }
}

/// One violation index per DC (null where a DC is not indexed).
using IndexSet = std::vector<std::unique_ptr<ViolationIndex>>;

/// One DC's term of a penalty: w_phi times the `vio` new violations of
/// `candidate`, less its pair with `replaced` (when set; the row it
/// replaces, which the indices still hold).
double DcPenalty(const WeightedConstraint& wc, int64_t vio,
                 const Row& candidate, const Row* replaced) {
  if (replaced != nullptr && !wc.dc.is_unary() &&
      wc.dc.ViolatesPair(candidate, *replaced)) {
    --vio;
  }
  return vio > 0 ? wc.EffectiveWeight() * static_cast<double>(vio) : 0.0;
}

/// sum_phi w_phi * count(phi) over the DCs in `active`: the violations
/// `candidate` forms with every row the `index_sets` hold (null indices
/// skipped). With `replaced` set, the candidate replaces that row, which
/// exactly one of the sets holds: its pair with the candidate is
/// subtracted. `ScoreCandidates` computes the same sum for a whole
/// candidate set.
double ViolationPenalty(const Row& candidate, const Row* replaced,
                        const std::vector<size_t>& active,
                        const std::vector<WeightedConstraint>& constraints,
                        std::initializer_list<const IndexSet*> index_sets) {
  double penalty = 0.0;
  for (size_t dc_index : active) {
    int64_t vio = 0;
    for (const IndexSet* indices : index_sets) {
      const ViolationIndex* index = (*indices)[dc_index].get();
      if (index != nullptr) vio += index->CountNew(candidate);
    }
    penalty += DcPenalty(constraints[dc_index], vio, candidate, replaced);
  }
  return penalty;
}

/// Indexes every row of `table` under each DC in `dcs`.
IndexSet IndexTable(const Table& table, const std::vector<size_t>& dcs,
                    const std::vector<WeightedConstraint>& constraints) {
  IndexSet indices(constraints.size());
  if (dcs.empty()) return indices;
  for (size_t l : dcs) indices[l] = MakeViolationIndex(constraints[l].dc);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Row row = table.row(r);
    for (size_t l : dcs) indices[l]->AddRow(row);
  }
  return indices;
}

/// Replaces committed row `old` with `now` in every index of `indices`.
void ReplaceIndexedRow(const Row& old, const Row& now, IndexSet* indices) {
  for (std::unique_ptr<ViolationIndex>& index : *indices) {
    if (index == nullptr) continue;
    index->RemoveRow(old);
    index->AddRow(now);
  }
}

/// Fills `log_scores` with log p_{v|c} - `ViolationPenalty` for every
/// candidate written over `base_row` (Algorithm 3 line 10 in log space),
/// and `penalties` (optional) with the penalties alone. Scoring is
/// DC-major: one `CountNewBatch` per active DC and index set scores the
/// whole candidate set, then each candidate's penalty adds its DC terms
/// in `active` order, exactly as `ViolationPenalty` would. Runs inline: a
/// whole set costs one index walk per DC, too little to ship to the pool.
void ScoreCandidates(const ModelUnit& unit, const CandidateSet& candidates,
                     const Row& base_row, const Row* replaced,
                     const std::vector<size_t>& active,
                     const std::vector<WeightedConstraint>& constraints,
                     std::initializer_list<const IndexSet*> index_sets,
                     std::vector<double>* log_scores,
                     std::vector<double>* penalties = nullptr) {
  const size_t m = candidates.size();
  log_scores->assign(m, 0.0);
  if (penalties != nullptr) penalties->assign(m, 0.0);
  // counts[d * m + c]: new violations of candidate c under DC active[d],
  // summed over the index sets.
  std::vector<int64_t> counts(active.size() * m, 0);
  std::vector<int64_t> part(m);
  for (size_t d = 0; d < active.size(); ++d) {
    for (const IndexSet* indices : index_sets) {
      const ViolationIndex* index = (*indices)[active[d]].get();
      if (index == nullptr) continue;
      index->CountNewBatch(base_row, unit.attrs, candidates.values.data(), m,
                           part.data());
      for (size_t c = 0; c < m; ++c) counts[d * m + c] += part[c];
    }
  }
  // The candidate row itself is only needed for the replaced-row pair.
  Row scratch = replaced != nullptr ? base_row : Row();
  for (size_t c = 0; c < m; ++c) {
    if (replaced != nullptr) {
      const Value* values = candidates.at(c);
      for (size_t i = 0; i < candidates.width; ++i) {
        scratch[unit.attrs[i]] = values[i];
      }
    }
    double penalty = 0.0;
    for (size_t d = 0; d < active.size(); ++d) {
      penalty += DcPenalty(constraints[active[d]], counts[d * m + c], scratch,
                           replaced);
    }
    (*log_scores)[c] = std::log(candidates.probs[c] + 1e-300) - penalty;
    if (penalties != nullptr) (*penalties)[c] = penalty;
  }
}

/// True when the FD fast path may resolve this unit: single attribute and
/// every active DC is a hard FD whose right-hand side is that attribute.
bool FdFastPathApplies(const ModelUnit& unit, const std::vector<size_t>& active,
                       const std::vector<WeightedConstraint>& constraints) {
  if (unit.attrs.size() != 1 || active.empty()) return false;
  for (size_t dc_index : active) {
    const WeightedConstraint& wc = constraints[dc_index];
    std::vector<size_t> lhs;
    size_t rhs = 0;
    if (!wc.hard || !wc.dc.AsFd(&lhs, &rhs) || rhs != unit.attrs[0]) {
      return false;
    }
  }
  return true;
}

/// Maps every DC to the model unit at which it activates (the unit whose
/// attributes complete it) and every unit to its active DC set Phi_{A_j}.
/// Computed once per run; the per-shard sampling loop and the merge pass
/// must agree on this mapping.
struct ActivationMap {
  std::vector<std::vector<size_t>> unit_active;  // unit -> active DC indices
  std::vector<size_t> dc_unit;                   // DC -> unit (or SIZE_MAX)
};

ActivationMap BuildActivationMap(
    const ProbabilisticDataModel& model,
    const std::vector<WeightedConstraint>& constraints) {
  ActivationMap map;
  const std::vector<std::vector<size_t>> active_by_pos =
      ActivationPositions(model.sequence(), constraints);
  map.unit_active.resize(model.units().size());
  map.dc_unit.assign(constraints.size(), SIZE_MAX);
  for (size_t u = 0; u < model.units().size(); ++u) {
    const ModelUnit& unit = model.units()[u];
    for (size_t p = unit.start_position;
         p < unit.start_position + unit.attrs.size(); ++p) {
      for (size_t dc_index : active_by_pos[p]) {
        map.unit_active[u].push_back(dc_index);
        map.dc_unit[dc_index] = u;
      }
    }
  }
  return map;
}

/// The per-shard sampling loop: the sequential Algorithm 3 body over
/// `n` rows, writing into `out` (resized here). Its sampling indices are
/// local and hold each unit's rows as first drawn; the MCMC pass scores
/// against a full-table index of its own and leaves them untouched.
/// Candidate scoring runs inline; only the MCMC batches go through
/// `runtime::ParallelFor`, which fans out when the one shard of a run
/// samples on the caller's thread and runs inline when the shard is itself
/// a pool task or the budget is one thread. `mcmc_resamples` is this shard's
/// slice of the run-wide `options.mcmc_resamples` budget, so total MCMC
/// work stays the same at every shard count. `hooks` cancellation is
/// polled at every column-group boundary; the per-shard progress callback
/// fires once all rows of the shard are sampled.
Status SampleShardRows(const ProbabilisticDataModel& model,
                       const std::vector<WeightedConstraint>& constraints,
                       const ActivationMap& activation, size_t n,
                       const KaminoOptions& options, size_t mcmc_resamples,
                       const SynthesisHooks* hooks, Rng* rng,
                       SynthesisTelemetry* telemetry, Table* out_table) {
  const Schema& schema = model.schema();
  Table& out = *out_table;
  out.ResizeRows(n);

  IndexSet indices(constraints.size());

  for (size_t unit_index = 0; unit_index < model.units().size(); ++unit_index) {
    if (!KeepGoing(hooks)) return CancelledStatus();
    const ModelUnit& unit = model.units()[unit_index];
    // Phi_{A_j}: the DCs whose attributes complete within this unit.
    const std::vector<size_t>& active = activation.unit_active[unit_index];
    const bool use_dc_factor =
        options.constraint_aware_sampling && !active.empty();
    if (use_dc_factor) {
      for (size_t dc_index : active) {
        indices[dc_index] = MakeViolationIndex(constraints[dc_index].dc);
      }
    }
    const bool fast_path = options.enable_fd_fast_path && use_dc_factor &&
                           FdFastPathApplies(unit, active, constraints);

    // Previously synthesized values of a DC-constrained numeric attribute
    // are recycled as candidates (see GenerateCandidates).
    const bool track_prior_values =
        use_dc_factor && unit.attrs.size() == 1 &&
        schema.attribute(unit.attrs[0]).is_numeric();
    std::vector<double> prior_values;

    // For active order DCs !(t1.X > t2.X & t1.Y < t2.Y) whose Y is this
    // unit's attribute, keep (x, y) pairs of the prefix rows sorted by x:
    // the y values of the x-nearest neighbours are (usually) feasible for
    // a co-monotone relation and make excellent candidates.
    struct OrderDcTracker {
      size_t x_attr = 0;
      std::vector<std::pair<double, double>> points;  // sorted by x
    };
    std::vector<OrderDcTracker> order_trackers;
    if (track_prior_values) {
      for (size_t dc_index : active) {
        size_t x = 0, y = 0;
        if (!constraints[dc_index].dc.AsOrderPair(&x, &y)) continue;
        // Either side of the co-monotone pair may be the attribute being
        // sampled; track against the other (already filled) side.
        size_t other;
        if (y == unit.attrs[0]) {
          other = x;
        } else if (x == unit.attrs[0]) {
          other = y;
        } else {
          continue;
        }
        if (schema.attribute(other).is_numeric()) {
          OrderDcTracker tracker;
          tracker.x_attr = other;
          order_trackers.push_back(tracker);
        }
      }
    }
    // For active hard FDs whose right-hand side is this *numeric*
    // attribute, the group's established value is the only feasible
    // candidate; surface it through the FD index.
    std::vector<size_t> numeric_fd_dcs;
    if (track_prior_values) {
      for (size_t dc_index : active) {
        std::vector<size_t> lhs;
        size_t rhs = 0;
        if (constraints[dc_index].dc.AsFd(&lhs, &rhs) && rhs == unit.attrs[0]) {
          numeric_fd_dcs.push_back(dc_index);
        }
      }
    }
    auto nearest_y_values = [&](const Row& row) {
      std::vector<double> values;
      for (size_t dc_index : numeric_fd_dcs) {
        if (indices[dc_index] == nullptr) continue;
        std::optional<Value> forced = indices[dc_index]->FdForcedValue(row);
        if (forced.has_value() && forced->is_numeric()) {
          values.push_back(forced->numeric());
        }
      }
      for (const OrderDcTracker& tracker : order_trackers) {
        const double x = row[tracker.x_attr].numeric();
        auto it = std::lower_bound(
            tracker.points.begin(), tracker.points.end(),
            std::make_pair(x, -std::numeric_limits<double>::infinity()));
        // Index arithmetic: `it + step` would be UB for out-of-range
        // steps (and on the null iterator of an empty vector).
        const ptrdiff_t base = it - tracker.points.begin();
        const ptrdiff_t size =
            static_cast<ptrdiff_t>(tracker.points.size());
        for (ptrdiff_t step = -2; step <= 2; ++step) {
          const ptrdiff_t j = base + step;
          if (j >= 0 && j < size) {
            values.push_back(tracker.points[static_cast<size_t>(j)].second);
          }
        }
      }
      return values;
    };

    for (size_t i = 0; i < n; ++i) {
      // Hard-FD fast path (section 7.3.6): copy the forced value from the
      // previously synthesized rows of the same group, if one exists.
      if (fast_path) {
        std::optional<Value> forced;
        for (size_t dc_index : active) {
          forced = indices[dc_index]->FdForcedValue(out.row(i));
          if (forced.has_value()) break;
        }
        if (forced.has_value()) {
          out.set(i, unit.attrs[0], *forced);
          ++telemetry->fd_fast_path_hits;
          for (size_t dc_index : active) {
            indices[dc_index]->AddRow(out.row(i));
          }
          continue;
        }
      }

      std::vector<double> extra_values;
      if (track_prior_values) {
        extra_values = nearest_y_values(out.row(i));
        for (int c = 0; c < 4 && !prior_values.empty(); ++c) {
          extra_values.push_back(prior_values[static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(prior_values.size()) - 1))]);
        }
      }
      const CandidateSet candidates = GenerateCandidates(
          unit, schema, out.row(i), options, extra_values, rng);
      if (candidates.empty()) {
        return Status::Internal("no candidates generated for attribute unit");
      }

      size_t chosen;
      if (!use_dc_factor) {
        // RandSampling ablation / no active DCs: i.i.d. tuple sampling.
        chosen = rng->Discrete(candidates.probs);
      } else if (options.accept_reject) {
        // Experiment 6: accept-reject sampling. Draw from p_{v|c}; accept
        // with probability exp(-penalty); keep the last draw on exhaustion.
        chosen = candidates.size() - 1;
        for (size_t attempt = 0; attempt < options.ar_max_tries; ++attempt) {
          const size_t pick = rng->Discrete(candidates.probs);
          ++telemetry->ar_proposals;
          ApplyCandidate(unit, candidates.at(pick), &out, i);
          const double penalty = ViolationPenalty(out.row(i), nullptr, active,
                                                  constraints, {&indices});
          if (penalty <= 0.0 || rng->Bernoulli(std::exp(-penalty))) {
            chosen = pick;
            break;
          }
          chosen = pick;  // last sampled value if we never accept
        }
      } else {
        // Constraint-aware direct sampling (Algorithm 3 line 10):
        // P[v] proportional to p_{v|c} * exp(-sum w_phi * new_violations),
        // computed in log space so hard-DC penalties stay comparable.
        // Candidates are scored through the indices, off the table; only
        // the winner touches it.
        std::vector<double> log_scores;
        ScoreCandidates(unit, candidates, out.row(i), /*replaced=*/nullptr,
                        active, constraints, {&indices}, &log_scores);
        chosen = rng->Discrete(LogScoresToWeights(log_scores));
      }

      ApplyCandidate(unit, candidates.at(chosen), &out, i);
      if (use_dc_factor) {
        for (size_t dc_index : active) {
          indices[dc_index]->AddRow(out.row(i));
        }
      }
      if (track_prior_values) {
        const double y = out.at(i, unit.attrs[0]).numeric();
        prior_values.push_back(y);
        for (OrderDcTracker& tracker : order_trackers) {
          const double x = out.at(i, tracker.x_attr).numeric();
          tracker.points.insert(
              std::lower_bound(tracker.points.begin(), tracker.points.end(),
                               std::make_pair(x, y)),
              {x, y});
        }
      }
    }

    // Constrained MCMC (Algorithm 3 line 12), row-batched: each batch
    // freezes the table, re-scores its rows concurrently — every row on a
    // scratch copy, drawing from its own RngStream sub-stream keyed by
    // resample index — then applies the winners in batch order. Within a
    // batch, re-samples condition on the pre-batch snapshot instead of on
    // each other (the price of parallelism); across thread counts the
    // output is bit-identical because randomness is keyed by index, never
    // by thread or schedule. When the shard is itself a pool task the
    // batch runs inline (`ParallelFor` never nests) — same result, since
    // randomness is keyed by resample index either way. Candidates score
    // against full-table indices, which only the apply step writes.
    if (mcmc_resamples > 0) {
      const runtime::RngStream streams(rng->NextSeed());
      const std::vector<size_t> scored =
          use_dc_factor ? active : std::vector<size_t>();
      IndexSet table_indices = IndexTable(out, scored, constraints);
      struct Resample {
        size_t row = 0;
        std::vector<Value> values;  // winning candidate, aligned with attrs
        bool accepted = false;
      };
      size_t done = 0;
      while (done < mcmc_resamples) {
        const size_t batch = std::min(kMcmcBatchRows, mcmc_resamples - done);
        std::vector<Resample> resamples(batch);
        // Row picks come from the sequential run RNG, before the batch
        // executes, so they are schedule-independent.
        for (size_t k = 0; k < batch; ++k) {
          resamples[k].row = static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(n) - 1));
        }
        auto resample_range = [&](size_t lo, size_t hi) {
          for (size_t k = lo; k < hi; ++k) {
            Rng task_rng(streams.SubSeed(done + k));
            const size_t i = resamples[k].row;
            const Row current = out.row(i);
            std::vector<double> extra_values;
            if (track_prior_values) {
              extra_values = nearest_y_values(current);
            }
            const CandidateSet candidates = GenerateCandidates(
                unit, schema, current, options, extra_values, &task_rng);
            if (candidates.empty()) continue;
            std::vector<double> log_scores;
            ScoreCandidates(unit, candidates, current, &current, scored,
                            constraints, {&table_indices}, &log_scores);
            const size_t pick =
                task_rng.Discrete(LogScoresToWeights(log_scores));
            resamples[k].values.assign(candidates.at(pick),
                                       candidates.at(pick) + candidates.width);
            resamples[k].accepted = true;
          }
          return Status::OK();
        };
        KAMINO_RETURN_IF_ERROR(
            runtime::ParallelFor(0, batch, 1, resample_range));
        for (Resample& r : resamples) {
          if (!r.accepted) continue;
          const Row old = out.row(r.row);
          ApplyCandidate(unit, r.values.data(), &out, r.row);
          ReplaceIndexedRow(old, out.row(r.row), &table_indices);
          ++telemetry->mcmc_resamples;
        }
        ++telemetry->mcmc_batches;
        done += batch;
      }
    }
  }
  if (hooks != nullptr && hooks->on_rows_sampled) hooks->on_rows_sampled(n);
  return Status::OK();
}

/// Everything one shard produces: its slice of the instance and its
/// telemetry counters.
struct ShardState {
  Table table;
  SynthesisTelemetry telemetry;
};

/// Shard planner: contiguous row ranges whose sizes are a pure function of
/// (n, num_shards) — the first n % num_shards shards take one extra row —
/// so shard boundaries never depend on the thread count.
std::vector<size_t> ShardSizes(size_t n, size_t num_shards) {
  std::vector<size_t> sizes(num_shards, n / num_shards);
  for (size_t s = 0; s < n % num_shards; ++s) ++sizes[s];
  return sizes;
}

/// Resolves the `num_shards` knob: 0 = one shard per worker thread, and
/// never more shards than rows.
size_t ResolveNumShards(size_t num_shards, size_t n) {
  size_t shards = num_shards == 0 ? runtime::GlobalNumThreads() : num_shards;
  if (shards < 1) shards = 1;
  if (n > 0 && shards > n) shards = n;
  return shards;
}

/// The one mechanism a shard freeze reconciles a DC's cross-shard
/// conflicts with, fixed once per run. The exact passes leave their DCs
/// violation-free by themselves, so the greedy repair never spends budget
/// on them.
enum class DcOwner : uint8_t {
  kNone,          // no cross-shard pairs: unary, or not indexed this run
  kCanonicalize,  // hard FD: FrozenFdLookups::Canonicalize
  kAlign,         // hard order DC with an AlignTask: FrozenAlignLookups
  kRepair,        // everything else: the budgeted greedy re-sample repair
};

/// Ownership before the exact passes claim their DCs: every DC that
/// pairs rows and that the per-shard sampling indexes (its activation
/// unit samples with the DC factor) is repair-owned.
std::vector<DcOwner> RepairOwners(
    const std::vector<WeightedConstraint>& constraints,
    const ActivationMap& activation, const KaminoOptions& options) {
  std::vector<DcOwner> owner(constraints.size(), DcOwner::kNone);
  for (size_t l = 0; l < constraints.size(); ++l) {
    if (options.constraint_aware_sampling &&
        activation.dc_unit[l] != SIZE_MAX && !constraints[l].dc.is_unary()) {
      owner[l] = DcOwner::kRepair;
    }
  }
  return owner;
}

/// A hard order DC reconciled by rank alignment instead of per-row
/// re-sampling (see BuildAlignTasks).
struct AlignTask {
  size_t dc = 0;              // index into `constraints`
  std::vector<size_t> group;  // equality scope (empty for the pair form)
  size_t ctx = 0;             // sort context attribute
  size_t dep = 0;             // attribute whose values get reassigned
  bool co_monotone = true;
};

/// Hard (possibly equality-scoped) order DCs are reconciled by rank
/// alignment instead of per-row re-sampling: each shard's internally
/// monotone relation disagrees with the others', and no sequence of
/// single-row repairs can make disagreeing monotone maps agree. Claims
/// (`DcOwner::kAlign`) each still repair-owned DC whose task is accepted.
std::vector<AlignTask> BuildAlignTasks(
    const ProbabilisticDataModel& model,
    const std::vector<WeightedConstraint>& constraints,
    const ActivationMap& activation, std::vector<DcOwner>* owner) {
  std::vector<AlignTask> alignments;
  // Attributes an accepted task's correctness depends on: a later task
  // whose dep would rewrite one of them would silently re-break the
  // earlier task's zeroed DC, so such a task falls back to repair instead.
  std::vector<size_t> locked_attrs;
  for (size_t l = 0; l < constraints.size(); ++l) {
    if ((*owner)[l] != DcOwner::kRepair || !constraints[l].hard) continue;
    std::optional<GroupedOrderSpec> spec =
        constraints[l].dc.AsGroupedOrderSpec();
    if (!spec.has_value()) continue;
    AlignTask task;
    task.dc = l;
    task.group = spec->group_attrs;
    task.co_monotone = spec->co_monotone;
    const size_t x = spec->x_attr;
    const size_t y = spec->y_attr;
    const size_t u = activation.dc_unit[l];
    if (u == SIZE_MAX || model.units()[u].attrs.size() != 1) continue;
    // The dependent side is the attribute sampled last (the activating
    // unit's attribute); its values get reassigned, the other side is the
    // sort context.
    const size_t a = model.units()[u].attrs[0];
    if (a == y) {
      task.dep = y;
      task.ctx = x;
    } else if (a == x) {
      task.dep = x;
      task.ctx = y;
    } else {
      continue;  // the unit samples a group attribute; fall back to repair
    }
    if (std::find(locked_attrs.begin(), locked_attrs.end(), task.dep) !=
        locked_attrs.end()) {
      continue;  // would rewrite an earlier task's attribute
    }
    locked_attrs.push_back(task.dep);
    locked_attrs.push_back(task.ctx);
    locked_attrs.insert(locked_attrs.end(), task.group.begin(),
                        task.group.end());
    (*owner)[l] = DcOwner::kAlign;
    alignments.push_back(std::move(task));
  }
  return alignments;
}

/// Indexed hard FDs grouped by RHS attribute, in the joint-canonicalization
/// form the prefix-frozen pass consumes (ascending RHS, so deterministic).
/// Claims each of them (`DcOwner::kCanonicalize`).
std::vector<PrefixFdFamily> BuildFdFamilies(
    const std::vector<WeightedConstraint>& constraints,
    std::vector<DcOwner>* owner) {
  std::map<size_t, PrefixFdFamily> by_rhs;
  for (size_t l = 0; l < constraints.size(); ++l) {
    if ((*owner)[l] != DcOwner::kRepair || !constraints[l].hard) continue;
    std::vector<size_t> lhs;
    size_t rhs = 0;
    if (!constraints[l].dc.AsFd(&lhs, &rhs)) continue;
    (*owner)[l] = DcOwner::kCanonicalize;
    PrefixFdFamily& family = by_rhs[rhs];
    family.rhs = rhs;
    family.lhs_sets.push_back(std::move(lhs));
  }
  std::vector<PrefixFdFamily> families;
  families.reserve(by_rhs.size());
  for (auto& [rhs, family] : by_rhs) {
    (void)rhs;
    families.push_back(std::move(family));
  }
  return families;
}

/// Retires one final slice of the instance and delivers it to
/// `hooks->on_chunk`. The slice is encoded at most once: out-of-core runs
/// seal the encoding into `spill` (and, under `compress`, pass the
/// same payload straight to the sink instead of re-encoding or re-reading
/// it); otherwise the rows are appended to `out` when the caller keeps the
/// table (null `out` = discard). The chunk then owns the slice, so the
/// sink may keep it alive past the call.
Status EmitFrozenSlice(Table live, size_t shard, size_t offset, bool last,
                       bool compress, const SynthesisHooks* hooks,
                       store::SpillStore* spill, Table* out,
                       SynthesisTelemetry* telemetry) {
  std::vector<uint8_t> encoded;
  if (spill != nullptr) {
    obs::TraceSpan spill_span("sampler/spill");
    spill_span.AddArg("shard", static_cast<int64_t>(shard));
    spill_span.AddArg("rows", static_cast<int64_t>(live.num_rows()));
    encoded = EncodeChunkColumns(live);
    const uint64_t before = spill->spilled_bytes();
    KAMINO_RETURN_IF_ERROR(spill->AppendBlock(encoded, live.num_rows()));
    const int64_t delta = static_cast<int64_t>(spill->spilled_bytes() - before);
    spill_span.AddArg("bytes", delta);
    telemetry->spill_blocks += 1;
    telemetry->spill_bytes += delta;
    telemetry->spilled_rows += static_cast<int64_t>(live.num_rows());
  } else if (out != nullptr) {
    out->AppendRowsFrom(live, 0, live.num_rows());
  }
  if (hooks == nullptr || !hooks->on_chunk) return Status::OK();
  if (!KeepGoing(hooks)) return CancelledStatus();
  obs::TraceSpan span("sampler/chunk");
  span.AddArg("shard", static_cast<int64_t>(shard));
  span.AddArg("row_offset", static_cast<int64_t>(offset));
  span.AddArg("rows", static_cast<int64_t>(live.num_rows()));
  TableChunk chunk;
  chunk.shard = shard;
  chunk.row_offset = offset;
  chunk.last = last;
  if (compress) {
    if (spill == nullptr) encoded = EncodeChunkColumns(live);
    chunk.encoded = std::move(encoded);
    chunk.encoded_rows = live.num_rows();
    chunk.rows = Table(live.schema());  // schema-only carrier
    span.AddArg("encoded_bytes", static_cast<int64_t>(chunk.encoded.size()));
  } else {
    chunk.rows = std::move(live);
  }
  return hooks->on_chunk(chunk);
}

/// Frozen-side source for the freeze repair's order-DC nearest-neighbour
/// candidate seeding. Per order-pair constraint it keeps one
/// (context value, unit value, global row) triple per frozen row, sorted
/// by (value, row); `SeedNearest` merges the frozen candidates with a
/// scan of the live rows, reproducing a partial_sort over the whole
/// prefix-plus-shard range — nearest `keep` by (|value - x0|, global
/// row), ascending — without re-reading a frozen row. The values are
/// captured at freeze time; frozen rows are immutable, so the copies
/// never go stale.
struct FrozenNeighborStore {
  struct Entry {
    double other = 0.0;  // the scanned (non-unit) attribute's value
    double unit = 0.0;   // the repaired unit attribute's value
    size_t row = 0;      // global row, the distance tie-break
  };

  FrozenNeighborStore(size_t other_attr, size_t unit_attr)
      : other_attr(other_attr), unit_attr(unit_attr) {}

  void Absorb(const Table& slice, size_t global_begin) {
    const size_t n = slice.num_rows();
    entries.reserve(entries.size() + n);
    for (size_t r = 0; r < n; ++r) {
      entries.push_back(Entry{slice.at(r, other_attr).numeric(),
                              slice.at(r, unit_attr).numeric(),
                              global_begin + r});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                if (a.other != b.other) return a.other < b.other;
                return a.row < b.row;
              });
  }

  /// Appends the unit values of the `keep` nearest rows to `x0` — over
  /// frozen and live rows jointly, excluding live row `self` — in
  /// (distance, global row) order.
  void SeedNearest(double x0, size_t keep, size_t global_begin, size_t self,
                   const Table& live, std::vector<double>* out_values) const {
    struct Cand {
      double dist = 0.0;
      size_t row = 0;
      double unit = 0.0;
    };
    std::vector<Cand> cands;
    // Frozen side: walk equal-value runs outward from x0. Successive runs
    // on one side have strictly increasing distance, so once a side has
    // contributed `keep` candidates no farther run can reach the top-k;
    // within a run (equal distance) the smallest `keep` rows suffice.
    const auto mid = std::lower_bound(
        entries.begin(), entries.end(), x0,
        [](const Entry& e, double v) { return e.other < v; });
    size_t taken = 0;
    for (auto it = mid; it != entries.end() && taken < keep;) {
      auto run_end = it;
      size_t in_run = 0;
      while (run_end != entries.end() && run_end->other == it->other) {
        if (in_run < keep) {
          cands.push_back(Cand{std::abs(run_end->other - x0), run_end->row,
                               run_end->unit});
          ++in_run;
        }
        ++run_end;
      }
      taken += in_run;
      it = run_end;
    }
    taken = 0;
    for (auto it = mid; it != entries.begin() && taken < keep;) {
      auto run_last = std::prev(it);
      auto run_first = run_last;
      while (run_first != entries.begin() &&
             std::prev(run_first)->other == run_last->other) {
        --run_first;
      }
      size_t in_run = 0;
      for (auto e = run_first; in_run < keep; ++e) {
        cands.push_back(Cand{std::abs(e->other - x0), e->row, e->unit});
        ++in_run;
        if (e == run_last) break;
      }
      taken += in_run;
      it = run_first;
    }
    // Live side: every row is a candidate, read directly (their values
    // can still change under repair).
    for (size_t j = 0; j < live.num_rows(); ++j) {
      if (j == self) continue;
      cands.push_back(Cand{
          std::abs(live.at(j, other_attr).numeric() - x0), global_begin + j,
          live.at(j, unit_attr).numeric()});
    }
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.dist != b.dist) return a.dist < b.dist;
      return a.row < b.row;
    });
    const size_t take = std::min(keep, cands.size());
    for (size_t k = 0; k < take; ++k) out_values->push_back(cands[k].unit);
  }

  size_t other_attr = 0;
  size_t unit_attr = 0;
  std::vector<Entry> entries;
};

/// Synthesis at every shard count, with prefix-frozen reconciliation:
/// shard s is reconciled against the already-frozen prefix [0, s) as soon
/// as its sampling completes, the grown prefix freezes, and shard s's
/// chunk is emitted immediately — while later shards are still sampling on
/// the pool. The first chunk therefore leaves after ~1/num_shards of the
/// work. A one-shard run is one freeze against an empty prefix.
///
/// Every DC has exactly one owner (`DcOwner`, fixed before the first
/// freeze): hard FDs are canonicalized, hard order DCs with an accepted
/// `AlignTask` are rank-aligned, and every other indexed pair DC — soft,
/// or hard with no exact pass — is repaired. Each freeze touches only
/// shard s's rows (frozen cells are never written):
///  1. Conflict detection: each shard row's `CountNew` against the running
///     merged indices (exactly the frozen prefix) counts the cross-shard
///     violating pairs the per-shard sampling could not see; rows in such
///     a pair of a repair-owned DC become the conflict set.
///  2. Bounded greedy re-sample repair over the conflicted shard rows in
///     ascending row order, with randomness keyed by (global row, unit).
///     The budget scales with the conflict set (16 + 2 per conflicted
///     row) and the sweep stops early once consecutive repairs stop
///     reducing the weighted violation penalty.
///  3. Prefix-frozen hard-FD canonicalization: shard rows adopt the
///     frozen prefix's canonical RHS values, never the reverse.
///  4. Prefix-frozen rank alignment: shard rows slot into the frozen
///     monotone relation (envelope clamp). Run whenever the DC actually
///     has violations.
///  5. Hard FDs win: re-run 3 if 4 touched an FD attribute.
/// Shard 0's freeze runs 3/4 with an empty prefix, so the exactly-owned
/// hard DCs hold after *every* freeze, at every shard count.
///
/// Determinism: shard content comes from per-shard sub-seeds (one shard:
/// the run RNG itself, the paper's sequential stream), and every freeze
/// is a pure function of (frozen prefix, shard s, repair stream) applied
/// in fixed shard order by this one coordinator thread — so the output is
/// a pure function of (seed, num_shards), bit-identical at any
/// num_threads.
Result<Table> ProgressiveShardSynthesis(
    const ProbabilisticDataModel& model,
    const std::vector<WeightedConstraint>& constraints,
    const KaminoOptions& options, const SampleSpec& run,
    const ActivationMap& activation, const std::vector<size_t>& sizes,
    const std::vector<size_t>& offsets,
    const std::vector<size_t>& mcmc_budgets, Rng* rng,
    const SynthesisHooks* hooks, SynthesisTelemetry* telemetry) {
  const Schema& schema = model.schema();
  const size_t num_shards = sizes.size();
  // Seeds. Several shards each sample from a sub-seed of one root drawn
  // from the run RNG, and the freeze repair draws from a stream distinct
  // from all of them. One shard samples from the run RNG itself, with no
  // draw before it (the paper's sequential stream), and never repairs:
  // with no frozen prefix there are no cross-shard conflicts.
  const bool one_shard = num_shards == 1;
  const runtime::RngStream root(one_shard ? 0 : rng->NextSeed());
  // The assembled table, unless the caller consumes the run through chunks
  // only (`collect_table` off): then it stays schema-only.
  Table out(schema);
  Table* const keep_table = run.collect_table ? &out : nullptr;

  // Out-of-core: frozen slices leave memory for the spill store at their
  // freeze. The store lives on this stack frame, so its destructor —
  // which unlinks the spill file and temp dir — runs on every exit path:
  // completion, error, cancellation, and engine teardown (the drain
  // below unwinds through here).
  const bool out_of_core = run.out_of_core;
  std::unique_ptr<store::SpillStore> spill;
  if (out_of_core) {
    KAMINO_ASSIGN_OR_RETURN(spill, store::SpillStore::Create(options.spill_dir));
  }

  std::vector<ShardState> shards(num_shards);
  for (ShardState& shard : shards) shard.table = Table(schema);

  auto run_shard = [&](size_t s) -> Status {
    if (!KeepGoing(hooks)) return CancelledStatus();
    obs::TraceSpan span("sampler/shard");
    span.AddArg("shard", static_cast<int64_t>(s));
    span.AddArg("rows", static_cast<int64_t>(sizes[s]));
    Rng shard_rng(root.SubSeed(s));
    return SampleShardRows(model, constraints, activation, sizes[s], options,
                           mcmc_budgets[s], hooks, one_shard ? rng : &shard_rng,
                           &shards[s].telemetry, &shards[s].table);
  };

  // Scheduling: shards go onto the pool as independent tasks while this
  // (coordinator) thread freezes them strictly in ascending order. With one
  // shard (nothing to overlap, and its MCMC batches need the pool), a
  // single-thread budget, or a caller that is itself a pool worker and
  // must not block on pool tasks, shards run inline between freezes
  // instead: the same sample -> freeze -> emit order, so the same output
  // and the same early first chunk, just without sampling/freeze overlap.
  const bool inline_shards = one_shard || runtime::GlobalNumThreads() <= 1 ||
                             runtime::ThreadPool::InWorkerThread();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<char> done(num_shards, 0);
  std::vector<Status> shard_status(num_shards, Status::OK());
  std::shared_ptr<runtime::ThreadPool> pool;
  size_t dispatched = 0;
  auto dispatch_shard = [&](size_t s) {
    pool->Submit([&, s] {
      Status st;
      try {
        st = run_shard(s);
      } catch (const std::exception& e) {
        st = Status::Internal(std::string("shard sampling threw: ") +
                              e.what());
      } catch (...) {
        st = Status::Internal("shard sampling threw a non-std exception");
      }
      std::lock_guard<std::mutex> lock(mu);
      shard_status[s] = std::move(st);
      done[s] = 1;
      cv.notify_all();
    });
  };
  if (!inline_shards) {
    pool = runtime::GlobalThreadPool();
    // In-memory runs dispatch everything up front for maximum overlap.
    // Out-of-core runs window the dispatch to two shards — the one being
    // frozen plus the one sampling behind it — and release the next only
    // after a freeze retires its slice to disk; that, not the spill, is
    // what bounds peak residency to ~2 shard widths.
    const size_t window =
        out_of_core ? std::min<size_t>(2, num_shards) : num_shards;
    for (; dispatched < window; ++dispatched) dispatch_shard(dispatched);
  }

  // The freeze plan, fixed for the run: one owner per DC, the exact
  // passes' inputs, and merged[l], which indexes exactly the frozen prefix
  // of every DC with cross-shard pairs, growing at each freeze.
  std::vector<DcOwner> owner = RepairOwners(constraints, activation, options);
  const std::vector<PrefixFdFamily> families =
      BuildFdFamilies(constraints, &owner);
  const std::vector<AlignTask> alignments =
      BuildAlignTasks(model, constraints, activation, &owner);
  IndexSet merged(constraints.size());
  for (size_t l = 0; l < constraints.size(); ++l) {
    if (owner[l] != DcOwner::kNone) {
      merged[l] = MakeViolationIndex(constraints[l].dc);
    }
  }
  // Persistent frozen-prefix lookups: everything a freeze needs from the
  // rows frozen before it, absorbed slice by slice so no frozen row is
  // ever re-read for reconciliation (the out-of-core contract; in-memory
  // runs share the exact same code path).
  FrozenFdLookups fd_lookups(families);
  std::vector<FrozenAlignLookups> align_lookups;
  for (const AlignTask& task : alignments) {
    PrefixAlignSpec spec;
    spec.group_attrs = task.group;
    spec.ctx_attr = task.ctx;
    spec.dep_attr = task.dep;
    spec.co_monotone = task.co_monotone;
    align_lookups.emplace_back(std::move(spec));
  }
  // The DCs repair candidates are scored on: every DC active at a unit
  // the repair re-samples (the activation unit of a repair-owned DC).
  std::vector<size_t> repair_scored;
  for (const std::vector<size_t>& active : activation.unit_active) {
    if (std::any_of(active.begin(), active.end(), [&](size_t l) {
          return owner[l] == DcOwner::kRepair;
        })) {
      repair_scored.insert(repair_scored.end(), active.begin(), active.end());
    }
  }
  // Frozen-neighbour stores for the repair's order-DC candidate seeding:
  // one per order-pair DC among those, when its unit is a single numeric
  // attribute on one side of the pair.
  std::vector<std::unique_ptr<FrozenNeighborStore>> neighbors(
      constraints.size());
  for (size_t l : repair_scored) {
    size_t x = 0, y = 0;
    if (!constraints[l].dc.AsOrderPair(&x, &y)) continue;
    const size_t u = activation.dc_unit[l];
    if (model.units()[u].attrs.size() != 1) continue;
    const size_t unit_attr = model.units()[u].attrs[0];
    if (!schema.attribute(unit_attr).is_numeric()) continue;
    const size_t other = y == unit_attr ? x : (x == unit_attr ? y : SIZE_MAX);
    if (other == SIZE_MAX || !schema.attribute(other).is_numeric()) continue;
    neighbors[l] = std::make_unique<FrozenNeighborStore>(other, unit_attr);
  }
  // Running count of violating pairs wholly inside the frozen prefix,
  // per alignment DC — the frozen-side term of the align-pass gate.
  std::vector<int64_t> frozen_violations(constraints.size(), 0);
  const runtime::RngStream merge_stream(root.SubSeed(num_shards));
  constexpr size_t kMergeNoGainStreak = 8;

  // Resident-row high-water mark, computed analytically (never by reading
  // a table a pool worker may be filling): the slice being frozen + the
  // accumulated in-memory output + every dispatched-but-unfrozen shard at
  // its full width.
  int64_t peak_resident = 0;
  auto note_resident = [&](size_t s, size_t live_rows) {
    int64_t resident =
        static_cast<int64_t>(live_rows) + static_cast<int64_t>(out.num_rows());
    const size_t hi = inline_shards ? s + 1 : dispatched;
    for (size_t j = s + 1; j < hi; ++j) {
      resident += static_cast<int64_t>(sizes[j]);
    }
    peak_resident = std::max(peak_resident, resident);
  };

  auto freeze_shard = [&](size_t s, obs::TraceSpan& span) -> Status {
    const size_t begin = offsets[s];
    // The freeze works on the shard's own table ("live"): local row r is
    // global row begin + r. The frozen prefix is consulted only through
    // the merged indices and the persistent lookups above — never by
    // reading prefix rows — which is what lets the out-of-core path drop
    // them from memory without changing a single sampled bit.
    Table live = std::move(shards[s].table);
    shards[s].table = Table(schema);
    note_resident(s, live.num_rows());
    telemetry->ar_proposals += shards[s].telemetry.ar_proposals;
    telemetry->fd_fast_path_hits += shards[s].telemetry.fd_fast_path_hits;
    telemetry->mcmc_resamples += shards[s].telemetry.mcmc_resamples;
    telemetry->mcmc_batches += shards[s].telemetry.mcmc_batches;

    // Conflict detection against the frozen prefix, recounted from the
    // final shard rows: each row's delta against the merged indices is
    // its frozen x live violating pairs. Rows in such a pair of a
    // repair-owned DC are queued for repair; the exact passes below fix
    // the other DCs' conflicts wholesale.
    std::map<size_t, std::vector<size_t>> offenders;
    int64_t freeze_cross = 0;
    for (size_t r = 0; r < live.num_rows(); ++r) {
      const Row row = live.row(r);
      for (size_t l = 0; l < constraints.size(); ++l) {
        if (merged[l] == nullptr) continue;
        const int64_t cross = merged[l]->CountNew(row);
        if (cross == 0) continue;
        freeze_cross += cross;
        if (owner[l] == DcOwner::kRepair) offenders[begin + r].push_back(l);
      }
    }
    telemetry->merge_cross_violations += freeze_cross;
    telemetry->merge_conflict_rows += static_cast<int64_t>(offenders.size());

    // Bounded greedy repair, restricted to shard s's rows. Candidates are
    // scored through the indices only: the merged indices (exactly the
    // frozen prefix) plus live-slice indices of every DC active at a
    // repaired unit, which each repair write keeps in step — equal to the
    // full-table penalty over [0, end) without touching a frozen row.
    if (!offenders.empty()) {
      IndexSet live_indices = IndexTable(live, repair_scored, constraints);
      size_t budget = 16 + 2 * offenders.size();
      telemetry->merge_budget += static_cast<int64_t>(budget);
      size_t no_gain_streak = 0;
      bool swept_dry = false;
      for (const auto& [row, dcs] : offenders) {
        if (budget == 0 || swept_dry) break;
        std::vector<size_t> units;
        for (size_t l : dcs) {
          const size_t u = activation.dc_unit[l];
          if (u != SIZE_MAX &&
              std::find(units.begin(), units.end(), u) == units.end()) {
            units.push_back(u);
          }
        }
        std::sort(units.begin(), units.end());
        for (size_t u : units) {
          if (budget == 0) break;
          const ModelUnit& unit = model.units()[u];
          const std::vector<size_t>& active = activation.unit_active[u];
          // RNG keying stays on the GLOBAL row, so the draws do not
          // depend on where the shard's rows are held.
          Rng task_rng(merge_stream.Fork(row).SubSeed(u));
          const size_t local = row - begin;
          const Row current = live.row(local);

          // Frozen-instance candidate seeding for numeric attributes: the
          // prefix's established FD value and the order-DC neighbours'
          // values are often the only feasible points.
          std::vector<double> extra_values;
          if (unit.attrs.size() == 1 &&
              schema.attribute(unit.attrs[0]).is_numeric()) {
            for (size_t l : active) {
              std::vector<size_t> lhs;
              size_t rhs = 0, x = 0, y = 0;
              if (merged[l] != nullptr && constraints[l].dc.AsFd(&lhs, &rhs) &&
                  rhs == unit.attrs[0]) {
                std::optional<Value> forced = merged[l]->FdForcedValue(current);
                if (forced.has_value() && forced->is_numeric()) {
                  extra_values.push_back(forced->numeric());
                }
              } else if (constraints[l].dc.AsOrderPair(&x, &y)) {
                const size_t other =
                    y == unit.attrs[0] ? x
                                       : (x == unit.attrs[0] ? y : SIZE_MAX);
                if (other != SIZE_MAX && schema.attribute(other).is_numeric() &&
                    neighbors[l] != nullptr) {
                  const double x0 = current[other].numeric();
                  neighbors[l]->SeedNearest(x0, /*keep=*/4, begin, local, live,
                                            &extra_values);
                }
              }
            }
          }

          const CandidateSet candidates = GenerateCandidates(
              unit, schema, current, options, extra_values, &task_rng);
          if (candidates.empty()) continue;
          const double penalty_before = ViolationPenalty(
              current, &current, active, constraints, {&merged, &live_indices});
          std::vector<double> log_scores;
          std::vector<double> penalties;
          ScoreCandidates(unit, candidates, current, &current, active,
                          constraints, {&merged, &live_indices}, &log_scores,
                          &penalties);
          size_t pick = 0;
          double best = -std::numeric_limits<double>::infinity();
          double best_penalty = penalty_before;
          for (size_t c = 0; c < candidates.size(); ++c) {
            if (log_scores[c] > best) {
              best = log_scores[c];
              best_penalty = penalties[c];
              pick = c;
            }
          }
          ApplyCandidate(unit, candidates.at(pick), &live, local);
          ReplaceIndexedRow(current, live.row(local), &live_indices);
          ++telemetry->merge_resamples;
          --budget;
          // Early stop: a run of repairs that leave the weighted penalty
          // where it was means the remaining conflicts are not
          // single-row-repairable.
          if (best_penalty < penalty_before - 1e-12) {
            no_gain_streak = 0;
          } else if (++no_gain_streak >= kMergeNoGainStreak) {
            ++telemetry->merge_early_stops;
            swept_dry = true;
            break;
          }
        }
      }
    }

    // Exact hard-DC passes against the persistent frozen lookups; frozen
    // rows are neither written nor read.
    std::vector<bool> attr_modified(schema.size(), false);
    telemetry->merge_fd_rewrites +=
        fd_lookups.Canonicalize(&live, &attr_modified);

    bool realigned_fd_attr = false;
    for (size_t k = 0; k < alignments.size(); ++k) {
      const AlignTask& task = alignments[k];
      // Count for real every freeze (intra-shard residuals must also be
      // caught before the rows freeze) — but without re-reading frozen
      // rows: total = pairs wholly inside the prefix (the running
      // `frozen_violations` fold) + pairs inside the live slice + frozen
      // x live pairs via the merged index delta.
      int64_t total = frozen_violations[task.dc] +
                      CountViolations(constraints[task.dc].dc, live);
      if (merged[task.dc] != nullptr) {
        for (size_t r = 0; r < live.num_rows(); ++r) {
          total += merged[task.dc]->CountNew(live.row(r));
        }
      }
      if (total == 0) continue;
      const int64_t moved = align_lookups[k].Align(&live);
      telemetry->merge_order_alignments += moved;
      if (moved == 0) continue;
      attr_modified[task.dep] = true;
      for (const PrefixFdFamily& family : families) {
        if (family.rhs == task.dep) realigned_fd_attr = true;
        for (const std::vector<size_t>& lhs : family.lhs_sets) {
          if (std::find(lhs.begin(), lhs.end(), task.dep) != lhs.end()) {
            realigned_fd_attr = true;
          }
        }
      }
    }
    if (realigned_fd_attr) {
      telemetry->merge_fd_rewrites +=
          fd_lookups.Canonicalize(&live, &attr_modified);
    }

    // Freeze: fold the shard's *final* rows into the frozen-prefix state
    // the later freezes read. The last freeze has no later one, so it
    // skips the fold.
    const bool last = s + 1 == num_shards;
    if (!last) {
      // Index the rows into the running merged indices. For alignment
      // DCs, fold the new intra-prefix pairs into the running count first
      // — CountNew before AddRow sees each pair exactly once.
      for (size_t l = 0; l < constraints.size(); ++l) {
        if (merged[l] == nullptr) continue;
        for (size_t r = 0; r < live.num_rows(); ++r) {
          if (owner[l] == DcOwner::kAlign) {
            frozen_violations[l] += merged[l]->CountNew(live.row(r));
          }
          merged[l]->AddRow(live.row(r));
        }
      }
      // Absorb the now-final slice into the persistent frozen lookups —
      // the last read of these rows for reconciliation purposes, ever.
      fd_lookups.Absorb(live, begin);
      for (size_t k = 0; k < alignments.size(); ++k) {
        align_lookups[k].Absorb(live);
      }
      for (size_t l = 0; l < constraints.size(); ++l) {
        if (neighbors[l] != nullptr) neighbors[l]->Absorb(live, begin);
      }
    }
    ++telemetry->merge_prefix_freezes;
    telemetry->merge_frozen_rows += static_cast<int64_t>(sizes[s]);
    span.AddArg("cross_violations", freeze_cross);
    span.AddArg("conflict_rows", static_cast<int64_t>(offenders.size()));

    // Emit immediately: these rows are frozen and never rewritten. The
    // in-memory copy dies with `live` unless the caller keeps the table.
    return EmitFrozenSlice(std::move(live), s, begin, last,
                           run.compress_chunks, hooks, spill.get(), keep_table,
                           telemetry);
  };

  Status status = Status::OK();
  for (size_t s = 0; s < num_shards; ++s) {
    if (!KeepGoing(hooks)) {
      status = CancelledStatus();
      break;
    }
    if (inline_shards) {
      dispatched = s + 1;  // for note_resident's dispatched-shard window
      status = run_shard(s);
    } else {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done[s] != 0; });
      status = shard_status[s];
    }
    if (!status.ok()) break;
    obs::TraceSpan span("sampler/prefix_merge");
    span.AddArg("shard", static_cast<int64_t>(s));
    span.AddArg("rows", static_cast<int64_t>(sizes[s]));
    span.AddArg("frozen_rows", static_cast<int64_t>(offsets[s]));
    status = freeze_shard(s, span);
    telemetry->merge_seconds += span.Finish();
    if (!status.ok()) break;
    // Windowed dispatch (out-of-core; an in-memory run dispatched every
    // shard up front): the freeze just retired a slice to disk, so there
    // is room for the next shard's table.
    if (!inline_shards && dispatched < num_shards) {
      dispatch_shard(dispatched);
      ++dispatched;
    }
  }

  if (!inline_shards) {
    // Drain: shard tasks reference this frame's state, so never return
    // while one may still run (an error or cancellation above only stops
    // the freezes; sampling tasks finish on their own, polling
    // `keep_going` at their internal boundaries).
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      for (size_t j = 0; j < dispatched; ++j) {
        if (done[j] == 0) return false;
      }
      return true;
    });
  }
  KAMINO_RETURN_IF_ERROR(status);
  telemetry->peak_resident_rows = peak_resident;
  if (out_of_core && keep_table != nullptr) {
    // The full table only ever existed on disk: reassemble it by bounded
    // re-read — one validated block resident at a time, bit-exact by the
    // codec's round-trip contract.
    for (size_t b = 0; b < spill->block_count(); ++b) {
      KAMINO_ASSIGN_OR_RETURN(Table slice, spill->ReadBlock(b, schema));
      out.AppendRowsFrom(slice, 0, slice.num_rows());
    }
  }
  return out;
}

/// Folds the run's telemetry into the global metrics registry once per
/// Synthesize call (no per-row metric traffic on the hot path). Observing
/// only: reads telemetry, never steers the run.
void RecordSamplerMetrics(const SynthesisTelemetry& t, size_t rows) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!reg.enabled()) return;
  reg.counter("kamino.sampler.runs")->Increment();
  reg.counter("kamino.sampler.rows_sampled")
      ->Increment(static_cast<int64_t>(rows));
  reg.counter("kamino.sampler.shards_sampled")
      ->Increment(static_cast<int64_t>(t.num_shards));
  reg.counter("kamino.sampler.ar_proposals")->Increment(t.ar_proposals);
  reg.counter("kamino.sampler.fd_fast_path_hits")
      ->Increment(t.fd_fast_path_hits);
  reg.counter("kamino.sampler.mcmc_resamples")->Increment(t.mcmc_resamples);
  reg.counter("kamino.sampler.merge_cross_violations")
      ->Increment(t.merge_cross_violations);
  reg.counter("kamino.sampler.merge_conflict_rows")
      ->Increment(t.merge_conflict_rows);
  reg.counter("kamino.sampler.merge_resamples")->Increment(t.merge_resamples);
  reg.counter("kamino.sampler.merge_prefix_freezes")
      ->Increment(t.merge_prefix_freezes);
  reg.counter("kamino.sampler.merge_frozen_rows")
      ->Increment(t.merge_frozen_rows);
  reg.counter("kamino.sampler.merge_penalty_live_row_scans")
      ->Increment(t.merge_penalty_live_row_scans);
  reg.counter("kamino.sampler.merge_penalty_frozen_row_scans")
      ->Increment(t.merge_penalty_frozen_row_scans);
  reg.counter("kamino.store.spill_blocks")->Increment(t.spill_blocks);
  reg.counter("kamino.store.spill_bytes")->Increment(t.spill_bytes);
  reg.counter("kamino.store.spilled_rows")->Increment(t.spilled_rows);
  reg.gauge("kamino.store.peak_resident_rows")
      ->Set(static_cast<double>(t.peak_resident_rows));
}

}  // namespace

Result<Table> Synthesize(const ProbabilisticDataModel& model,
                         const std::vector<WeightedConstraint>& constraints,
                         const KaminoOptions& options, const SampleSpec& run,
                         Rng* rng, SynthesisTelemetry* telemetry,
                         const SynthesisHooks* hooks) {
  SynthesisTelemetry local_telemetry;
  if (telemetry == nullptr) telemetry = &local_telemetry;
  telemetry->num_threads = runtime::GlobalNumThreads();

  const ActivationMap activation = BuildActivationMap(model, constraints);
  const size_t n = run.num_rows;
  const size_t num_shards = ResolveNumShards(
      run.num_shards == SampleSpec::kUnset ? options.num_shards
                                           : run.num_shards,
      n);
  telemetry->num_shards = num_shards;

  // --- Shard plan: contiguous slices, sampled, frozen in order and emitted
  // by ProgressiveShardSynthesis at every shard count. Everything below is
  // a pure function of (run seed, num_shards): shard randomness is keyed
  // by shard index and the freezes walk shards in fixed order, so the
  // output is bit-identical at any thread count.
  const std::vector<size_t> sizes = ShardSizes(n, num_shards);
  // The run-wide MCMC budget splits across shards the same way rows do,
  // so `mcmc_resamples` means the same total work at every shard count.
  const std::vector<size_t> mcmc_budgets =
      ShardSizes(options.mcmc_resamples, num_shards);
  std::vector<size_t> offsets(num_shards, 0);
  for (size_t s = 1; s < num_shards; ++s) {
    offsets[s] = offsets[s - 1] + sizes[s - 1];
  }

  KAMINO_ASSIGN_OR_RETURN(
      Table out, ProgressiveShardSynthesis(model, constraints, options, run,
                                           activation, sizes, offsets,
                                           mcmc_budgets, rng, hooks,
                                           telemetry));
  RecordSamplerMetrics(*telemetry, n);
  return out;
}

}  // namespace kamino
