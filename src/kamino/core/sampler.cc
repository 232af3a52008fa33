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
/// model probabilities p_{v|c}. A categorical unit's candidates are its
/// whole joint domain in index order, so `values` points into the unit's
/// run-wide joint table (`ActivationMap::unit_joint`); numeric candidates
/// are drawn per row into `owned`. A histogram unit's probabilities are
/// the same every row, so `log_probs` points at their logs in the run's
/// `ActivationMap::unit_log_prior`; other units leave it null.
struct CandidateSet {
  size_t width = 0;               // unit.attrs.size()
  const Value* values = nullptr;  // candidate c at [c * width, (c + 1) * width)
  std::vector<Value> owned;       // numeric candidates' storage
  std::vector<double> probs;      // one per candidate
  const double* log_probs = nullptr;  // LogProb(probs[c]), or null

  size_t size() const { return probs.size(); }
  bool empty() const { return probs.empty(); }
  const Value* at(size_t c) const { return values + c * width; }
};

/// Working memory of one sampling context — a shard's row loop, one MCMC
/// batch slot, one freeze repair — reused for every (row, unit) it
/// draws, so the steady-state loop allocates nothing.
struct SampleScratch {
  Row row;            // the row being drawn, kept in step with its table
  Row candidate_row;  // `row` with one candidate written in
  CandidateSet candidates;
  std::vector<double> extra_values;  // recycled numeric candidates
  std::vector<int64_t> counts;  // [d * m + c]: candidate c under active[d]
  std::vector<int64_t> part;    // one index's batch counts
  std::vector<double> dc_weights;  // EffectiveWeight of each active DC
  std::vector<double> log_scores;
  std::vector<double> penalties;
  std::vector<double> weights;
  InferenceScratch inference;
};

/// A candidate's log prior log p_{v|c}, floored so p = 0 stays finite.
double LogProb(double p) { return std::log(p + 1e-300); }

double GaussianPdf(double x, double mu, double sigma) {
  const double z = (x - mu) / sigma;
  return std::exp(-0.5 * z * z) / (sigma * std::sqrt(2.0 * M_PI));
}

/// Converts per-candidate log-scores into sampling weights in `weights`,
/// shifting by the max so that large DC penalties (hard weights * many
/// violations) never underflow every weight to zero at once - the
/// *relative* penalty is what matters for line 10 of Algorithm 3.
void LogScoresToWeights(const std::vector<double>& log_scores,
                        std::vector<double>* weights) {
  double mx = -std::numeric_limits<double>::infinity();
  for (double s : log_scores) mx = std::max(mx, s);
  if (!std::isfinite(mx)) {
    // Every candidate collapsed to zero mass (all log-scores -inf, e.g.
    // hard-DC penalties on every value): make the uniform fallback
    // explicit instead of handing a zero-mass distribution to Rng.
    weights->assign(log_scores.size(), 1.0);
    return;
  }
  weights->resize(log_scores.size());
  for (size_t i = 0; i < log_scores.size(); ++i) {
    (*weights)[i] = std::exp(log_scores[i] - mx);
  }
}

/// Enumerates the candidate set D(S[j]) with conditional probabilities
/// (Algorithm 3 line 6, plus the continuous-domain candidate sampling)
/// into `out`. `joint` is the unit's joint table (empty for a numeric
/// unit) and `log_prior` its histogram's log probabilities (empty for a
/// discriminative unit); `inference` is the model's working memory.
void GenerateCandidates(const ModelUnit& unit, const Schema& schema,
                        const Row& row, const KaminoOptions& options,
                        const std::vector<double>& prior_values,
                        const std::vector<Value>& joint,
                        const std::vector<double>& log_prior, Rng* rng,
                        InferenceScratch* inference, CandidateSet* out) {
  out->width = unit.attrs.size();
  out->values = joint.data();
  out->owned.clear();
  out->probs.clear();
  out->log_probs = nullptr;
  if (unit.kind == ModelUnit::Kind::kHistogram) {
    out->log_probs = log_prior.data();
    if (unit.quantizer.has_value()) {
      // Numeric histogram: one candidate per bin, valued uniformly within.
      for (size_t b = 0; b < unit.distribution.size(); ++b) {
        out->owned.push_back(Value::Numeric(
            unit.quantizer->SampleWithin(static_cast<int>(b), rng)));
      }
      out->values = out->owned.data();
    }
    out->probs.assign(unit.distribution.begin(), unit.distribution.end());
    return;
  }

  // Discriminative unit.
  const DiscriminativeModel& model = *unit.model;
  if (model.target_is_categorical()) {
    model.PredictCategorical(row, inference, &out->probs);
    return;
  }

  // Numeric target: draw d candidates from the predicted Gaussian, each
  // weighted by its density (section 4.2). A few deterministic quantile
  // points (mu, mu +- {0.5, 1, 2} sigma) are added so that at least some
  // candidates cover the distribution's bulk even for small d, which gives
  // the DC factor feasible values to choose from.
  auto [mu, sigma] = model.PredictGaussian(row, inference);
  const Attribute& attr = schema.attribute(unit.attrs[0]);
  if (sigma <= 0.0) sigma = 1e-3;
  auto add_candidate = [&](double v) {
    v = std::min(attr.max_value(), std::max(attr.min_value(), v));
    out->owned.push_back(Value::Numeric(v));
    out->probs.push_back(GaussianPdf(v, mu, sigma));
  };
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
  // reuse stays improbable. The caller curates this list (`AppendSeeds`
  // plus, while sampling, a few random recycled values).
  for (double v : prior_values) add_candidate(v);
  out->values = out->owned.data();
}

/// Installs a candidate's values (aligned with `unit.attrs`) into table
/// row `row_index` and into `row`, its materialized copy.
void ApplyCandidate(const ModelUnit& unit, const Value* values, Table* table,
                    size_t row_index, Row* row) {
  for (size_t i = 0; i < unit.attrs.size(); ++i) {
    table->set(row_index, unit.attrs[i], values[i]);
    (*row)[unit.attrs[i]] = values[i];
  }
}

/// One violation index per DC (null where a DC is not indexed).
using IndexSet = std::vector<std::unique_ptr<ViolationIndex>>;

/// One DC's term of a penalty: w_phi (`weight`, the DC's
/// `EffectiveWeight()`) times the `vio` new violations of `candidate`,
/// less its pair with `replaced` (when set; the row it replaces, which
/// the indices still hold).
double DcPenalty(const WeightedConstraint& wc, double weight, int64_t vio,
                 const Row& candidate, const Row* replaced) {
  if (replaced != nullptr && !wc.dc.is_unary() &&
      wc.dc.ViolatesPair(candidate, *replaced)) {
    --vio;
  }
  return vio > 0 ? weight * static_cast<double>(vio) : 0.0;
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
    const WeightedConstraint& wc = constraints[dc_index];
    penalty += DcPenalty(wc, wc.EffectiveWeight(), vio, candidate, replaced);
  }
  return penalty;
}

/// Indexes every row of `table` under each DC in `dcs`.
IndexSet IndexTable(const Table& table, const std::vector<size_t>& dcs,
                    const std::vector<WeightedConstraint>& constraints) {
  IndexSet indices(constraints.size());
  if (dcs.empty()) return indices;
  for (size_t l : dcs) indices[l] = MakeViolationIndex(constraints[l].dc);
  Row row;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    table.CopyRowInto(r, &row);
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

/// Fills `s->log_scores` with log p_{v|c} - `ViolationPenalty` for every
/// candidate of `s->candidates` written over `s->row` (Algorithm 3 line 10
/// in log space), and `s->penalties` with the penalties alone. Scoring is
/// DC-major: one `CountNewBatch` per active DC and index set scores the
/// whole candidate set, then each candidate's penalty adds its DC terms
/// in `active` order, exactly as `ViolationPenalty` would, with each DC's
/// weight read once per set. Runs inline: a whole set costs one index walk
/// per DC, too little to ship to the pool. Every buffer is `s`'s own, so
/// scoring allocates nothing once they have grown.
void ScoreCandidates(const ModelUnit& unit, const Row* replaced,
                     const std::vector<size_t>& active,
                     const std::vector<WeightedConstraint>& constraints,
                     std::initializer_list<const IndexSet*> index_sets,
                     SampleScratch* s) {
  const CandidateSet& candidates = s->candidates;
  const size_t m = candidates.size();
  s->log_scores.resize(m);
  s->penalties.resize(m);
  s->counts.assign(active.size() * m, 0);
  s->part.resize(m);
  s->dc_weights.resize(active.size());
  for (size_t d = 0; d < active.size(); ++d) {
    s->dc_weights[d] = constraints[active[d]].EffectiveWeight();
    int64_t* counts = s->counts.data() + d * m;
    for (const IndexSet* indices : index_sets) {
      const ViolationIndex* index = (*indices)[active[d]].get();
      if (index == nullptr) continue;
      index->CountNewBatch(s->row, unit.attrs, candidates.values, m,
                           s->part.data());
      for (size_t c = 0; c < m; ++c) counts[c] += s->part[c];
    }
  }
  // The candidate row itself is only needed for the replaced-row pair.
  if (replaced != nullptr) s->candidate_row = s->row;
  for (size_t c = 0; c < m; ++c) {
    if (replaced != nullptr) {
      const Value* values = candidates.at(c);
      for (size_t i = 0; i < candidates.width; ++i) {
        s->candidate_row[unit.attrs[i]] = values[i];
      }
    }
    double penalty = 0.0;
    for (size_t d = 0; d < active.size(); ++d) {
      penalty += DcPenalty(constraints[active[d]], s->dc_weights[d],
                           s->counts[d * m + c], s->candidate_row, replaced);
    }
    const double log_p = candidates.log_probs != nullptr
                             ? candidates.log_probs[c]
                             : LogProb(candidates.probs[c]);
    s->log_scores[c] = log_p - penalty;
    s->penalties[c] = penalty;
  }
}

/// One DC's shape: the two views of its `Decompose()`, the same ones
/// `MakeViolationIndex` picks the DC's index from. At most one is set.
struct DcShape {
  std::optional<FdSpec> fd;
  std::optional<GroupedOrderSpec> order;

  /// True when the FD view's right-hand side is `attr`.
  bool FdDetermines(size_t attr) const {
    return fd.has_value() && fd->rhs == attr;
  }

  /// For an order pair (the grouped-order view with an empty scope) over
  /// `attr`, the pair's other attribute; SIZE_MAX otherwise.
  size_t OrderPartner(size_t attr) const {
    if (!order.has_value() || !order->group_attrs.empty()) return SIZE_MAX;
    if (order->y_attr == attr) return order->x_attr;
    if (order->x_attr == attr) return order->y_attr;
    return SIZE_MAX;
  }
};

/// Where the numeric candidate seeds of a unit that samples one numeric
/// attribute come from (`AppendSeeds`), in activation order; empty for
/// any other unit.
struct SeedPlan {
  size_t attr = SIZE_MAX;      // the unit's attribute; SIZE_MAX = no plan
  std::vector<size_t> fd_dcs;  // active DCs whose FD view determines attr
  /// One empty seeder per active ungrouped order pair over `attr` with a
  /// numeric partner; each sampling context fills a copy of its own.
  std::vector<NeighborSeeds> seeds;
};

/// Maps every DC to the model unit at which it activates (the unit whose
/// attributes complete it) and to its shape, and every unit to its active
/// DC set Phi_{A_j}, its seed plan and, for a categorical unit, its
/// candidate table. Computed once per run; the per-shard sampling loop
/// and the merge pass must agree on this mapping, and read every DC shape
/// from it.
struct ActivationMap {
  std::vector<std::vector<size_t>> unit_active;  // unit -> active DC indices
  std::vector<size_t> dc_unit;                   // DC -> unit (or SIZE_MAX)
  std::vector<DcShape> dc_shape;                 // DC -> Decompose() views
  std::vector<SeedPlan> unit_seeds;              // unit -> its seed plan
  /// unit -> its joint categorical domain decoded in index order, flat
  /// (`DecodeJointIndex` of index k at [k * width, (k + 1) * width));
  /// empty for a numeric unit. Every categorical `CandidateSet` points
  /// here instead of decoding its candidates per row.
  std::vector<std::vector<Value>> unit_joint;
  /// unit -> `LogProb` of each histogram probability, the log prior
  /// `ScoreCandidates` adds to every candidate's score; empty for a
  /// discriminative unit.
  std::vector<std::vector<double>> unit_log_prior;
};

ActivationMap BuildActivationMap(
    const ProbabilisticDataModel& model,
    const std::vector<WeightedConstraint>& constraints) {
  ActivationMap map;
  const std::vector<std::vector<size_t>> active_by_pos =
      ActivationPositions(model.sequence(), constraints);
  map.unit_active.resize(model.units().size());
  map.dc_unit.assign(constraints.size(), SIZE_MAX);
  for (const WeightedConstraint& wc : constraints) {
    const PredicateDecomposition d = wc.dc.Decompose();
    map.dc_shape.push_back(DcShape{d.Fd(), d.GroupedOrder()});
  }
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
  const Schema& schema = model.schema();
  map.unit_seeds.resize(model.units().size());
  map.unit_joint.resize(model.units().size());
  map.unit_log_prior.resize(model.units().size());
  std::vector<Value> joint;
  for (size_t u = 0; u < model.units().size(); ++u) {
    const ModelUnit& unit = model.units()[u];
    if (unit.attrs.size() == 1 &&
        schema.attribute(unit.attrs[0]).is_numeric()) {
      SeedPlan& plan = map.unit_seeds[u];
      plan.attr = unit.attrs[0];
      for (size_t dc_index : map.unit_active[u]) {
        const DcShape& shape = map.dc_shape[dc_index];
        // Either side of the order pair may be the attribute being
        // sampled; seed against the other (already filled) side.
        const size_t partner = shape.OrderPartner(plan.attr);
        if (partner != SIZE_MAX && schema.attribute(partner).is_numeric()) {
          plan.seeds.emplace_back(partner, plan.attr);
        }
        if (shape.FdDetermines(plan.attr)) plan.fd_dcs.push_back(dc_index);
      }
    }
    size_t domain = 0;
    if (unit.kind == ModelUnit::Kind::kHistogram) {
      if (!unit.quantizer.has_value()) domain = unit.distribution.size();
      for (double p : unit.distribution) {
        map.unit_log_prior[u].push_back(LogProb(p));
      }
    } else if (unit.model->target_is_categorical()) {
      domain = unit.model->joint_domain_size();
    }
    std::vector<Value>& table = map.unit_joint[u];
    table.reserve(domain * unit.attrs.size());
    for (size_t idx = 0; idx < domain; ++idx) {
      unit.DecodeJointIndex(idx, &joint);
      table.insert(table.end(), joint.begin(), joint.end());
    }
  }
  return map;
}

/// True when the FD fast path may resolve this unit: single attribute and
/// every active DC is a hard FD whose right-hand side is that attribute.
bool FdFastPathApplies(const ModelUnit& unit, const std::vector<size_t>& active,
                       const std::vector<WeightedConstraint>& constraints,
                       const ActivationMap& activation) {
  if (unit.attrs.size() != 1 || active.empty()) return false;
  return std::all_of(active.begin(), active.end(), [&](size_t l) {
    return constraints[l].hard &&
           activation.dc_shape[l].FdDetermines(unit.attrs[0]);
  });
}

/// Appends `row`'s numeric candidate seeds under `plan` to `out`: the
/// value each plan FD forces through `indices` (the group's established
/// value, the only feasible one), then each seeder's `Seed` at the row's
/// partner value (the nearest rows' values, usually feasible for a
/// co-monotone pair). `seeds` is a filled copy of `plan.seeds`.
void AppendSeeds(const SeedPlan& plan, const Row& row, const IndexSet& indices,
                 const std::vector<NeighborSeeds>& seeds,
                 std::vector<double>* out) {
  for (size_t dc_index : plan.fd_dcs) {
    if (indices[dc_index] == nullptr) continue;
    std::optional<Value> forced = indices[dc_index]->FdForcedValue(row);
    if (forced.has_value() && forced->is_numeric()) {
      out->push_back(forced->numeric());
    }
  }
  for (const NeighborSeeds& pair_seeds : seeds) {
    pair_seeds.Seed(row[pair_seeds.key_attr()].numeric(), out);
  }
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
///
/// Memory: the row loop draws every (row, unit) through one
/// `SampleScratch` — the row is materialized once per (row, unit) and
/// kept in step with the table as the winner is written — and each slot
/// of an MCMC batch (one `ParallelFor` range) owns a scratch of its own.
/// Categorical candidates are read from the run's joint tables. In steady
/// state the loop allocates only what the indices' `AddRow` needs.
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
  SampleScratch scratch;
  Row& row = scratch.row;

  for (size_t unit_index = 0; unit_index < model.units().size(); ++unit_index) {
    if (!KeepGoing(hooks)) return CancelledStatus();
    const ModelUnit& unit = model.units()[unit_index];
    const std::vector<Value>& joint = activation.unit_joint[unit_index];
    const std::vector<double>& log_prior =
        activation.unit_log_prior[unit_index];
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
                           FdFastPathApplies(unit, active, constraints,
                                             activation);

    // Previously synthesized values of a DC-constrained numeric attribute
    // are recycled as candidates (see GenerateCandidates), beside the
    // plan's seeds from this shard's rows.
    const SeedPlan& plan = activation.unit_seeds[unit_index];
    const bool track_prior_values = use_dc_factor && plan.attr != SIZE_MAX;
    std::vector<double> prior_values;
    std::vector<NeighborSeeds> seeds = plan.seeds;

    for (size_t i = 0; i < n; ++i) {
      out.CopyRowInto(i, &row);
      // Hard-FD fast path (section 7.3.6): copy the forced value from the
      // previously synthesized rows of the same group, if one exists.
      if (fast_path) {
        std::optional<Value> forced;
        for (size_t dc_index : active) {
          forced = indices[dc_index]->FdForcedValue(row);
          if (forced.has_value()) break;
        }
        if (forced.has_value()) {
          ApplyCandidate(unit, &*forced, &out, i, &row);
          ++telemetry->fd_fast_path_hits;
          for (size_t dc_index : active) indices[dc_index]->AddRow(row);
          continue;
        }
      }

      std::vector<double>& extra_values = scratch.extra_values;
      extra_values.clear();
      if (track_prior_values) {
        AppendSeeds(plan, row, indices, seeds, &extra_values);
        for (int c = 0; c < 4 && !prior_values.empty(); ++c) {
          extra_values.push_back(prior_values[static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(prior_values.size()) - 1))]);
        }
      }
      CandidateSet& candidates = scratch.candidates;
      GenerateCandidates(unit, schema, row, options, extra_values, joint,
                         log_prior, rng, &scratch.inference, &candidates);
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
          ApplyCandidate(unit, candidates.at(pick), &out, i, &row);
          const double penalty =
              ViolationPenalty(row, nullptr, active, constraints, {&indices});
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
        ScoreCandidates(unit, /*replaced=*/nullptr, active, constraints,
                        {&indices}, &scratch);
        LogScoresToWeights(scratch.log_scores, &scratch.weights);
        chosen = rng->Discrete(scratch.weights);
      }

      ApplyCandidate(unit, candidates.at(chosen), &out, i, &row);
      if (use_dc_factor) {
        for (size_t dc_index : active) indices[dc_index]->AddRow(row);
      }
      if (track_prior_values) {
        const double y = row[plan.attr].numeric();
        prior_values.push_back(y);
        for (NeighborSeeds& pair_seeds : seeds) {
          pair_seeds.Insert(row[pair_seeds.key_attr()].numeric(), y);
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
      // Batch slot k re-samples through its own scratch (ParallelFor
      // chunks are single indices), reused batch after batch.
      struct Resample {
        size_t row = 0;
        bool accepted = false;
        size_t pick = 0;  // winner in scratch.candidates
        SampleScratch scratch;
      };
      std::vector<Resample> resamples(
          std::min(kMcmcBatchRows, mcmc_resamples));
      Row old_row;
      size_t done = 0;
      while (done < mcmc_resamples) {
        const size_t batch = std::min(kMcmcBatchRows, mcmc_resamples - done);
        // Row picks come from the sequential run RNG, before the batch
        // executes, so they are schedule-independent.
        for (size_t k = 0; k < batch; ++k) {
          resamples[k].row = static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(n) - 1));
          resamples[k].accepted = false;
        }
        auto resample_range = [&](size_t lo, size_t hi) {
          for (size_t k = lo; k < hi; ++k) {
            Rng task_rng(streams.SubSeed(done + k));
            SampleScratch& slot = resamples[k].scratch;
            out.CopyRowInto(resamples[k].row, &slot.row);
            slot.extra_values.clear();
            if (track_prior_values) {
              AppendSeeds(plan, slot.row, indices, seeds, &slot.extra_values);
            }
            GenerateCandidates(unit, schema, slot.row, options,
                               slot.extra_values, joint, log_prior, &task_rng,
                               &slot.inference, &slot.candidates);
            if (slot.candidates.empty()) continue;
            ScoreCandidates(unit, &slot.row, scored, constraints,
                            {&table_indices}, &slot);
            LogScoresToWeights(slot.log_scores, &slot.weights);
            resamples[k].pick = task_rng.Discrete(slot.weights);
            resamples[k].accepted = true;
          }
          return Status::OK();
        };
        KAMINO_RETURN_IF_ERROR(
            runtime::ParallelFor(0, batch, 1, resample_range));
        for (size_t k = 0; k < batch; ++k) {
          const Resample& r = resamples[k];
          if (!r.accepted) continue;
          out.CopyRowInto(r.row, &old_row);
          row = old_row;
          ApplyCandidate(unit, r.scratch.candidates.at(r.pick), &out, r.row,
                         &row);
          ReplaceIndexedRow(old_row, row, &table_indices);
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
    const std::optional<GroupedOrderSpec>& spec =
        activation.dc_shape[l].order;
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
    const ActivationMap& activation, std::vector<DcOwner>* owner) {
  std::map<size_t, PrefixFdFamily> by_rhs;
  for (size_t l = 0; l < constraints.size(); ++l) {
    if ((*owner)[l] != DcOwner::kRepair || !constraints[l].hard) continue;
    const std::optional<FdSpec>& fd = activation.dc_shape[l].fd;
    if (!fd.has_value()) continue;
    (*owner)[l] = DcOwner::kCanonicalize;
    PrefixFdFamily& family = by_rhs[fd->rhs];
    family.rhs = fd->rhs;
    family.lhs_sets.push_back(fd->lhs);
  }
  std::vector<PrefixFdFamily> families;
  families.reserve(by_rhs.size());
  for (auto& [rhs, family] : by_rhs) {
    (void)rhs;
    families.push_back(std::move(family));
  }
  return families;
}

/// Retires one final slice of the instance into `table`, when the run
/// keeps one, and delivers it to `hooks->on_chunk`. The chunk then owns
/// the slice, so the sink may keep it alive past the call.
Status EmitFrozenSlice(Table live, size_t shard, size_t offset, bool last,
                       bool compress, const SynthesisHooks* hooks,
                       Table* table) {
  if (table != nullptr) table->AppendRowsFrom(live, 0, live.num_rows());
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
    chunk.encoded = EncodeChunkColumns(live);
    chunk.encoded_rows = live.num_rows();
    chunk.rows = Table(live.schema());  // schema-only carrier
    span.AddArg("encoded_bytes", static_cast<int64_t>(chunk.encoded.size()));
  } else {
    chunk.rows = std::move(live);
  }
  return hooks->on_chunk(chunk);
}

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
  // Delivery, fixed for the run. An out-of-core run keeps two shards in
  // flight (the one being frozen plus the one sampling behind it) and
  // dispatches the next only after a freeze retires its slice; that bounds
  // a run that keeps no table to ~2 shard widths of resident rows. An
  // in-memory run dispatches every shard up front for maximum overlap.
  // Frozen slices are appended to `collected` only when the run keeps a
  // table; otherwise the rows exist only as delivered chunks.
  const size_t dispatch_window =
      run.out_of_core ? std::min<size_t>(2, num_shards) : num_shards;
  Table collected(schema);
  Table* table = run.collect_table ? &collected : nullptr;

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
    for (; dispatched < dispatch_window; ++dispatched) {
      dispatch_shard(dispatched);
    }
  }

  // The freeze plan, fixed for the run: one owner per DC, the exact
  // passes' inputs, and merged[l], which indexes exactly the frozen prefix
  // of every DC with cross-shard pairs, growing at each freeze.
  std::vector<DcOwner> owner = RepairOwners(constraints, activation, options);
  const std::vector<PrefixFdFamily> families =
      BuildFdFamilies(constraints, activation, &owner);
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
  // The units the repair re-samples (the activation unit of a
  // repair-owned DC), with the DCs its candidates are scored on — every
  // DC active at such a unit — and each one's seeders over the frozen
  // prefix, empty until the first fold.
  std::vector<size_t> repair_scored;
  std::vector<std::vector<NeighborSeeds>> repair_seeds(model.units().size());
  for (size_t u = 0; u < model.units().size(); ++u) {
    const std::vector<size_t>& active = activation.unit_active[u];
    if (std::any_of(active.begin(), active.end(), [&](size_t l) {
          return owner[l] == DcOwner::kRepair;
        })) {
      repair_scored.insert(repair_scored.end(), active.begin(), active.end());
      repair_seeds[u] = activation.unit_seeds[u].seeds;
    }
  }
  // Running count of violating pairs wholly inside the frozen prefix,
  // per alignment DC — the frozen-side term of the align-pass gate.
  std::vector<int64_t> frozen_violations(constraints.size(), 0);
  const runtime::RngStream merge_stream(root.SubSeed(num_shards));
  constexpr size_t kMergeNoGainStreak = 8;

  // Resident-row high-water mark, computed analytically (never by reading
  // a table a pool worker may be filling): the slice being frozen + the
  // collected frozen rows + every dispatched-but-unfrozen shard at its
  // full width.
  int64_t peak_resident = 0;
  auto note_resident = [&](size_t s, size_t live_rows) {
    int64_t resident = static_cast<int64_t>(live_rows) +
                       static_cast<int64_t>(collected.num_rows());
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
    // reading prefix rows — which is what lets a run that keeps no table
    // drop them from memory without changing a single sampled bit.
    Table live = std::move(shards[s].table);
    shards[s].table = Table(schema);
    note_resident(s, live.num_rows());
    telemetry->ar_proposals += shards[s].telemetry.ar_proposals;
    telemetry->fd_fast_path_hits += shards[s].telemetry.fd_fast_path_hits;
    telemetry->mcmc_resamples += shards[s].telemetry.mcmc_resamples;
    telemetry->mcmc_batches += shards[s].telemetry.mcmc_batches;
    // Wall time per freeze phase, attached to the span as integer
    // microsecond args (args, not child spans, so the span's self time
    // stays the whole freeze).
    double lap_start = span.elapsed_seconds();
    auto lap_us = [&] {
      const double now = span.elapsed_seconds();
      const double us = (now - lap_start) * 1e6;
      lap_start = now;
      return static_cast<int64_t>(us);
    };

    // Conflict detection against the frozen prefix, recounted from the
    // final shard rows: each row's delta against the merged indices is
    // its frozen x live violating pairs. Rows in such a pair of a
    // repair-owned DC are queued for repair; the exact passes below fix
    // the other DCs' conflicts wholesale.
    std::map<size_t, std::vector<size_t>> offenders;
    int64_t freeze_cross = 0;
    Row live_row;
    for (size_t r = 0; r < live.num_rows(); ++r) {
      live.CopyRowInto(r, &live_row);
      for (size_t l = 0; l < constraints.size(); ++l) {
        if (merged[l] == nullptr) continue;
        const int64_t cross = merged[l]->CountNew(live_row);
        if (cross == 0) continue;
        freeze_cross += cross;
        if (owner[l] == DcOwner::kRepair) offenders[begin + r].push_back(l);
      }
    }
    telemetry->merge_cross_violations += freeze_cross;
    telemetry->merge_conflict_rows += static_cast<int64_t>(offenders.size());
    const int64_t detect_us = lap_us();

    // Bounded greedy repair, restricted to shard s's rows. Candidates are
    // scored through the indices only: the merged indices (exactly the
    // frozen prefix) plus live-slice indices of every DC active at a
    // repaired unit, which each repair write keeps in step — equal to the
    // full-table penalty over [0, end) without touching a frozen row.
    if (!offenders.empty()) {
      IndexSet live_indices = IndexTable(live, repair_scored, constraints);
      SampleScratch repair;
      Row& current = repair.row;
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
          live.CopyRowInto(local, &current);

          // Seeds from the frozen prefix, the rows whose pairs with this
          // one the repair is fixing.
          repair.extra_values.clear();
          AppendSeeds(activation.unit_seeds[u], current, merged,
                      repair_seeds[u], &repair.extra_values);
          const CandidateSet& candidates = repair.candidates;
          GenerateCandidates(unit, schema, current, options,
                             repair.extra_values, activation.unit_joint[u],
                             activation.unit_log_prior[u], &task_rng,
                             &repair.inference, &repair.candidates);
          if (candidates.empty()) continue;
          const double penalty_before = ViolationPenalty(
              current, &current, active, constraints, {&merged, &live_indices});
          ScoreCandidates(unit, &current, active, constraints,
                          {&merged, &live_indices}, &repair);
          size_t pick = 0;
          double best = -std::numeric_limits<double>::infinity();
          double best_penalty = penalty_before;
          for (size_t c = 0; c < candidates.size(); ++c) {
            if (repair.log_scores[c] > best) {
              best = repair.log_scores[c];
              best_penalty = repair.penalties[c];
              pick = c;
            }
          }
          Row& now = repair.candidate_row;
          now = current;
          ApplyCandidate(unit, candidates.at(pick), &live, local, &now);
          ReplaceIndexedRow(current, now, &live_indices);
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

    const int64_t repair_us = lap_us();

    // Exact hard-DC passes against the persistent frozen lookups; frozen
    // rows are neither written nor read.
    std::vector<bool> attr_modified(schema.size(), false);
    telemetry->merge_fd_rewrites +=
        fd_lookups.Canonicalize(&live, &attr_modified);
    int64_t canonicalize_us = lap_us();

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
          live.CopyRowInto(r, &live_row);
          total += merged[task.dc]->CountNew(live_row);
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
    const int64_t align_us = lap_us();
    if (realigned_fd_attr) {
      telemetry->merge_fd_rewrites +=
          fd_lookups.Canonicalize(&live, &attr_modified);
      canonicalize_us += lap_us();
    }

    // Freeze: fold the shard's *final* rows into the frozen-prefix state
    // the later freezes read. The last freeze has no later one, so it
    // skips the fold.
    const bool last = s + 1 == num_shards;
    if (!last) {
      // Index the rows into the running merged indices, each row copied
      // once; every index still sees the rows in row order. For alignment
      // DCs, fold the new intra-prefix pairs into the running count first
      // — CountNew before AddRow sees each pair exactly once.
      for (size_t r = 0; r < live.num_rows(); ++r) {
        live.CopyRowInto(r, &live_row);
        for (size_t l = 0; l < constraints.size(); ++l) {
          if (merged[l] == nullptr) continue;
          if (owner[l] == DcOwner::kAlign) {
            frozen_violations[l] += merged[l]->CountNew(live_row);
          }
          merged[l]->AddRow(live_row);
        }
      }
      // Absorb the now-final slice into the persistent frozen lookups —
      // the last read of these rows for reconciliation purposes, ever.
      fd_lookups.Absorb(live, begin);
      for (size_t k = 0; k < alignments.size(); ++k) {
        align_lookups[k].Absorb(live);
      }
      for (std::vector<NeighborSeeds>& seeds : repair_seeds) {
        for (NeighborSeeds& pair_seeds : seeds) pair_seeds.Absorb(live);
      }
    }
    ++telemetry->merge_prefix_freezes;
    telemetry->merge_frozen_rows += static_cast<int64_t>(sizes[s]);
    span.AddArg("cross_violations", freeze_cross);
    span.AddArg("conflict_rows", static_cast<int64_t>(offenders.size()));
    const int64_t fold_us = lap_us();

    // Emit immediately: these rows are frozen and never rewritten.
    Status emitted = EmitFrozenSlice(std::move(live), s, begin, last,
                                     run.compress_chunks, hooks, table);
    span.AddArg("detect_us", detect_us);
    span.AddArg("repair_us", repair_us);
    span.AddArg("canonicalize_us", canonicalize_us);
    span.AddArg("align_us", align_us);
    span.AddArg("fold_us", fold_us);
    span.AddArg("emit_us", lap_us());
    return emitted;
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
    // Windowed dispatch: the freeze just retired a slice, so there is
    // room for the next shard's table (a full window dispatched them all).
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
  return collected;
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
  reg.counter("kamino.sampler.merge_fd_rewrites")
      ->Increment(t.merge_fd_rewrites);
  reg.counter("kamino.sampler.merge_order_alignments")
      ->Increment(t.merge_order_alignments);
  reg.counter("kamino.sampler.merge_prefix_freezes")
      ->Increment(t.merge_prefix_freezes);
  reg.counter("kamino.sampler.merge_frozen_rows")
      ->Increment(t.merge_frozen_rows);
  reg.counter("kamino.sampler.merge_penalty_live_row_scans")
      ->Increment(t.merge_penalty_live_row_scans);
  reg.counter("kamino.sampler.merge_penalty_frozen_row_scans")
      ->Increment(t.merge_penalty_frozen_row_scans);
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
