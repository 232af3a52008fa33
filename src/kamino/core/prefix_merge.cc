#include "kamino/core/prefix_merge.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <utility>

namespace kamino {
namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

bool IsNan(const Value& v) { return !(v == v); }

size_t Find(std::vector<size_t>& parent, size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];  // path halving
    i = parent[i];
  }
  return i;
}

/// The rows of each group in ascending order, as one counting sort:
/// group g's rows are order[start[g], start[g + 1]).
void RowsByGroup(const std::vector<uint32_t>& gid, size_t num_groups,
                 std::vector<size_t>* start, std::vector<size_t>* order) {
  start->assign(num_groups + 1, 0);
  for (uint32_t g : gid) ++(*start)[g + 1];
  for (size_t g = 0; g < num_groups; ++g) (*start)[g + 1] += (*start)[g];
  order->resize(gid.size());
  std::vector<size_t> fill(start->begin(), start->end() - 1);
  for (size_t i = 0; i < gid.size(); ++i) (*order)[fill[gid[i]]++] = i;
}

}  // namespace

FrozenFdLookups::FrozenFdLookups(std::vector<PrefixFdFamily> families) {
  families_.reserve(families.size());
  for (PrefixFdFamily& in : families) {
    Family family;
    family.rhs = in.rhs;
    family.lhs_sets = std::move(in.lhs_sets);
    family.keys.resize(family.lhs_sets.size());
    std::vector<size_t>& lhs_union = family.lhs_union;
    for (const std::vector<size_t>& lhs : family.lhs_sets) {
      lhs_union.insert(lhs_union.end(), lhs.begin(), lhs.end());
    }
    std::sort(lhs_union.begin(), lhs_union.end());
    lhs_union.erase(std::unique(lhs_union.begin(), lhs_union.end()),
                    lhs_union.end());
    family.lhs_pos.resize(family.lhs_sets.size());
    for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
      for (size_t a : family.lhs_sets[d]) {
        family.lhs_pos[d].push_back(static_cast<size_t>(
            std::lower_bound(lhs_union.begin(), lhs_union.end(), a) -
            lhs_union.begin()));
      }
    }
    family.rhs_in_lhs =
        std::binary_search(lhs_union.begin(), lhs_union.end(), family.rhs);
    families_.push_back(std::move(family));
  }
}

void FrozenFdLookups::Absorb(const Table& slice, size_t global_begin) {
  const size_t n = slice.num_rows();
  if (n == 0) return;
  // slot_of[r]: row r's slot in the family's rep_values, once it has one.
  std::vector<size_t> slot_of(n);
  for (Family& family : families_) {
    std::fill(slot_of.begin(), slot_of.end(), kNone);
    for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
      const std::vector<size_t>& lhs = family.lhs_sets[d];
      size_t num_groups = 0;
      const std::vector<uint32_t> gid = GroupIds(slice, lhs, &num_groups);
      // Only a group's first row can insert its key (first row wins).
      // GroupIds numbers groups in first-occurrence order, so row r is
      // the first of its group exactly when it opens the next new id.
      uint32_t next_group = 0;
      for (size_t r = 0; r < n; ++r) {
        if (gid[r] != next_group) continue;
        ++next_group;
        FdKey key = RowKey(slice, r, lhs);
        if (HasNan(key)) continue;
        const size_t slot = slot_of[r] == kNone ? family.num_reps : slot_of[r];
        const bool inserted =
            family.keys[d]
                .try_emplace(std::move(key),
                             FrozenEntry{slice.at(r, family.rhs),
                                         global_begin + r, slot})
                .second;
        if (!inserted || slot_of[r] != kNone) continue;
        slot_of[r] = family.num_reps++;
        for (size_t a : family.lhs_union) {
          family.rep_values.push_back(slice.at(r, a));
        }
      }
    }
  }
}

int64_t FrozenFdLookups::Canonicalize(Table* live) const {
  const size_t n = live->num_rows();
  if (n == 0 || families_.empty()) return 0;
  const size_t num_families = families_.size();

  // Round-skip bookkeeping. Passes are numbered from 1: written[a] is the
  // last pass that wrote attribute a, last_pass[f] family f's last pass
  // (0 = none yet), and wrote_own_lhs[f] whether that pass wrote one of
  // f's LHS attributes.
  std::vector<uint64_t> written(live->num_columns(), 0);
  std::vector<uint64_t> last_pass(num_families, 0);
  std::vector<char> wrote_own_lhs(num_families, 0);
  uint64_t pass = 0;
  auto needs_pass = [&](size_t f) {
    if (last_pass[f] == 0 || wrote_own_lhs[f]) return true;
    const Family& family = families_[f];
    if (written[family.rhs] > last_pass[f]) return true;
    for (size_t a : family.lhs_union) {
      if (written[a] > last_pass[f]) return true;
    }
    return false;
  };

  // Per-pass scratch: union-find parents, components as head/next lists,
  // and per FD each live row's group and each group's frozen entry.
  std::vector<size_t> parent(n);
  std::vector<size_t> head(n);
  std::vector<size_t> next(n);
  std::vector<size_t> first;
  std::vector<std::vector<uint32_t>> gids;
  std::vector<std::vector<const FrozenEntry*>> entries;

  int64_t total_rewrites = 0;
  // Rewrites can land on another family's LHS or RHS attributes; rounds
  // repeat until a fixpoint, bounded by the schema width (the length of
  // the longest FD dependency chain).
  for (size_t round = 0; round < live->num_columns() + 1; ++round) {
    int64_t rewrites = 0;
    for (size_t f = 0; f < num_families; ++f) {
      if (!needs_pass(f)) continue;
      const Family& family = families_[f];
      const size_t num_fds = family.lhs_sets.size();
      last_pass[f] = ++pass;
      bool wrote_lhs = false;
      auto write = [&](size_t i, size_t a, const Value& v) {
        live->set(i, a, v);
        written[a] = pass;
        if (a != family.rhs || family.rhs_in_lhs) wrote_lhs = true;
        ++rewrites;
      };

      // Union live rows that any family FD forces to agree: each row joins
      // its group's first row, where the group's frozen entry is looked up
      // once.
      std::iota(parent.begin(), parent.end(), size_t{0});
      gids.resize(num_fds);
      entries.resize(num_fds);
      for (size_t d = 0; d < num_fds; ++d) {
        const std::vector<size_t>& lhs = family.lhs_sets[d];
        size_t num_groups = 0;
        gids[d] = GroupIds(*live, lhs, &num_groups);
        first.assign(num_groups, kNone);
        entries[d].assign(num_groups, nullptr);
        for (size_t i = 0; i < n; ++i) {
          const uint32_t g = gids[d][i];
          if (first[g] == kNone) {
            first[g] = i;
            const auto it = family.keys[d].find(RowKey(*live, i, lhs));
            if (it != family.keys[d].end()) entries[d][g] = &it->second;
          } else {
            parent[Find(parent, i)] = Find(parent, first[g]);
          }
        }
      }
      // List each component by its root, members ascending.
      std::fill(head.begin(), head.end(), kNone);
      for (size_t i = n; i-- > 0;) {
        const size_t root = Find(parent, i);
        next[i] = head[root];
        head[root] = i;
      }

      // Components own disjoint rows, so the order they are walked in
      // changes nothing.
      for (size_t root = 0; root < n; ++root) {
        if (head[root] == kNone) continue;
        // Adopt the frozen match with the smallest representative row;
        // with no frozen match, the smallest member's value.
        const FrozenEntry* best = nullptr;
        for (size_t i = head[root]; i != kNone; i = next[i]) {
          for (size_t d = 0; d < num_fds; ++d) {
            const FrozenEntry* e = entries[d][gids[d][i]];
            if (e != nullptr &&
                (best == nullptr || e->rep_row < best->rep_row)) {
              best = e;
            }
          }
        }
        const Value canonical = best != nullptr
                                    ? best->canonical
                                    : live->at(head[root], family.rhs);

        for (size_t i = head[root]; i != kNone; i = next[i]) {
          // Set once a write changes one of row i's key cells: its
          // grouped entries are then stale and it is looked up afresh.
          bool rekeyed = false;
          if (!(live->at(i, family.rhs) == canonical)) {
            write(i, family.rhs, canonical);
            rekeyed = family.rhs_in_lhs;
          }
          if (best == nullptr) continue;
          const Value* rep = family.rep_values.data() +
                             best->rep * family.lhs_union.size();
          for (size_t d = 0; d < num_fds; ++d) {
            const std::vector<size_t>& lhs = family.lhs_sets[d];
            const FrozenEntry* e = entries[d][gids[d][i]];
            if (rekeyed) {
              const auto it = family.keys[d].find(RowKey(*live, i, lhs));
              e = it == family.keys[d].end() ? nullptr : &it->second;
            }
            if (e == nullptr || e->canonical == canonical) continue;
            // The member bridges into a frozen group with a different
            // canonical value; the frozen side cannot move, so re-point
            // the member's key at the adopted representative's.
            for (size_t k = 0; k < lhs.size(); ++k) {
              const Value& v = rep[family.lhs_pos[d][k]];
              if (!(live->at(i, lhs[k]) == v)) {
                write(i, lhs[k], v);
                rekeyed = true;
              }
            }
          }
        }
      }
      wrote_own_lhs[f] = wrote_lhs;
    }
    total_rewrites += rewrites;
    if (rewrites == 0) break;
  }
  return total_rewrites;
}

FrozenAlignLookups::FrozenAlignLookups(PrefixAlignSpec spec)
    : spec_(std::move(spec)) {}

void FrozenAlignLookups::Absorb(const Table& slice) {
  const size_t n = slice.num_rows();
  if (n == 0) return;
  size_t num_groups = 0;
  const std::vector<uint32_t> gid =
      GroupIds(slice, spec_.group_attrs, &num_groups);
  std::vector<size_t> start;
  std::vector<size_t> order;
  RowsByGroup(gid, num_groups, &start, &order);

  struct Pair {
    Value x;
    Value dep;
  };
  std::vector<Pair> pairs;
  Envelope merged;
  for (size_t g = 0; g < num_groups; ++g) {
    FdKey key = RowKey(slice, order[start[g]], spec_.group_attrs);
    if (HasNan(key)) continue;
    pairs.clear();
    for (size_t k = start[g]; k < start[g + 1]; ++k) {
      const size_t r = order[k];
      const Value x = slice.at(r, spec_.ctx_attr);
      const Value dep = slice.at(r, spec_.dep_attr);
      if (IsNan(x) || IsNan(dep)) continue;
      pairs.push_back(Pair{x, dep});
    }
    if (pairs.empty()) continue;
    // Stable: within a context run the rows stay in row order, so the
    // run folds exactly as a row-by-row insert would.
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const Pair& a, const Pair& b) { return a.x < b.x; });

    // One linear merge of the envelope's contexts with the slice's runs.
    // On a shared context the envelope's rows came first: the later row
    // wins the running max, the earlier row keeps the running min. These
    // folds always return one operand and are associative, so the result
    // does not depend on how the frozen rows were sliced.
    Envelope& env = groups_[std::move(key)];
    merged.ctx.clear();
    merged.mx.clear();
    merged.mn.clear();
    size_t i = 0;
    size_t k = 0;
    while (i < env.ctx.size() || k < pairs.size()) {
      if (k == pairs.size() ||
          (i < env.ctx.size() && env.ctx[i] < pairs[k].x)) {
        merged.ctx.push_back(env.ctx[i]);
        merged.mx.push_back(env.mx[i]);
        merged.mn.push_back(env.mn[i]);
        ++i;
        continue;
      }
      const Value& x = pairs[k].x;
      Value mx = pairs[k].dep;
      Value mn = pairs[k].dep;
      size_t e = k + 1;
      for (; e < pairs.size() && !(x < pairs[e].x); ++e) {
        if (!OrientedLt(pairs[e].dep, mx)) mx = pairs[e].dep;
        if (OrientedLt(pairs[e].dep, mn)) mn = pairs[e].dep;
      }
      if (i < env.ctx.size() && !(x < env.ctx[i])) {
        merged.ctx.push_back(env.ctx[i]);
        merged.mx.push_back(OrientedLt(mx, env.mx[i]) ? env.mx[i] : mx);
        merged.mn.push_back(OrientedLt(mn, env.mn[i]) ? mn : env.mn[i]);
        ++i;
      } else {
        merged.ctx.push_back(x);
        merged.mx.push_back(mx);
        merged.mn.push_back(mn);
      }
      k = e;
    }
    std::swap(env.ctx, merged.ctx);
    std::swap(env.mx, merged.mx);
    std::swap(env.mn, merged.mn);

    // Rebuild this group's running envelopes.
    const size_t m = env.ctx.size();
    env.pmax.resize(m);
    env.smin.resize(m);
    for (size_t j = 0; j < m; ++j) {
      env.pmax[j] = (j > 0 && OrientedLt(env.mx[j], env.pmax[j - 1]))
                        ? env.pmax[j - 1]
                        : env.mx[j];
    }
    for (size_t j = m; j-- > 0;) {
      env.smin[j] = (j + 1 < m && OrientedLt(env.smin[j + 1], env.mn[j]))
                        ? env.smin[j + 1]
                        : env.mn[j];
    }
  }
}

int64_t FrozenAlignLookups::Align(Table* live) const {
  const size_t n = live->num_rows();
  if (n == 0) return 0;
  auto oriented_lt = [this](const Value& a, const Value& b) {
    return OrientedLt(a, b);
  };
  auto ctx_row_less = [&](size_t i, size_t j) {
    const Value a = live->at(i, spec_.ctx_attr);
    const Value b = live->at(j, spec_.ctx_attr);
    if (a < b) return true;
    if (b < a) return false;
    return i < j;
  };
  auto ctx_less = [](const Value& a, const Value& b) { return a < b; };

  size_t num_groups = 0;
  const std::vector<uint32_t> gid =
      GroupIds(*live, spec_.group_attrs, &num_groups);
  std::vector<size_t> start;
  std::vector<size_t> order;
  RowsByGroup(gid, num_groups, &start, &order);

  int64_t rewrites = 0;
  std::vector<size_t> fresh;
  std::vector<Value> targets;
  // Groups own disjoint rows, so the order they are walked in changes
  // nothing.
  for (size_t g = 0; g < num_groups; ++g) {
    fresh.clear();
    for (size_t k = start[g]; k < start[g + 1]; ++k) {
      const size_t r = order[k];
      if (IsNan(live->at(r, spec_.ctx_attr)) ||
          IsNan(live->at(r, spec_.dep_attr))) {
        continue;
      }
      fresh.push_back(r);
    }
    if (fresh.empty()) continue;
    const auto git =
        groups_.find(RowKey(*live, order[start[g]], spec_.group_attrs));
    const Envelope* env = git == groups_.end() ? nullptr : &git->second;
    const size_t runs = env == nullptr ? 0 : env->ctx.size();

    // Rank-align the live rows among themselves: walked in (context, row)
    // order, they receive their own dependent values in oriented sorted
    // order (the shard's value multiset, permuted)...
    std::sort(fresh.begin(), fresh.end(), ctx_row_less);
    targets.clear();
    for (size_t r : fresh) targets.push_back(live->at(r, spec_.dep_attr));
    std::sort(targets.begin(), targets.end(), oriented_lt);

    for (size_t k = 0; k < fresh.size(); ++k) {
      const size_t r = fresh[k];
      const Value x = live->at(r, spec_.ctx_attr);
      Value v = targets[k];
      // ...then clamp each into the frozen envelope at its context.
      if (env != nullptr) {
        const size_t idx = static_cast<size_t>(
            std::lower_bound(env->ctx.begin(), env->ctx.end(), x, ctx_less) -
            env->ctx.begin());
        const size_t jdx = static_cast<size_t>(
            std::upper_bound(env->ctx.begin(), env->ctx.end(), x, ctx_less) -
            env->ctx.begin());
        // Lower clamp before upper: the upper bound wins should the
        // envelope invert (non-monotone frozen prefix).
        if (idx > 0 && oriented_lt(v, env->pmax[idx - 1])) {
          v = env->pmax[idx - 1];
        }
        if (jdx < runs && oriented_lt(env->smin[jdx], v)) {
          v = env->smin[jdx];
        }
      }
      if (!(live->at(r, spec_.dep_attr) == v)) {
        live->set(r, spec_.dep_attr, v);
        ++rewrites;
      }
    }
  }
  return rewrites;
}

void NeighborSeeds::Insert(double key, double value) {
  if (std::isnan(key) || std::isnan(value)) return;
  const std::pair<double, double> pair(key, value);
  pairs_.insert(std::lower_bound(pairs_.begin(), pairs_.end(), pair), pair);
}

void NeighborSeeds::Absorb(const Table& slice) {
  // Inserting rows one by one puts each before its equal pairs, so among
  // equal pairs the later row comes first, and before every stored one:
  // collect the slice last row first, sort it stably, and merge it ahead
  // of the stored pairs (std::merge takes ties from its first range).
  std::vector<std::pair<double, double>> fresh;
  fresh.reserve(slice.num_rows());
  for (size_t r = slice.num_rows(); r-- > 0;) {
    const double key = slice.at(r, key_attr_).numeric();
    const double value = slice.at(r, value_attr_).numeric();
    if (!std::isnan(key) && !std::isnan(value)) fresh.emplace_back(key, value);
  }
  std::stable_sort(fresh.begin(), fresh.end());
  std::vector<std::pair<double, double>> merged;
  merged.reserve(pairs_.size() + fresh.size());
  std::merge(fresh.begin(), fresh.end(), pairs_.begin(), pairs_.end(),
             std::back_inserter(merged));
  pairs_ = std::move(merged);
}

void NeighborSeeds::Seed(double key, std::vector<double>* out) const {
  if (std::isnan(key)) return;
  const size_t p = static_cast<size_t>(
      std::lower_bound(
          pairs_.begin(), pairs_.end(),
          std::make_pair(key, -std::numeric_limits<double>::infinity())) -
      pairs_.begin());
  const size_t hi = std::min(pairs_.size(), p + 3);
  for (size_t j = p < 2 ? 0 : p - 2; j < hi; ++j) {
    out->push_back(pairs_[j].second);
  }
}

}  // namespace kamino
