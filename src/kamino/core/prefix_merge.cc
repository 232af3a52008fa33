#include "kamino/core/prefix_merge.h"

#include <algorithm>
#include <map>
#include <utility>

#include "kamino/dc/constraint.h"

namespace kamino {
namespace {

bool ValueLt(const Value& a, const Value& b) {
  return EvalCompare(a, CompareOp::kLt, b);
}

std::vector<Value> KeyOf(const Table& table, size_t row,
                         const std::vector<size_t>& attrs) {
  std::vector<Value> key;
  key.reserve(attrs.size());
  for (size_t a : attrs) key.push_back(table.at(row, a));
  return key;
}

size_t Find(std::vector<size_t>& parent, size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];  // path halving
    i = parent[i];
  }
  return i;
}

}  // namespace

bool PrefixKeyLess::operator()(const std::vector<Value>& a,
                               const std::vector<Value>& b) const {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (ValueLt(a[i], b[i])) return true;
    if (ValueLt(b[i], a[i])) return false;
  }
  return a.size() < b.size();
}

FrozenFdLookups::FrozenFdLookups(std::vector<PrefixFdFamily> families)
    : families_(std::move(families)) {
  keys_.resize(families_.size());
  lhs_union_.resize(families_.size());
  lhs_pos_.resize(families_.size());
  rep_values_.resize(families_.size());
  for (size_t f = 0; f < families_.size(); ++f) {
    keys_[f].resize(families_[f].lhs_sets.size());
    for (const std::vector<size_t>& lhs : families_[f].lhs_sets) {
      lhs_union_[f].insert(lhs_union_[f].end(), lhs.begin(), lhs.end());
    }
    std::sort(lhs_union_[f].begin(), lhs_union_[f].end());
    lhs_union_[f].erase(
        std::unique(lhs_union_[f].begin(), lhs_union_[f].end()),
        lhs_union_[f].end());
    lhs_pos_[f].resize(families_[f].lhs_sets.size());
    for (size_t d = 0; d < families_[f].lhs_sets.size(); ++d) {
      for (size_t a : families_[f].lhs_sets[d]) {
        lhs_pos_[f][d].push_back(static_cast<size_t>(
            std::lower_bound(lhs_union_[f].begin(), lhs_union_[f].end(), a) -
            lhs_union_[f].begin()));
      }
    }
  }
}

void FrozenFdLookups::Absorb(const Table& slice, size_t global_begin) {
  const size_t n = slice.num_rows();
  for (size_t f = 0; f < families_.size(); ++f) {
    const PrefixFdFamily& family = families_[f];
    for (size_t r = 0; r < n; ++r) {
      const size_t global_row = global_begin + r;
      bool first_insert = false;
      for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
        auto [it, inserted] = keys_[f][d].try_emplace(
            KeyOf(slice, r, family.lhs_sets[d]),
            FrozenEntry{slice.at(r, family.rhs), global_row});
        (void)it;
        first_insert |= inserted;
      }
      if (first_insert) {
        std::vector<Value> vals;
        vals.reserve(lhs_union_[f].size());
        for (size_t a : lhs_union_[f]) vals.push_back(slice.at(r, a));
        rep_values_[f].emplace(global_row, std::move(vals));
      }
    }
  }
}

int64_t FrozenFdLookups::Canonicalize(Table* live,
                                      std::vector<bool>* attr_modified) const {
  const size_t suffix = live->num_rows();
  if (suffix == 0 || families_.empty()) return 0;

  auto mark = [&](size_t attr) {
    if (attr_modified != nullptr) (*attr_modified)[attr] = true;
  };

  int64_t total_rewrites = 0;
  // Rewrites can land on another family's LHS or RHS attributes; rounds
  // repeat until a fixpoint, bounded by the schema width (the length of
  // the longest FD dependency chain).
  for (size_t round = 0; round < live->num_columns() + 1; ++round) {
    int64_t rewrites = 0;
    for (size_t f = 0; f < families_.size(); ++f) {
      const PrefixFdFamily& family = families_[f];
      // Union live rows that any family FD forces to agree.
      std::vector<size_t> parent(suffix);
      for (size_t i = 0; i < suffix; ++i) parent[i] = i;
      for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
        std::map<std::vector<Value>, size_t, PrefixKeyLess> first_member;
        for (size_t i = 0; i < suffix; ++i) {
          auto [it, inserted] = first_member.try_emplace(
              KeyOf(*live, i, family.lhs_sets[d]), i);
          if (!inserted) parent[Find(parent, i)] = Find(parent, it->second);
        }
      }
      std::map<size_t, std::vector<size_t>> components;
      for (size_t i = 0; i < suffix; ++i) {
        components[Find(parent, i)].push_back(i);
      }

      for (const auto& [root, members] : components) {
        (void)root;
        // Adopt the frozen match with the smallest representative row;
        // with no frozen match, the smallest member's value.
        size_t best_rep = static_cast<size_t>(-1);
        Value canonical = live->at(members[0], family.rhs);
        for (size_t i : members) {
          for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
            const auto it =
                keys_[f][d].find(KeyOf(*live, i, family.lhs_sets[d]));
            if (it != keys_[f][d].end() && it->second.rep_row < best_rep) {
              best_rep = it->second.rep_row;
              canonical = it->second.canonical;
            }
          }
        }
        const bool has_frozen = best_rep != static_cast<size_t>(-1);

        for (size_t i : members) {
          if (!(live->at(i, family.rhs) == canonical)) {
            live->set(i, family.rhs, canonical);
            mark(family.rhs);
            ++rewrites;
          }
          if (!has_frozen) continue;
          for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
            const auto it =
                keys_[f][d].find(KeyOf(*live, i, family.lhs_sets[d]));
            if (it == keys_[f][d].end() ||
                it->second.canonical == canonical) {
              continue;
            }
            // The member bridges into a frozen group with a different
            // canonical value; the frozen side cannot move, so re-point
            // the member's key at the adopted representative's.
            const std::vector<Value>& rep = rep_values_[f].at(best_rep);
            for (size_t k = 0; k < family.lhs_sets[d].size(); ++k) {
              const size_t a = family.lhs_sets[d][k];
              const Value& v = rep[lhs_pos_[f][d][k]];
              if (!(live->at(i, a) == v)) {
                live->set(i, a, v);
                mark(a);
                ++rewrites;
              }
            }
          }
        }
      }
    }
    total_rewrites += rewrites;
    if (rewrites == 0) break;
  }
  return total_rewrites;
}

FrozenAlignLookups::FrozenAlignLookups(PrefixAlignSpec spec)
    : spec_(std::move(spec)) {}

void FrozenAlignLookups::Absorb(const Table& slice) {
  auto oriented_lt = [this](const Value& a, const Value& b) {
    return spec_.co_monotone ? ValueLt(a, b) : ValueLt(b, a);
  };
  const size_t n = slice.num_rows();
  for (size_t r = 0; r < n; ++r) {
    Envelope& env = groups_[KeyOf(slice, r, spec_.group_attrs)];
    const Value x = slice.at(r, spec_.ctx_attr);
    const Value dep = slice.at(r, spec_.dep_attr);
    const auto it = std::lower_bound(
        env.ctx.begin(), env.ctx.end(), x,
        [](const Value& a, const Value& b) { return ValueLt(a, b); });
    const size_t i = static_cast<size_t>(it - env.ctx.begin());
    if (it != env.ctx.end() && !ValueLt(x, *it)) {
      // Existing context run: the later row wins the running max, the
      // earlier row keeps the running min.
      if (!oriented_lt(dep, env.mx[i])) env.mx[i] = dep;
      if (oriented_lt(dep, env.mn[i])) env.mn[i] = dep;
    } else {
      env.ctx.insert(it, x);
      env.mx.insert(env.mx.begin() + static_cast<ptrdiff_t>(i), dep);
      env.mn.insert(env.mn.begin() + static_cast<ptrdiff_t>(i), dep);
    }
  }
  // Rebuild the running envelopes. Folding per-context extrema is
  // grouping-invariant (the folds always return one operand), so the
  // result does not depend on how the frozen rows were sliced.
  for (auto& [key, env] : groups_) {
    (void)key;
    const size_t m = env.ctx.size();
    env.pmax.resize(m);
    env.smin.resize(m);
    for (size_t i = 0; i < m; ++i) {
      env.pmax[i] = (i > 0 && oriented_lt(env.mx[i], env.pmax[i - 1]))
                        ? env.pmax[i - 1]
                        : env.mx[i];
    }
    for (size_t i = m; i-- > 0;) {
      env.smin[i] = (i + 1 < m && oriented_lt(env.smin[i + 1], env.mn[i]))
                        ? env.smin[i + 1]
                        : env.mn[i];
    }
  }
}

int64_t FrozenAlignLookups::Align(Table* live) const {
  const size_t n = live->num_rows();
  if (n == 0) return 0;
  auto oriented_lt = [this](const Value& a, const Value& b) {
    return spec_.co_monotone ? ValueLt(a, b) : ValueLt(b, a);
  };
  auto ctx_row_less = [&](size_t i, size_t j) {
    const Value& a = live->at(i, spec_.ctx_attr);
    const Value& b = live->at(j, spec_.ctx_attr);
    if (ValueLt(a, b)) return true;
    if (ValueLt(b, a)) return false;
    return i < j;
  };

  std::map<std::vector<Value>, std::vector<size_t>, PrefixKeyLess> groups;
  for (size_t r = 0; r < n; ++r) {
    groups[KeyOf(*live, r, spec_.group_attrs)].push_back(r);
  }

  int64_t rewrites = 0;
  for (auto& [key, fresh] : groups) {
    const auto git = groups_.find(key);
    const Envelope* env = git == groups_.end() ? nullptr : &git->second;
    const size_t runs = env == nullptr ? 0 : env->ctx.size();

    // Rank-align the live rows among themselves: walked in (context, row)
    // order, they receive their own dependent values in oriented sorted
    // order (the shard's value multiset, permuted)...
    std::sort(fresh.begin(), fresh.end(), ctx_row_less);
    std::vector<Value> targets;
    targets.reserve(fresh.size());
    for (size_t r : fresh) targets.push_back(live->at(r, spec_.dep_attr));
    std::sort(targets.begin(), targets.end(), oriented_lt);

    for (size_t k = 0; k < fresh.size(); ++k) {
      const size_t r = fresh[k];
      const Value x = live->at(r, spec_.ctx_attr);
      Value v = targets[k];
      // ...then clamp each into the frozen envelope at its context.
      if (env != nullptr) {
        const size_t idx = static_cast<size_t>(
            std::lower_bound(
                env->ctx.begin(), env->ctx.end(), x,
                [](const Value& a, const Value& b) { return ValueLt(a, b); }) -
            env->ctx.begin());
        const size_t jdx = static_cast<size_t>(
            std::upper_bound(
                env->ctx.begin(), env->ctx.end(), x,
                [](const Value& a, const Value& b) { return ValueLt(a, b); }) -
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

}  // namespace kamino
