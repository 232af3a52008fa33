// Differential tests of the shard freeze's exact passes (core/prefix_merge.h)
// against a reference: the ordered-map implementation the hashed lookups
// replaced, kept here verbatim in behaviour. Random families, align specs,
// frozen prefixes, frozen slicings and live tables must give bit-identical
// tables (the sign of a zero included) and rewrite counts. Also the NaN
// key rule of both passes. `NeighborSeeds`
// is held to the sampling loop's order-DC tracker it replaced, and its
// `Absorb` to one-by-one `Insert`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kamino/common/rng.h"
#include "kamino/core/prefix_merge.h"
#include "kamino/data/table.h"
#include "kamino/dc/constraint.h"
#include "kamino/dc/grouping.h"

namespace kamino {
namespace {

// ---------------------------------------------------------------------
// Reference: the ordered-map lookups, keyed by value vectors under
// `EvalCompare(<)`. Correct on NaN-free input; the NaN test below does
// not use it.
// ---------------------------------------------------------------------

bool RefValueLt(const Value& a, const Value& b) {
  return EvalCompare(a, CompareOp::kLt, b);
}

std::vector<Value> RefKeyOf(const Table& table, size_t row,
                            const std::vector<size_t>& attrs) {
  std::vector<Value> key;
  key.reserve(attrs.size());
  for (size_t a : attrs) key.push_back(table.at(row, a));
  return key;
}

size_t RefFind(std::vector<size_t>& parent, size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

struct RefKeyLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (RefValueLt(a[i], b[i])) return true;
      if (RefValueLt(b[i], a[i])) return false;
    }
    return a.size() < b.size();
  }
};

class RefFdLookups {
 public:
  explicit RefFdLookups(std::vector<PrefixFdFamily> families)
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
              std::lower_bound(lhs_union_[f].begin(), lhs_union_[f].end(),
                               a) -
              lhs_union_[f].begin()));
        }
      }
    }
  }

  void Absorb(const Table& slice, size_t global_begin) {
    const size_t n = slice.num_rows();
    for (size_t f = 0; f < families_.size(); ++f) {
      const PrefixFdFamily& family = families_[f];
      for (size_t r = 0; r < n; ++r) {
        const size_t global_row = global_begin + r;
        bool first_insert = false;
        for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
          first_insert |= keys_[f][d]
                              .try_emplace(RefKeyOf(slice, r,
                                                    family.lhs_sets[d]),
                                           Entry{slice.at(r, family.rhs),
                                                 global_row})
                              .second;
        }
        if (first_insert) {
          std::vector<Value> vals;
          for (size_t a : lhs_union_[f]) vals.push_back(slice.at(r, a));
          rep_values_[f].emplace(global_row, std::move(vals));
        }
      }
    }
  }

  int64_t Canonicalize(Table* live) const {
    const size_t suffix = live->num_rows();
    if (suffix == 0 || families_.empty()) return 0;
    int64_t total_rewrites = 0;
    for (size_t round = 0; round < live->num_columns() + 1; ++round) {
      int64_t rewrites = 0;
      for (size_t f = 0; f < families_.size(); ++f) {
        const PrefixFdFamily& family = families_[f];
        std::vector<size_t> parent(suffix);
        for (size_t i = 0; i < suffix; ++i) parent[i] = i;
        for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
          std::map<std::vector<Value>, size_t, RefKeyLess> first_member;
          for (size_t i = 0; i < suffix; ++i) {
            auto [it, inserted] = first_member.try_emplace(
                RefKeyOf(*live, i, family.lhs_sets[d]), i);
            if (!inserted) {
              parent[RefFind(parent, i)] = RefFind(parent, it->second);
            }
          }
        }
        std::map<size_t, std::vector<size_t>> components;
        for (size_t i = 0; i < suffix; ++i) {
          components[RefFind(parent, i)].push_back(i);
        }
        for (const auto& [root, members] : components) {
          (void)root;
          size_t best_rep = static_cast<size_t>(-1);
          Value canonical = live->at(members[0], family.rhs);
          for (size_t i : members) {
            for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
              const auto it =
                  keys_[f][d].find(RefKeyOf(*live, i, family.lhs_sets[d]));
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
              ++rewrites;
            }
            if (!has_frozen) continue;
            for (size_t d = 0; d < family.lhs_sets.size(); ++d) {
              const auto it =
                  keys_[f][d].find(RefKeyOf(*live, i, family.lhs_sets[d]));
              if (it == keys_[f][d].end() ||
                  it->second.canonical == canonical) {
                continue;
              }
              const std::vector<Value>& rep = rep_values_[f].at(best_rep);
              for (size_t k = 0; k < family.lhs_sets[d].size(); ++k) {
                const size_t a = family.lhs_sets[d][k];
                const Value& v = rep[lhs_pos_[f][d][k]];
                if (!(live->at(i, a) == v)) {
                  live->set(i, a, v);
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

 private:
  struct Entry {
    Value canonical;
    size_t rep_row = 0;
  };
  using KeyMap = std::map<std::vector<Value>, Entry, RefKeyLess>;

  std::vector<PrefixFdFamily> families_;
  std::vector<std::vector<KeyMap>> keys_;
  std::vector<std::vector<size_t>> lhs_union_;
  std::vector<std::vector<std::vector<size_t>>> lhs_pos_;
  std::vector<std::map<size_t, std::vector<Value>>> rep_values_;
};

class RefAlignLookups {
 public:
  explicit RefAlignLookups(PrefixAlignSpec spec) : spec_(std::move(spec)) {}

  void Absorb(const Table& slice) {
    auto oriented_lt = [this](const Value& a, const Value& b) {
      return spec_.co_monotone ? RefValueLt(a, b) : RefValueLt(b, a);
    };
    for (size_t r = 0; r < slice.num_rows(); ++r) {
      Envelope& env = groups_[RefKeyOf(slice, r, spec_.group_attrs)];
      const Value x = slice.at(r, spec_.ctx_attr);
      const Value dep = slice.at(r, spec_.dep_attr);
      const auto it = std::lower_bound(env.ctx.begin(), env.ctx.end(), x,
                                       RefValueLt);
      const size_t i = static_cast<size_t>(it - env.ctx.begin());
      if (it != env.ctx.end() && !RefValueLt(x, *it)) {
        if (!oriented_lt(dep, env.mx[i])) env.mx[i] = dep;
        if (oriented_lt(dep, env.mn[i])) env.mn[i] = dep;
      } else {
        env.ctx.insert(it, x);
        env.mx.insert(env.mx.begin() + static_cast<ptrdiff_t>(i), dep);
        env.mn.insert(env.mn.begin() + static_cast<ptrdiff_t>(i), dep);
      }
    }
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

  int64_t Align(Table* live) const {
    const size_t n = live->num_rows();
    if (n == 0) return 0;
    auto oriented_lt = [this](const Value& a, const Value& b) {
      return spec_.co_monotone ? RefValueLt(a, b) : RefValueLt(b, a);
    };
    auto ctx_row_less = [&](size_t i, size_t j) {
      const Value& a = live->at(i, spec_.ctx_attr);
      const Value& b = live->at(j, spec_.ctx_attr);
      if (RefValueLt(a, b)) return true;
      if (RefValueLt(b, a)) return false;
      return i < j;
    };
    std::map<std::vector<Value>, std::vector<size_t>, RefKeyLess> groups;
    for (size_t r = 0; r < n; ++r) {
      groups[RefKeyOf(*live, r, spec_.group_attrs)].push_back(r);
    }
    int64_t rewrites = 0;
    for (auto& [key, fresh] : groups) {
      const auto git = groups_.find(key);
      const Envelope* env = git == groups_.end() ? nullptr : &git->second;
      const size_t runs = env == nullptr ? 0 : env->ctx.size();
      std::sort(fresh.begin(), fresh.end(), ctx_row_less);
      std::vector<Value> targets;
      for (size_t r : fresh) targets.push_back(live->at(r, spec_.dep_attr));
      std::sort(targets.begin(), targets.end(), oriented_lt);
      for (size_t k = 0; k < fresh.size(); ++k) {
        const size_t r = fresh[k];
        const Value x = live->at(r, spec_.ctx_attr);
        Value v = targets[k];
        if (env != nullptr) {
          const size_t idx = static_cast<size_t>(
              std::lower_bound(env->ctx.begin(), env->ctx.end(), x,
                               RefValueLt) -
              env->ctx.begin());
          const size_t jdx = static_cast<size_t>(
              std::upper_bound(env->ctx.begin(), env->ctx.end(), x,
                               RefValueLt) -
              env->ctx.begin());
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

 private:
  struct Envelope {
    std::vector<Value> ctx, mx, mn, pmax, smin;
  };
  PrefixAlignSpec spec_;
  std::map<std::vector<Value>, Envelope, RefKeyLess> groups_;
};

// ---------------------------------------------------------------------
// Reference for `NeighborSeeds`: the sampling loop's order-DC tracker,
// (x, y) points kept sorted by a sorted-vector insert, seeding the y
// values at the +-2 positions around the query's lower bound.
// ---------------------------------------------------------------------

struct RefOrderTracker {
  std::vector<std::pair<double, double>> points;  // sorted by x

  void Insert(double x, double y) {
    points.insert(std::lower_bound(points.begin(), points.end(),
                                   std::make_pair(x, y)),
                  {x, y});
  }

  void Seed(double x, std::vector<double>* values) const {
    auto it = std::lower_bound(
        points.begin(), points.end(),
        std::make_pair(x, -std::numeric_limits<double>::infinity()));
    const ptrdiff_t base_pos = it - points.begin();
    const ptrdiff_t size = static_cast<ptrdiff_t>(points.size());
    for (ptrdiff_t step = -2; step <= 2; ++step) {
      const ptrdiff_t j = base_pos + step;
      if (j >= 0 && j < size) {
        values->push_back(points[static_cast<size_t>(j)].second);
      }
    }
  }
};

// ---------------------------------------------------------------------
// Random inputs.
// ---------------------------------------------------------------------

constexpr size_t kCategorical = 4;  // attributes [0, 4) are categorical
constexpr size_t kWidth = 8;        // attributes [4, 8) are numeric

Schema MixedSchema() {
  std::vector<Attribute> attrs;
  for (size_t a = 0; a < kCategorical; ++a) {
    attrs.push_back(Attribute::MakeCategorical(
        "c" + std::to_string(a), {"v0", "v1", "v2", "v3"}));
  }
  for (size_t a = kCategorical; a < kWidth; ++a) {
    attrs.push_back(
        Attribute::MakeNumeric("n" + std::to_string(a), -4.0, 4.0, 9));
  }
  return Schema(std::move(attrs));
}

/// A cell from a small domain so keys collide often; numeric cells draw
/// -0.0 and +0.0 as distinct bit patterns of one value.
Value RandomCell(size_t attr, size_t domain, Rng* rng) {
  const int64_t pick = rng->UniformInt(0, static_cast<int64_t>(domain) - 1);
  if (attr < kCategorical) {
    return Value::Categorical(static_cast<int32_t>(pick));
  }
  static const double kNums[] = {0.0, -0.0, 1.0, 2.0, -1.0, 3.0, 0.5};
  return Value::Numeric(kNums[pick % 7]);
}

Table RandomTable(size_t rows, size_t domain, Rng* rng) {
  Table t(MixedSchema());
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t a = 0; a < kWidth; ++a) {
      row.push_back(RandomCell(a, domain, rng));
    }
    t.AppendRowUnchecked(row);
  }
  return t;
}

/// `count` distinct attributes in random order, none equal to `skip`.
std::vector<size_t> RandomAttrs(size_t count, size_t skip, Rng* rng) {
  std::vector<size_t> pool;
  for (size_t a = 0; a < kWidth; ++a) {
    if (a != skip) pool.push_back(a);
  }
  for (size_t i = 0; i < count; ++i) {
    const size_t j = static_cast<size_t>(
        rng->UniformInt(static_cast<int64_t>(i),
                        static_cast<int64_t>(pool.size()) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

/// One to three families, listed in random RHS order (so a later family
/// can rewrite an earlier family's LHS), each of one to three FDs with
/// one to four LHS attributes. LHS sets overlap across FDs and families.
std::vector<PrefixFdFamily> RandomFamilies(Rng* rng) {
  const size_t num_families = static_cast<size_t>(rng->UniformInt(1, 3));
  const std::vector<size_t> rhs = RandomAttrs(num_families, kWidth, rng);
  std::vector<PrefixFdFamily> families;
  for (size_t f = 0; f < num_families; ++f) {
    PrefixFdFamily family;
    family.rhs = rhs[f];
    const size_t num_fds = static_cast<size_t>(rng->UniformInt(1, 3));
    for (size_t d = 0; d < num_fds; ++d) {
      const size_t size = static_cast<size_t>(rng->UniformInt(1, 4));
      // One FD in eight may hold its own RHS in its LHS (a trivial FD),
      // so an RHS write also moves that FD's key.
      const size_t skip = rng->UniformInt(0, 7) == 0 ? kWidth : family.rhs;
      family.lhs_sets.push_back(RandomAttrs(size, skip, rng));
    }
    families.push_back(std::move(family));
  }
  return families;
}

/// Ascending slice starts covering [0, rows): one to four slices, some
/// possibly empty.
std::vector<size_t> RandomCuts(size_t rows, Rng* rng) {
  std::vector<size_t> cuts = {0};
  const size_t num_slices = static_cast<size_t>(rng->UniformInt(1, 4));
  for (size_t i = 1; i < num_slices; ++i) {
    cuts.push_back(static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(rows))));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(rows);
  return cuts;
}

/// Cell-by-cell equality of the stored bits: a categorical code, or a
/// double's bit pattern (so -0.0 differs from +0.0).
void ExpectBitIdentical(const Table& a, const Table& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      const Value va = a.at(r, c);
      const Value vb = b.at(r, c);
      ASSERT_EQ(va.kind(), vb.kind()) << context;
      if (va.is_categorical()) {
        ASSERT_EQ(va.category(), vb.category())
            << context << " cell (" << r << ", " << c << ")";
      } else {
        const double xa = va.numeric();
        const double xb = vb.numeric();
        ASSERT_EQ(0, std::memcmp(&xa, &xb, sizeof(double)))
            << context << " cell (" << r << ", " << c << "): " << xa
            << " vs " << xb;
      }
    }
  }
}

/// Per attribute: whether some row of `after` differs from `before` in
/// its stored bits (so a NaN cell left alone counts as unchanged).
std::vector<bool> ChangedAttrs(const Table& before, const Table& after) {
  std::vector<bool> changed(before.num_columns(), false);
  for (size_t r = 0; r < before.num_rows(); ++r) {
    for (size_t c = 0; c < before.num_columns(); ++c) {
      const Value vb = before.at(r, c);
      const Value va = after.at(r, c);
      if (vb.is_categorical()) {
        changed[c] = changed[c] || vb.category() != va.category();
      } else {
        const double xb = vb.numeric();
        const double xa = va.numeric();
        changed[c] = changed[c] || std::memcmp(&xb, &xa, sizeof(double)) != 0;
      }
    }
  }
  return changed;
}

std::string Describe(const std::vector<PrefixFdFamily>& families) {
  std::string out;
  for (const PrefixFdFamily& family : families) {
    out += "{";
    for (const std::vector<size_t>& lhs : family.lhs_sets) {
      out += "(";
      for (size_t a : lhs) out += std::to_string(a) + " ";
      out += ")";
    }
    out += "->" + std::to_string(family.rhs) + "} ";
  }
  return out;
}

TEST(PrefixMergeOracleTest, FdKeyHashFoldsSignedZero) {
  // Keys that compare equal must hash equal for the hashed lookups to
  // match -0.0 with +0.0.
  FdKey pos;
  pos.push_back(Value::Numeric(0.0));
  FdKey neg;
  neg.push_back(Value::Numeric(-0.0));
  EXPECT_TRUE(pos == neg);
  EXPECT_EQ(FdKeyHash()(pos), FdKeyHash()(neg));
}

TEST(PrefixMergeOracleTest, CanonicalizeMatchesOrderedMapReference) {
  Rng rng(2024);
  int64_t total_rewrites = 0;
  int64_t total_lhs_rewrites = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<PrefixFdFamily> families = RandomFamilies(&rng);
    const size_t domain = static_cast<size_t>(rng.UniformInt(2, 4));
    const size_t frozen_rows = static_cast<size_t>(rng.UniformInt(0, 40));
    const size_t live_rows = static_cast<size_t>(rng.UniformInt(1, 40));
    const Table frozen = RandomTable(frozen_rows, domain, &rng);
    const Table live = RandomTable(live_rows, domain, &rng);
    const std::vector<size_t> cuts = RandomCuts(frozen_rows, &rng);
    const std::string context =
        "trial " + std::to_string(trial) + " " + Describe(families);

    RefFdLookups ref(families);
    ref.Absorb(frozen, 0);
    FrozenFdLookups hashed(families);
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      hashed.Absorb(frozen.Slice(cuts[i], cuts[i + 1] - cuts[i]), cuts[i]);
    }
    Table want = live;
    Table got = live;
    const int64_t want_rewrites = ref.Canonicalize(&want);
    const int64_t got_rewrites = hashed.Canonicalize(&got);
    ASSERT_EQ(got_rewrites, want_rewrites) << context;
    ExpectBitIdentical(got, want, context);
    total_rewrites += want_rewrites;
    const std::vector<bool> changed = ChangedAttrs(live, want);
    for (const PrefixFdFamily& family : families) {
      for (size_t a = 0; a < kWidth; ++a) {
        if (a != family.rhs && changed[a]) ++total_lhs_rewrites;
      }
    }
  }
  // The cases exercise rewrites and LHS re-points, not just no-ops.
  EXPECT_GT(total_rewrites, 1000);
  EXPECT_GT(total_lhs_rewrites, 50);
}

TEST(PrefixMergeOracleTest, AlignMatchesOrderedMapReference) {
  Rng rng(4048);
  int64_t total_moved = 0;
  for (int trial = 0; trial < 400; ++trial) {
    PrefixAlignSpec spec;
    const size_t num_group = static_cast<size_t>(rng.UniformInt(0, 4));
    // Context and dependent are numeric (so they carry signed zeros); the
    // group scope is any other attributes.
    spec.ctx_attr = static_cast<size_t>(
        rng.UniformInt(kCategorical, kWidth - 1));
    do {
      spec.dep_attr = static_cast<size_t>(
          rng.UniformInt(kCategorical, kWidth - 1));
    } while (spec.dep_attr == spec.ctx_attr);
    for (size_t a : RandomAttrs(kWidth - 1, kWidth, &rng)) {
      if (spec.group_attrs.size() == num_group) break;
      if (a != spec.ctx_attr && a != spec.dep_attr) {
        spec.group_attrs.push_back(a);
      }
    }
    spec.co_monotone = rng.UniformInt(0, 1) == 1;
    const size_t domain = static_cast<size_t>(rng.UniformInt(2, 7));
    const size_t frozen_rows = static_cast<size_t>(rng.UniformInt(0, 60));
    const size_t live_rows = static_cast<size_t>(rng.UniformInt(1, 40));
    const Table frozen = RandomTable(frozen_rows, domain, &rng);
    const Table live = RandomTable(live_rows, domain, &rng);
    const std::vector<size_t> cuts = RandomCuts(frozen_rows, &rng);
    const std::string context = "trial " + std::to_string(trial);

    RefAlignLookups ref(spec);
    FrozenAlignLookups hashed(spec);
    // Both absorb the same slicing: the reference's per-row inserts give
    // the sequential fold the merge of sorted runs must reproduce.
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const Table slice = frozen.Slice(cuts[i], cuts[i + 1] - cuts[i]);
      ref.Absorb(slice);
      hashed.Absorb(slice);
    }
    Table want = live;
    Table got = live;
    const int64_t want_moved = ref.Align(&want);
    ASSERT_EQ(hashed.Align(&got), want_moved) << context;
    ExpectBitIdentical(got, want, context);
    total_moved += want_moved;
  }
  EXPECT_GT(total_moved, 1000);
}

// ---------------------------------------------------------------------
// NaN keys: a key cell holding NaN matches no other key.
// ---------------------------------------------------------------------

/// Seed keys and values: ties, both zeros, and the infinities (a value of
/// -inf ties the lookup's own bound).
double RandomSeedNumber(Rng* rng) {
  static const double kNums[] = {0.0,
                                 -0.0,
                                 1.0,
                                 2.0,
                                 -1.0,
                                 3.0,
                                 0.5,
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::infinity()};
  return kNums[rng->UniformInt(0, 8)];
}

/// Every stored key plus points before the first and past the last.
std::vector<double> SeedQueries() {
  return {-5.0, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0,
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity()};
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&a[i], &b[i], sizeof(double)))
        << context << " seed " << i << ": " << a[i] << " vs " << b[i];
  }
}

TEST(NeighborSeedsTest, SeedMatchesOrderTrackerReference) {
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    // Sizes 0 to 5 in most trials, up to 40 in the rest.
    const int64_t max_size = trial % 4 == 0 ? 40 : 5;
    const size_t size = static_cast<size_t>(rng.UniformInt(0, max_size));
    NeighborSeeds seeds(0, 1);
    RefOrderTracker ref;
    for (size_t i = 0; i <= size; ++i) {
      for (double query : SeedQueries()) {
        std::vector<double> got;
        std::vector<double> want;
        seeds.Seed(query, &got);
        ref.Seed(query, &want);
        ExpectSameBits(got, want,
                       "trial " + std::to_string(trial) + " after " +
                           std::to_string(i) + " inserts, query " +
                           std::to_string(query));
      }
      if (i == size) break;
      const double key = RandomSeedNumber(&rng);
      const double value = RandomSeedNumber(&rng);
      seeds.Insert(key, value);
      ref.Insert(key, value);
    }
  }
}

TEST(NeighborSeedsTest, AbsorbMatchesInsertingRowByRow) {
  Schema schema({Attribute::MakeNumeric("x", -4.0, 4.0, 9),
                 Attribute::MakeNumeric("y", -4.0, 4.0, 9)});
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t rows = static_cast<size_t>(rng.UniformInt(0, 16));
    Table table(schema);
    for (size_t r = 0; r < rows; ++r) {
      const double key = RandomSeedNumber(&rng);
      const double value = RandomSeedNumber(&rng);
      table.AppendRowUnchecked({Value::Numeric(key), Value::Numeric(value)});
    }
    NeighborSeeds absorbed(0, 1);
    NeighborSeeds inserted(0, 1);
    const std::vector<size_t> cuts = RandomCuts(rows, &rng);
    for (size_t k = 0; k + 1 < cuts.size(); ++k) {
      Table slice(schema);
      slice.AppendRowsFrom(table, cuts[k], cuts[k + 1] - cuts[k]);
      absorbed.Absorb(slice);
    }
    for (size_t r = 0; r < rows; ++r) {
      inserted.Insert(table.at(r, 0).numeric(), table.at(r, 1).numeric());
    }
    for (double query : SeedQueries()) {
      std::vector<double> got;
      std::vector<double> want;
      absorbed.Seed(query, &got);
      inserted.Seed(query, &want);
      ExpectSameBits(got, want,
                     "trial " + std::to_string(trial) + ", query " +
                         std::to_string(query));
    }
  }
}

TEST(NeighborSeedsTest, NanPairsAreNeverStoredAndNanKeysSeedNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  NeighborSeeds seeds(0, 1);
  seeds.Insert(nan, 1.0);
  seeds.Insert(1.0, nan);
  std::vector<double> out;
  seeds.Seed(1.0, &out);
  EXPECT_TRUE(out.empty());
  seeds.Insert(1.0, 2.0);
  seeds.Seed(nan, &out);
  EXPECT_TRUE(out.empty());

  Schema schema({Attribute::MakeNumeric("x", 0.0, 10.0, 11),
                 Attribute::MakeNumeric("y", 0.0, 10.0, 11)});
  Table slice(schema);
  for (const auto& [x, y] : std::vector<std::pair<double, double>>{
           {nan, 4.0}, {3.0, nan}, {3.0, 5.0}}) {
    slice.AppendRowUnchecked({Value::Numeric(x), Value::Numeric(y)});
  }
  seeds.Absorb(slice);
  seeds.Seed(0.0, &out);
  EXPECT_EQ(out, (std::vector<double>{2.0, 5.0}));
}

TEST(PrefixMergeNanTest, NanKeyCellsMatchNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({Attribute::MakeNumeric("k", 0.0, 10.0, 11),
                 Attribute::MakeNumeric("x", 0.0, 10.0, 11),
                 Attribute::MakeNumeric("y", 0.0, 10.0, 11)});
  auto table = [&](const std::vector<std::vector<double>>& rows) {
    Table t(schema);
    for (const std::vector<double>& r : rows) {
      t.AppendRowUnchecked({Value::Numeric(r[0]), Value::Numeric(r[1]),
                            Value::Numeric(r[2])});
    }
    return t;
  };

  // FD k -> y. The frozen NaN key (y = 7) is never stored; the frozen
  // key 1 holds y = 3.
  PrefixFdFamily family;
  family.rhs = 2;
  family.lhs_sets = {{0}};
  FrozenFdLookups fd({family});
  fd.Absorb(table({{nan, 0, 7}, {1, 0, 3}}), 0);
  // Live: two NaN-key rows with different y stay apart (each its own
  // group, no frozen match), while the key-1 rows adopt the frozen 3 and
  // the key-2 rows their smallest member's 5.
  const Table before = table({{nan, 0, 9}, {1, 0, 4}, {nan, 0, 8},
                              {2, 0, 5}, {2, 0, 6}, {1, 0, 3}});
  Table live = before;
  EXPECT_EQ(fd.Canonicalize(&live), 2);
  EXPECT_EQ(live.at(0, 2).numeric(), 9.0);
  EXPECT_EQ(live.at(2, 2).numeric(), 8.0);
  EXPECT_EQ(live.at(1, 2).numeric(), 3.0);
  EXPECT_EQ(live.at(4, 2).numeric(), 5.0);
  EXPECT_TRUE(std::isnan(live.at(0, 0).numeric()));
  EXPECT_EQ(ChangedAttrs(before, live), (std::vector<bool>{false, false, true}));

  // Order DC within k: y weakly increasing in x. The NaN-group frozen row
  // and the NaN-context frozen row build no envelope; group 1's frozen
  // envelope is x = 2 -> y = 5.
  PrefixAlignSpec spec;
  spec.group_attrs = {0};
  spec.ctx_attr = 1;
  spec.dep_attr = 2;
  FrozenAlignLookups align(spec);
  align.Absorb(table({{nan, 5, 0}, {1, nan, 100}, {1, 2, 5}}));
  Table rows = table({{nan, 9, 0},     // NaN group: its own group, alone
                      {nan, 1, 10},    // NaN group: not ranked with row 0
                      {1, 3, 1},       // clamped up to the frozen lo = 5
                      {1, nan, 50},    // NaN context: left alone
                      {1, 1, 0.5},     // below every frozen context: free
                      {1, 4, nan}});   // NaN dependent: left alone
  EXPECT_EQ(align.Align(&rows), 1);
  EXPECT_EQ(rows.at(0, 2).numeric(), 0.0);
  EXPECT_EQ(rows.at(1, 2).numeric(), 10.0);
  EXPECT_EQ(rows.at(2, 2).numeric(), 5.0);
  EXPECT_EQ(rows.at(3, 2).numeric(), 50.0);
  EXPECT_EQ(rows.at(4, 2).numeric(), 0.5);
  EXPECT_TRUE(std::isnan(rows.at(5, 2).numeric()));
}

}  // namespace
}  // namespace kamino
