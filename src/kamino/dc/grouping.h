#ifndef KAMINO_DC_GROUPING_H_
#define KAMINO_DC_GROUPING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kamino/data/table.h"
#include "kamino/data/value.h"

namespace kamino {

/// Equality grouping of rows on a list of attributes, shared by the
/// violation indices (dc/violations.cc) and the shard freeze's exact
/// passes (core/prefix_merge.cc). Two keys match when every cell is equal
/// as a `Value`: -0.0 matches +0.0, and a NaN cell matches nothing, not
/// even itself, so a row with a NaN key cell is a group of its own.

/// Hash key for the values of a row on a list of attributes (an FD's
/// left-hand side, an order DC's equality scope). Keys of up to `kInline`
/// values (every grouped DC of the benchmark datasets) live inline, so
/// building one to look a group up allocates nothing; longer keys keep
/// the rest in `tail`.
struct FdKey {
  static constexpr size_t kInline = 3;
  size_t size = 0;
  Value head[kInline];
  std::vector<Value> tail;  // values [kInline, size)

  const Value& operator[](size_t i) const {
    return i < kInline ? head[i] : tail[i - kInline];
  }

  void push_back(const Value& v) {
    if (size < kInline) {
      head[size] = v;
    } else {
      tail.push_back(v);
    }
    ++size;
  }

  bool operator==(const FdKey& other) const {
    if (size != other.size) return false;
    for (size_t i = 0; i < size; ++i) {
      if (!((*this)[i] == other[i])) return false;
    }
    return true;
  }
};

/// FNV-1a over the cells' `ValueHash`es. `ValueHash` hashes the payload
/// through `std::hash<double>`, which maps -0.0 and +0.0 alike, so keys
/// that compare equal hash equal.
struct FdKeyHash {
  size_t operator()(const FdKey& k) const {
    size_t h = 1469598103934665603ull;
    ValueHash vh;
    for (size_t i = 0; i < k.size; ++i) {
      h ^= vh(k[i]);
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Projects `row` onto `attrs` as a hashable group key — the one key
/// construction every grouped lookup shares. Inline: the violation
/// indices build one per candidate-set lookup.
inline FdKey RowKey(const Row& row, const std::vector<size_t>& attrs) {
  FdKey key;
  for (size_t a : attrs) key.push_back(row[a]);
  return key;
}

/// The same key read straight from row `row` of `table`.
inline FdKey RowKey(const Table& table, size_t row,
                    const std::vector<size_t>& attrs) {
  FdKey key;
  for (size_t a : attrs) key.push_back(table.at(row, a));
  return key;
}

/// True when some cell of `key` is NaN: such a key matches no other key.
bool HasNan(const FdKey& key);

/// Dense group ids (first-occurrence order) of `table`'s rows under
/// equality on `attrs` — the one grouping every offline count, matrix
/// column and freeze pass runs on. Each row's key is a flat sequence of
/// u64 words read straight from the typed arrays: dictionary codes widen
/// to u64 and numeric cells contribute their bit pattern, so word
/// equality coincides with Value equality (-0.0 is canonicalized to +0.0
/// first, the one bit-pattern split inside a Value equivalence class).
/// NaN breaks the correspondence the other way (NaN != NaN as a Value,
/// but its bit pattern equals itself): a row with NaN in any key cell
/// equals no other row, so it gets a singleton group without entering the
/// hash table. Linear-probing insert-or-find over the words; an empty key
/// (no attributes) puts every row in group 0, matching the single empty
/// RowKey. O(rows * attrs).
std::vector<uint32_t> GroupIds(const Table& table,
                               const std::vector<size_t>& attrs,
                               size_t* num_groups);

}  // namespace kamino

#endif  // KAMINO_DC_GROUPING_H_
