#include "kamino/dc/grouping.h"

#include <algorithm>
#include <cstring>

namespace kamino {

bool HasNan(const FdKey& key) {
  for (size_t i = 0; i < key.size; ++i) {
    if (!(key[i] == key[i])) return true;
  }
  return false;
}

std::vector<uint32_t> GroupIds(const Table& table,
                               const std::vector<size_t>& attrs,
                               size_t* num_groups) {
  const size_t n = table.num_rows();
  const size_t k = attrs.size();
  std::vector<uint32_t> gid(n, 0);
  if (k == 0) {
    *num_groups = n == 0 ? 0 : 1;
    return gid;
  }
  // Row-major key words: row i's key is k consecutive u64s.
  std::vector<uint64_t> words(n * k);
  std::vector<uint8_t> has_nan(n, 0);
  for (size_t slot = 0; slot < k; ++slot) {
    const Column& col = table.columns().column(attrs[slot]);
    uint64_t* dst = words.data() + slot;
    if (col.is_categorical()) {
      const int32_t* codes = col.codes().data();
      for (size_t i = 0; i < n; ++i, dst += k) {
        *dst = static_cast<uint64_t>(static_cast<int64_t>(codes[i]));
      }
    } else {
      const double* nums = col.nums().data();
      for (size_t i = 0; i < n; ++i, dst += k) {
        const double v = nums[i];
        if (v != v) has_nan[i] = 1;
        const double canonical = v == 0.0 ? 0.0 : v;  // fold -0.0 in
        std::memcpy(dst, &canonical, sizeof(*dst));
      }
    }
  }
  size_t cap = 16;
  while (cap < 2 * n) cap *= 2;
  const size_t mask = cap - 1;
  constexpr uint32_t kEmpty = 0xffffffffu;
  std::vector<uint32_t> slot_group(cap, kEmpty);
  std::vector<uint32_t> reps;  // representative row of each group
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* w = words.data() + i * k;
    if (has_nan[i]) {
      gid[i] = static_cast<uint32_t>(reps.size());
      reps.push_back(static_cast<uint32_t>(i));
      continue;
    }
    // FNV-1a over the key words, with a final fold so power-of-two
    // masking sees high-entropy low bits.
    uint64_t h = 1469598103934665603ull;
    for (size_t t = 0; t < k; ++t) {
      h ^= w[t];
      h *= 1099511628211ull;
    }
    h ^= h >> 32;
    size_t slot = static_cast<size_t>(h) & mask;
    while (true) {
      const uint32_t g = slot_group[slot];
      if (g == kEmpty) {
        gid[i] = static_cast<uint32_t>(reps.size());
        slot_group[slot] = gid[i];
        reps.push_back(static_cast<uint32_t>(i));
        break;
      }
      if (std::equal(w, w + k, words.data() + size_t{reps[g]} * k)) {
        gid[i] = g;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  *num_groups = reps.size();
  return gid;
}


}  // namespace kamino
