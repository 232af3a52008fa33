#include "kamino/core/sequencing.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "kamino/common/logging.h"

namespace kamino {
namespace {

int64_t MinLhsDomain(const Schema& schema, const FdSpec& fd) {
  int64_t best = std::numeric_limits<int64_t>::max();
  for (size_t a : fd.lhs) {
    best = std::min(best, schema.attribute(a).DomainSize());
  }
  return best;
}

}  // namespace

std::vector<size_t> SequenceSchema(
    const Schema& schema, const std::vector<WeightedConstraint>& constraints) {
  // Line 2: collect FD views, sorted by increasing minimal LHS domain.
  std::vector<FdSpec> fds;
  for (const WeightedConstraint& wc : constraints) {
    if (auto fd = wc.dc.Decompose().Fd()) fds.push_back(std::move(*fd));
  }
  std::stable_sort(fds.begin(), fds.end(), [&](const auto& a, const auto& b) {
    return MinLhsDomain(schema, a) < MinLhsDomain(schema, b);
  });

  std::vector<size_t> sequence;
  std::vector<bool> placed(schema.size(), false);
  auto append = [&](size_t attr) {
    if (!placed[attr]) {
      placed[attr] = true;
      sequence.push_back(attr);
    }
  };

  // Lines 4-7: for each FD append its LHS (sorted by domain size) then RHS.
  for (const FdSpec& fd : fds) {
    std::vector<size_t> lhs = fd.lhs;
    std::stable_sort(lhs.begin(), lhs.end(), [&](size_t a, size_t b) {
      return schema.attribute(a).DomainSize() < schema.attribute(b).DomainSize();
    });
    for (size_t a : lhs) append(a);
    append(fd.rhs);
  }

  // Line 8: remaining attributes by ascending domain size.
  std::vector<size_t> rest;
  for (size_t a = 0; a < schema.size(); ++a) {
    if (!placed[a]) rest.push_back(a);
  }
  std::stable_sort(rest.begin(), rest.end(), [&](size_t a, size_t b) {
    return schema.attribute(a).DomainSize() < schema.attribute(b).DomainSize();
  });
  for (size_t a : rest) append(a);

  KAMINO_CHECK(sequence.size() == schema.size()) << "sequence lost attributes";
  return sequence;
}

std::vector<size_t> RandomSequence(const Schema& schema, Rng* rng) {
  std::vector<size_t> sequence(schema.size());
  std::iota(sequence.begin(), sequence.end(), 0);
  rng->Shuffle(&sequence);
  return sequence;
}

std::vector<std::vector<size_t>> ActivationPositions(
    const std::vector<size_t>& sequence,
    const std::vector<WeightedConstraint>& constraints) {
  std::vector<size_t> position_of(sequence.size());
  for (size_t p = 0; p < sequence.size(); ++p) position_of[sequence[p]] = p;

  std::vector<std::vector<size_t>> active(sequence.size());
  for (size_t l = 0; l < constraints.size(); ++l) {
    size_t max_pos = 0;
    for (size_t attr : constraints[l].dc.attributes()) {
      KAMINO_CHECK(attr < position_of.size()) << "DC attribute out of schema";
      max_pos = std::max(max_pos, position_of[attr]);
    }
    active[max_pos].push_back(l);
  }
  return active;
}

}  // namespace kamino
