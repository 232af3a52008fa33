#ifndef KAMINO_CORE_SEQUENCING_H_
#define KAMINO_CORE_SEQUENCING_H_

#include <cstddef>
#include <vector>

#include "kamino/common/rng.h"
#include "kamino/data/schema.h"
#include "kamino/dc/constraint.h"

namespace kamino {

/// Algorithm 4: constraint-aware attribute sequencing.
///
/// Returns a permutation of attribute indices built from every DC in
/// `constraints` whose decomposition has an FD view X -> Y
/// (`PredicateDecomposition::Fd`, whatever the spelling). FDs are
/// processed by increasing minimal LHS domain size, each appending its
/// unplaced attributes, X (sorted by domain size) before Y. So X precedes
/// Y unless an FD processed earlier already placed Y (on Tax, `state`
/// precedes `zip` and `areacode`). Attributes not touched by any FD are
/// appended by ascending domain size. The true instance is never
/// consulted, so sequencing costs no privacy budget.
std::vector<size_t> SequenceSchema(
    const Schema& schema, const std::vector<WeightedConstraint>& constraints);

/// Ablation baseline ("RandSequence" of Experiment 5): a uniformly random
/// permutation of the attributes.
std::vector<size_t> RandomSequence(const Schema& schema, Rng* rng);

/// Assigns every DC to its activation position: the largest sequence
/// position among the DC's attributes (the position at which all of its
/// attributes have been sampled). `result[p]` lists the indices into
/// `constraints` of the DCs activated at sequence position p (the set
/// Phi_{A_j} of section 3.2).
std::vector<std::vector<size_t>> ActivationPositions(
    const std::vector<size_t>& sequence,
    const std::vector<WeightedConstraint>& constraints);

}  // namespace kamino

#endif  // KAMINO_CORE_SEQUENCING_H_
