#ifndef KAMINO_CORE_MODEL_H_
#define KAMINO_CORE_MODEL_H_

#include <memory>
#include <optional>
#include <vector>

#include "kamino/common/status.h"
#include "kamino/core/options.h"
#include "kamino/data/quantizer.h"
#include "kamino/data/table.h"
#include "kamino/nn/discriminative.h"

namespace kamino {

/// One link of the conditional chain of Eqn. (2)/(6): either a noisy
/// histogram (the first attribute, hyper-grouped first attributes, or a
/// large-domain Gaussian-fallback attribute) or a DP-SGD-trained
/// discriminative sub-model M_{X,y}.
struct ModelUnit {
  enum class Kind { kHistogram, kDiscriminative };

  Kind kind = Kind::kHistogram;
  /// Schema attribute indices this unit fills (more than one = hyper
  /// attribute group; then all are categorical).
  std::vector<size_t> attrs;
  /// Schema attribute indices available as context (everything earlier in
  /// the sequence). Empty for histogram units.
  std::vector<size_t> context;
  /// Sequence positions [start_position, start_position + attrs.size()).
  size_t start_position = 0;

  // --- Histogram state (kind == kHistogram) ---
  /// Normalized noisy distribution over the joint categorical domain, or
  /// over quantizer bins for a numeric attribute.
  std::vector<double> distribution;
  /// Set when the (single) histogram attribute is numeric.
  std::optional<Quantizer> quantizer;
  /// Per-attribute category counts, for joint index decoding.
  std::vector<size_t> radix;

  // --- Discriminative state (kind == kDiscriminative) ---
  std::unique_ptr<DiscriminativeModel> model;
  /// Private encoder store when trained without sharing (parallel mode);
  /// null when the shared store is used.
  std::unique_ptr<EncoderStore> private_store;

  /// Decodes a joint index over the unit's categorical attributes into
  /// per-attribute category values, written to `values` (resized to
  /// radix.size(), aligned with attrs) without a temporary vector.
  void DecodeJointIndex(size_t index, std::vector<Value>* values) const;
};

/// The privately learned probabilistic data model M of Algorithm 2: the
/// chain of units in schema-sequence order, plus the shared encoder store.
class ProbabilisticDataModel {
 public:
  /// An empty, untrained model (no units). Exists so fitted-artifact
  /// aggregates can be declared before `Train` fills them in.
  ProbabilisticDataModel() = default;

  /// Algorithm 2 (TrainModel): partitions the sequence into units (applying
  /// the grouping and large-domain optimizations per `options`), releases
  /// noisy histograms with the Gaussian mechanism and trains each
  /// discriminative sub-model with DP-SGD.
  static Result<ProbabilisticDataModel> Train(
      const Table& data, const std::vector<size_t>& sequence,
      const KaminoOptions& options, Rng* rng);

  /// Splits the sequence into model units without training (exposed so the
  /// privacy parameter search can count sub-models and histograms before
  /// spending any budget).
  static std::vector<ModelUnit> PlanUnits(const Schema& schema,
                                          const std::vector<size_t>& sequence,
                                          const KaminoOptions& options);

  const Schema& schema() const { return *schema_; }
  const std::vector<size_t>& sequence() const { return sequence_; }
  const std::vector<ModelUnit>& units() const { return units_; }
  std::vector<ModelUnit>& units() { return units_; }

  /// Number of histogram releases (for accounting).
  size_t num_histogram_units() const;
  /// Number of DP-SGD-trained sub-models (for accounting).
  size_t num_discriminative_units() const;

  /// Artifact serde. `SerializeTo` writes the full trained state (schema,
  /// sequence, encoder-store tensors, per-unit histogram tables / net head
  /// weights); it requires a trained model. `DeserializeFrom` validates
  /// everything before constructing — the sequence must be a permutation
  /// tiled exactly by the units, kind/arity flips and shape mismatches are
  /// rejected with InvalidArgument, and derived state (radix, quantizer,
  /// standardization stats) is recomputed from the schema rather than
  /// trusted from the wire.
  void SerializeTo(std::vector<uint8_t>* out) const;
  static Result<ProbabilisticDataModel> DeserializeFrom(io::ByteReader* in);

 private:
  /// The model owns a heap copy of the training schema (stable address
  /// under moves), so a fitted model never dangles into the input table —
  /// sessions may release the private instance right after `Train`.
  std::shared_ptr<const Schema> schema_;
  std::vector<size_t> sequence_;
  std::vector<ModelUnit> units_;
  std::unique_ptr<EncoderStore> shared_store_;
};

}  // namespace kamino

#endif  // KAMINO_CORE_MODEL_H_
