#ifndef KAMINO_NN_ENCODERS_H_
#define KAMINO_NN_ENCODERS_H_

#include <map>
#include <memory>
#include <vector>

#include "kamino/data/schema.h"
#include "kamino/nn/module.h"

namespace kamino {

/// Encodes one attribute's value as a d-dimensional embedding (the tuple
/// embedding of section 2.3).
///
/// Categorical attributes use a learnable |domain| x d lookup table;
/// numeric attributes standardize with public domain statistics and apply
/// z = B * relu(A*x + c) + d (AimNet's non-linear transformation).
class AttributeEncoder {
 public:
  AttributeEncoder(const Attribute& attr, size_t embed_dim, Rng* rng);

  /// Embeds `v` as a 1 x d vector, binding parameters through `ctx`.
  /// Training only; inference uses `EncodeInto`.
  Var Encode(const Value& v, ForwardContext* ctx) const;

  /// Tape-free `Encode`: writes the d values of `v`'s embedding to `out`,
  /// reading the live parameter values. `scratch` holds d doubles for the
  /// numeric hidden layer (unused for categorical). The floating-point
  /// operations and their order are those of `Encode`, so the result is
  /// bit-identical. Const and state-free, so concurrent calls are safe.
  void EncodeInto(const Value& v, double* scratch, double* out) const;

  /// Tape-free backward of `Encode`. `AppendGradientSegments` appends to
  /// `grad->segments` the coordinates the gradient of `Encode(v)` touches:
  /// the looked-up table row of a categorical encoder, or all of a numeric
  /// encoder's a, c, B and bias. They are numbered as parameters `*param`,
  /// `*param + 1`, ... (this encoder's `Parameters()` as they sit in the
  /// caller's list) and take values from `grad->values` offset `*start`
  /// on; both are advanced past them (`values` is not resized).
  void AppendGradientSegments(const Value& v, size_t* param, size_t* start,
                              SparseGradient* grad) const;
  /// Values `AppendGradientSegments` lays out: d, or 3d + d*d.
  size_t GradientSize() const {
    const size_t d = embed_dim_;
    return is_categorical_ ? d : 3 * d + d * d;
  }
  /// Adds to `grad` (those values, zeroed or partly summed) the gradient
  /// of `Encode(v)` given `grad_out` = d(loss)/d(embedding), from `hidden`,
  /// the hidden layer `EncodeInto` wrote for `v`; `scratch` holds d
  /// doubles. Every floating-point operation is one that `Backward` runs
  /// over `Encode`'s graph, in the same order, so the values are
  /// bit-identical.
  void BackwardInto(const Value& v, const double* hidden,
                    const double* grad_out, double* scratch,
                    double* grad) const;

  /// All trainable tensors of this encoder.
  std::vector<Parameter*> Parameters();

  /// Deep-copies the trained parameter values from `other` (the embedding
  /// reuse of Algorithm 2 lines 7/19).
  void CopyFrom(const AttributeEncoder& other);

  /// Artifact serde: appends the trained tensor values in `Parameters()`
  /// order, and restores them from a flat tensor list. `ImportTensors`
  /// consumes this encoder's tensors starting at `*pos` (advancing it) and
  /// fails with InvalidArgument on a count or shape mismatch, leaving the
  /// encoder unmodified on error.
  void ExportTensors(std::vector<Tensor>* out) const;
  Status ImportTensors(const std::vector<Tensor>& values, size_t* pos);

  size_t embed_dim() const { return embed_dim_; }
  bool is_categorical() const { return is_categorical_; }

  /// Standardizes a numeric value with the public domain statistics.
  double Standardize(double v) const {
    return (v - standardize_mean_) / standardize_std_;
  }

  /// Inverts `Standardize`.
  double Destandardize(double z) const {
    return z * standardize_std_ + standardize_mean_;
  }

 private:
  size_t embed_dim_;
  bool is_categorical_;
  // Categorical: one row per category.
  std::unique_ptr<Parameter> lookup_;
  // Numeric: z = b_(dxd) * relu(a_(1xd) * x + c_(1xd)) + d_(1xd).
  std::unique_ptr<Parameter> num_a_;
  std::unique_ptr<Parameter> num_c_;
  std::unique_ptr<Parameter> num_b_;
  std::unique_ptr<Parameter> num_d_;
  double standardize_mean_ = 0.0;
  double standardize_std_ = 1.0;
};

/// Shared pool of per-attribute encoders, keyed by attribute position in
/// the schema.
///
/// Algorithm 2 trains sub-models in sequence order and *reuses* the
/// embeddings learned so far when a new sub-model starts; sharing one
/// store across sub-models implements exactly that. The parallel-training
/// optimization of section 7.3.6 instead gives each sub-model a private
/// store.
class EncoderStore {
 public:
  EncoderStore(const Schema& schema, size_t embed_dim, Rng* rng);

  AttributeEncoder* encoder(size_t attr_index) {
    return encoders_[attr_index].get();
  }
  const AttributeEncoder* encoder(size_t attr_index) const {
    return encoders_[attr_index].get();
  }

  size_t embed_dim() const { return embed_dim_; }

  /// Artifact serde over every encoder in schema order (see
  /// AttributeEncoder::ExportTensors/ImportTensors).
  void ExportTensors(std::vector<Tensor>* out) const;
  Status ImportTensors(const std::vector<Tensor>& values, size_t* pos);

 private:
  size_t embed_dim_;
  std::vector<std::unique_ptr<AttributeEncoder>> encoders_;
};

}  // namespace kamino

#endif  // KAMINO_NN_ENCODERS_H_
