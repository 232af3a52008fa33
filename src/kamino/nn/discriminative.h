#ifndef KAMINO_NN_DISCRIMINATIVE_H_
#define KAMINO_NN_DISCRIMINATIVE_H_

#include <memory>
#include <utility>
#include <vector>

#include "kamino/data/table.h"
#include "kamino/nn/encoders.h"
#include "kamino/nn/module.h"

namespace kamino {

/// Working memory of tape-free forward (and backward) passes: one buffer,
/// regrown to the largest pass it served and zeroed per use, so a caller
/// that predicts or differentiates row after row (from any mix of models)
/// allocates nothing once it has grown. Belongs to one thread at a time.
struct InferenceScratch {
  std::vector<double> buffer;
};

/// The AimNet-style sub-model M_{X,y} (section 2.3 / 4.1): predicts the
/// target attribute(s) from the context attributes X = S_{:j}.
///
/// Architecture per example:
///   e_i     = encode(context value i)                       (1 x d each)
///   E       = stack(e_1..e_m)                               (m x d)
///   alpha   = softmax(q E^T)                                (attention, 1 x m)
///   ctx_vec = alpha E                                       (1 x d)
///   h       = relu(ctx_vec W1 + b1)                         (1 x d)
///   out     = h W2 + b2     (logits, or 1 x 2 (mu, s))
///
/// `Loss` builds this as an autograd graph. Nothing in the library trains
/// or predicts through that graph: inference (`PredictCategorical` /
/// `PredictGaussian`) and DP-SGD's per-example gradients (`LossGradient`)
/// compute the same forward pass straight from the live parameter tensors
/// into scratch buffers, and `LossGradient` runs the graph's backward by
/// hand over the kept intermediates. Both use the graph's floating-point
/// operations in the graph's order, so their results are bit-identical to
/// the graph's and never read a stale weight copy. `Loss` stays as their
/// test oracle.
///
/// Targets come in two flavors:
///  - one numeric attribute: a Gaussian regression head (mu, sigma) trained
///    with negative log-likelihood on standardized values;
///  - one or more categorical attributes: a softmax-cross-entropy head over
///    the *joint* domain (the product of the member domains). A multi-
///    attribute target is the hyper-attribute grouping of section 4.3.
class DiscriminativeModel {
 public:
  /// `store` supplies (and shares) the per-attribute encoders; it must
  /// outlive the model. `context` must be non-empty. `targets` is a single
  /// attribute, or several *categorical* attributes to predict jointly.
  DiscriminativeModel(const Schema& schema, std::vector<size_t> context,
                      std::vector<size_t> targets, EncoderStore* store,
                      Rng* rng);

  /// Validating factory for deserialization paths: returns InvalidArgument
  /// (instead of the constructor's KAMINO_CHECK abort) for an empty
  /// context, empty targets, out-of-range indices, or a multi-attribute
  /// target containing a numeric attribute.
  static Result<std::unique_ptr<DiscriminativeModel>> Create(
      const Schema& schema, std::vector<size_t> context,
      std::vector<size_t> targets, EncoderStore* store, Rng* rng);

  /// Builds the per-example loss graph. The returned Var is the scalar
  /// loss; `ctx` records the parameter bindings for gradient extraction.
  Var Loss(const Row& row, ForwardContext* ctx) const;

  /// Tape-free `Loss` + `Backward`: returns `row`'s loss and writes its
  /// gradient with respect to `Parameters()` to `grad`, sparsely. An
  /// example touches only its context categories' embedding rows, its
  /// numeric context encoders and the head, so those are the segments.
  /// Each value equals, bit for bit, the coordinate that
  /// `ForwardContext::AccumulateInto` collects after `Backward(Loss(row))`.
  /// `scratch` holds the forward pass's intermediates. Reentrant.
  double LossGradient(const Row& row, InferenceScratch* scratch,
                      SparseGradient* grad) const;

  /// Conditional distribution over the (joint) categorical target domain
  /// given the row's context attributes. Requires a categorical target.
  /// Tape-free and reentrant: one model may predict from many threads.
  std::vector<double> PredictCategorical(const Row& row) const;

  /// `PredictCategorical` into `probs` (resized to the joint domain size),
  /// with `scratch` as the forward pass's working memory: bit-identical,
  /// and allocation-free once both buffers have grown.
  void PredictCategorical(const Row& row, InferenceScratch* scratch,
                          std::vector<double>* probs) const;

  /// Gaussian (mean, stddev) for a numeric target in the original value
  /// space. Requires a numeric target. Tape-free and reentrant.
  std::pair<double, double> PredictGaussian(const Row& row) const;

  /// `PredictGaussian` with `scratch` as the forward pass's working
  /// memory: bit-identical, and allocation-free once it has grown.
  std::pair<double, double> PredictGaussian(const Row& row,
                                            InferenceScratch* scratch) const;

  /// Every trainable parameter: shared context encoders plus the
  /// model-private attention query and head weights.
  std::vector<Parameter*> Parameters();

  /// Index of `row`'s target values in the joint categorical domain:
  /// row-major over the targets, the first target most significant (the
  /// coding `ModelUnit::DecodeJointIndex` inverts).
  size_t JointIndex(const Row& row) const;

  const std::vector<size_t>& context() const { return context_; }
  const std::vector<size_t>& targets() const { return targets_; }
  bool target_is_categorical() const { return target_is_categorical_; }
  size_t joint_domain_size() const { return out_dim_categorical_; }

  /// Artifact serde for the model-private head only (the context encoders
  /// are serialized with their store): query, w1, b1, w2, b2 in that
  /// order. `ImportHeadTensors` consumes from `values` at `*pos` and fails
  /// with InvalidArgument on shape mismatch, leaving the head unmodified.
  void ExportHeadTensors(std::vector<Tensor>* out) const;
  Status ImportHeadTensors(const std::vector<Tensor>& values, size_t* pos);

 private:
  /// The head output as a training graph (for `Loss`).
  Var Output(const Row& row, ForwardContext* ctx) const;

  /// The head output without a graph: writes w2's column count of values
  /// (logits, or (mu, s)) to `out`, op for op as `Output` computes them,
  /// with `scratch` (zeroed here) as working memory.
  void Forward(const Row& row, InferenceScratch* scratch, double* out) const;

  /// The forward pass of `Forward` into caller buffers, keeping what the
  /// backward needs: `keys` (m x d), context i's numeric-encoder hidden
  /// layer at `hidden + i * hidden_stride` (d values; a stride of 0 shares
  /// one buffer), `alpha` (m, zeroed on entry), the context vector and the
  /// post-ReLU hidden layer `h` (d each) and the head output `out`.
  void ForwardInto(const Row& row, double* keys, double* hidden,
                   size_t hidden_stride, double* alpha, double* context_vec,
                   double* h, double* out) const;

  const Schema* schema_;
  std::vector<size_t> context_;
  std::vector<size_t> targets_;
  bool target_is_categorical_;
  size_t out_dim_categorical_ = 0;
  std::vector<size_t> radix_;  // per-target domain sizes, for joint coding
  EncoderStore* store_;

  std::unique_ptr<Parameter> query_;   // 1 x d attention query
  std::unique_ptr<Parameter> w1_;      // d x d
  std::unique_ptr<Parameter> b1_;      // 1 x d
  std::unique_ptr<Parameter> w2_;      // d x out_dim
  std::unique_ptr<Parameter> b2_;      // 1 x out_dim
};

}  // namespace kamino

#endif  // KAMINO_NN_DISCRIMINATIVE_H_
