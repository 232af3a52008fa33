#ifndef KAMINO_NN_DPSGD_H_
#define KAMINO_NN_DPSGD_H_

#include <functional>
#include <vector>

#include "kamino/common/rng.h"
#include "kamino/data/table.h"
#include "kamino/nn/discriminative.h"
#include "kamino/nn/module.h"

namespace kamino {

/// Hyper-parameters of one DP-SGD training run (Algorithm 2's Psi subset).
struct DpSgdOptions {
  /// L2 clipping bound C for per-example gradients.
  double clip_norm = 1.0;
  /// Gaussian noise multiplier sigma_d; the per-coordinate noise stddev is
  /// sigma_d * C. Set to 0 for non-private SGD (the epsilon = inf runs).
  double noise_multiplier = 1.1;
  /// Expected batch size b; examples are included i.i.d. w.p. b/n
  /// (Poisson subsampling, matching the RDP accounting).
  size_t batch_size = 16;
  /// Number of iterations T.
  size_t iterations = 100;
  /// Learning rate eta.
  double learning_rate = 0.05;
};

/// Differentially private SGD (Abadi et al. 2016), as used by Algorithm 2:
/// at each iteration draws a Poisson subsample of `data`, computes the
/// per-example gradient of `model`'s loss, clips each example's gradient
/// to L2 norm `clip_norm`, sums, perturbs with Gaussian noise of stddev
/// `noise_multiplier * clip_norm`, averages by the *expected* batch size
/// and takes an SGD step.
///
/// The per-example path builds no autograd tape: each example's gradient
/// comes from `DiscriminativeModel::LossGradient`, which runs the
/// training graph's forward and backward by hand, and is stored sparsely
/// (the example's context categories' embedding rows, its numeric context
/// encoders and the head), clipped with `ClipGradients`' per-tensor
/// grouping of the squared norm and added to the batch sum on the touched
/// coordinates only. Per-example gradients are computed in parallel on
/// the global runtime pool (see kamino/runtime/): the Poisson inclusion
/// draws and the dense per-coordinate noise stay on the sequential `rng`,
/// and the clipped gradients reduce in example order, so the trained
/// model is bit-identical at any thread count, and to a serial loop of
/// `Loss`, `Backward`, `ForwardContext::AccumulateInto` and
/// `ClipGradients` over dense gradients.
///
/// Returns the average (unnoised) training loss of the final iteration,
/// for diagnostics only — callers must not release it.
double TrainDpSgd(DiscriminativeModel* model, const Table& data,
                  const DpSgdOptions& options, Rng* rng);

/// Clips `grads` (one tensor per parameter, jointly treated as a single
/// vector) to L2 norm at most `clip_norm`, in place. The squared norm is
/// summed per tensor, then across tensors in order.
void ClipGradients(std::vector<Tensor>* grads, double clip_norm);

/// `ClipGradients` of a sparse gradient: per segment, then across
/// segments in order, so it scales by the same factor as the dense form
/// of `grad` would be.
void ClipGradients(SparseGradient* grad, double clip_norm);

}  // namespace kamino

#endif  // KAMINO_NN_DPSGD_H_
