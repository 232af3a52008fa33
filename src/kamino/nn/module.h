#ifndef KAMINO_NN_MODULE_H_
#define KAMINO_NN_MODULE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "kamino/autograd/ops.h"
#include "kamino/autograd/tensor.h"

namespace kamino {

/// A trainable tensor. Layers own Parameters; optimizers mutate `value`.
struct Parameter {
  Tensor value;

  explicit Parameter(Tensor v) : value(std::move(v)) {}
};

/// Per-forward bookkeeping that ties graph leaves back to the Parameters
/// they were created from.
///
/// Graphs are rebuilt per example (define-by-run); `Bind` snapshots a
/// parameter into a leaf `Var`, and after `Backward` the caller collects
/// d(loss)/d(parameter) for exactly the parameters this forward touched.
class ForwardContext {
 public:
  /// Creates (or reuses, if this parameter was already bound in this
  /// forward) a differentiable leaf holding the parameter's current value.
  Var Bind(Parameter* param) {
    for (auto& [p, var] : bindings_) {
      if (p == param) return var;
    }
    Var var = MakeLeaf(param->value);
    bindings_.emplace_back(param, var);
    return var;
  }

  /// Adds each bound leaf's gradient into the matching slot of `sink`,
  /// where `sink[i]` accumulates the gradient of `params[i]`. Parameters
  /// not bound in this forward contribute nothing.
  void AccumulateInto(const std::vector<Parameter*>& params,
                      std::vector<Tensor>* sink) const {
    for (const auto& [param, var] : bindings_) {
      for (size_t i = 0; i < params.size(); ++i) {
        if (params[i] == param) {
          (*sink)[i].Add(var->grad);
          break;
        }
      }
    }
  }

  const std::vector<std::pair<Parameter*, Var>>& bindings() const {
    return bindings_;
  }

 private:
  std::vector<std::pair<Parameter*, Var>> bindings_;
};

/// out[0..p) = x[0..k) * w for a row-major k x p matrix `w`, without a
/// tape. Accumulates exactly as autograd's `MatMul` does: from 0.0, over
/// x's entries in order, skipping those equal to 0.0. Tape-free inference
/// relies on that order to match the training graph bit for bit.
inline void RowTimesMatrix(const double* x, size_t k, const double* w,
                           size_t p, double* out) {
  std::fill(out, out + p, 0.0);
  for (size_t j = 0; j < k; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const double* w_row = w + j * p;
    for (size_t l = 0; l < p; ++l) out[l] += xj * w_row[l];
  }
}

/// A gradient over a parameter list that stores only the coordinates one
/// example touches. Segment `s` holds the values
/// `values[s.start, s.start + s.length)` of the coordinates
/// `[s.offset, s.offset + s.length)` (row-major) of parameter `s.param`.
/// Segments come in parameter order, at most one per parameter, and every
/// coordinate outside them is exactly zero. So a dense consumer that skips
/// the zeros (a sum, a squared norm) sees the same values in the same
/// order.
struct SparseGradient {
  struct Segment {
    size_t param = 0;
    size_t offset = 0;
    size_t start = 0;
    size_t length = 0;
  };
  std::vector<Segment> segments;
  std::vector<double> values;

  /// dense[s.param][s.offset + i] += values[s.start + i] for every segment:
  /// `Tensor::Add` of the dense gradient, on the touched coordinates only.
  void AddTo(std::vector<Tensor>* dense) const {
    for (const Segment& s : segments) {
      double* out = (*dense)[s.param].data().data() + s.offset;
      const double* in = values.data() + s.start;
      for (size_t i = 0; i < s.length; ++i) out[i] += in[i];
    }
  }
};

/// Allocates zero tensors shaped like each parameter, for gradient
/// accumulation.
inline std::vector<Tensor> ZeroGradients(
    const std::vector<Parameter*>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const Parameter* p : params) {
    out.emplace_back(p->value.rows(), p->value.cols());
  }
  return out;
}

}  // namespace kamino

#endif  // KAMINO_NN_MODULE_H_
