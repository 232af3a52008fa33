#include "kamino/nn/dpsgd.h"

#include <algorithm>
#include <cmath>

#include "kamino/runtime/parallel_for.h"

namespace kamino {

void ClipGradients(std::vector<Tensor>* grads, double clip_norm) {
  double squared = 0.0;
  for (const Tensor& g : *grads) squared += g.SquaredL2();
  const double norm = std::sqrt(squared);
  if (norm <= clip_norm || norm == 0.0) return;
  const double scale = clip_norm / norm;
  for (Tensor& g : *grads) g.Scale(scale);
}

void ClipGradients(SparseGradient* grad, double clip_norm) {
  // Per-tensor partial sums, as `Tensor::SquaredL2` forms them: the
  // untouched coordinates would add exact zeros.
  double squared = 0.0;
  for (const SparseGradient::Segment& seg : grad->segments) {
    double s = 0.0;
    for (size_t i = 0; i < seg.length; ++i) {
      const double v = grad->values[seg.start + i];
      s += v * v;
    }
    squared += s;
  }
  const double norm = std::sqrt(squared);
  if (norm <= clip_norm || norm == 0.0) return;
  const double scale = clip_norm / norm;
  for (double& v : grad->values) v *= scale;
}

double TrainDpSgd(DiscriminativeModel* model, const Table& data,
                  const DpSgdOptions& options, Rng* rng) {
  std::vector<Parameter*> params = model->Parameters();
  const size_t n = data.num_rows();
  if (n == 0) return 0.0;
  const double sample_prob =
      std::min(1.0, static_cast<double>(options.batch_size) /
                        static_cast<double>(n));
  double last_loss = 0.0;

  // Per-example gradients are tape-free (`LossGradient`) and sparse. They
  // run in waves of kWaveExamples, each example in its own slot with its
  // own scratch, so peak memory is a constant number of per-example
  // gradients (not one per batch member) and the buffers are reused from
  // wave to wave. Slots go to the runtime pool kGrainExamples at a time:
  // an example costs about as much as a pool dispatch, so finer chunks
  // would spend more on dispatch than they save.
  constexpr size_t kWaveExamples = 32;
  constexpr size_t kGrainExamples = 16;
  struct Slot {
    Row row;
    InferenceScratch scratch;
    SparseGradient grad;
    double loss = 0.0;
  };
  std::vector<Slot> slots(kWaveExamples);
  std::vector<Tensor> grad_sum;
  grad_sum.reserve(params.size());
  for (const Parameter* p : params) {
    grad_sum.emplace_back(p->value.rows(), p->value.cols());
  }
  std::vector<size_t> batch;

  for (size_t iter = 0; iter < options.iterations; ++iter) {
    // Poisson subsampling: the inclusion draws stay on the sequential run
    // RNG (same draw order as a serial loop), producing the batch up
    // front so the per-example work below can fan out.
    batch.clear();
    for (size_t i = 0; i < n; ++i) {
      if (rng->Bernoulli(sample_prob)) batch.push_back(i);
    }

    // Per-example forward/backward/clip is RNG-free and touches only the
    // example's slot — parameters are read, never written, until the
    // update below — so examples parallelize freely. The slot-ordered
    // reduction keeps the floating-point summation in example order, and
    // adding an example's exact zeros would change no sum, so the trained
    // model is bit-identical at any thread count, and to a dense serial
    // loop over the autograd graph.
    for (Tensor& g : grad_sum) g.Zero();
    double loss_sum = 0.0;
    for (size_t wave = 0; wave < batch.size(); wave += kWaveExamples) {
      const size_t wave_end = std::min(batch.size(), wave + kWaveExamples);
      runtime::ParallelForEach(wave, wave_end, kGrainExamples, [&](size_t k) {
        Slot& slot = slots[k - wave];
        data.CopyRowInto(batch[k], &slot.row);
        slot.loss = model->LossGradient(slot.row, &slot.scratch, &slot.grad);
        ClipGradients(&slot.grad, options.clip_norm);
      });
      for (size_t k = wave; k < wave_end; ++k) {
        const Slot& slot = slots[k - wave];
        loss_sum += slot.loss;
        slot.grad.AddTo(&grad_sum);
      }
    }

    // Perturb the clipped gradient sum: sensitivity is exactly clip_norm.
    const double noise_sd = options.noise_multiplier * options.clip_norm;
    if (noise_sd > 0.0) {
      for (Tensor& g : grad_sum) {
        for (double& v : g.data()) v += rng->Gaussian(0.0, noise_sd);
      }
    }
    // Average by the expected batch size (not the realized one), as in
    // Abadi et al.; this keeps the sensitivity analysis exact.
    const double denom = static_cast<double>(options.batch_size);
    for (size_t p = 0; p < params.size(); ++p) {
      params[p]->value.Axpy(-options.learning_rate / denom, grad_sum[p]);
    }
    last_loss =
        !batch.empty() ? loss_sum / static_cast<double>(batch.size())
                       : last_loss;
  }
  return last_loss;
}

}  // namespace kamino
