#include "kamino/nn/discriminative.h"

#include <algorithm>
#include <cmath>

#include "kamino/common/logging.h"

namespace kamino {
namespace {

/// In-place softmax of v[0..n), as autograd's `Softmax` computes one row:
/// max shift, exp, running sum, then divide.
void SoftmaxInPlace(double* v, size_t n) {
  double mx = v[0];
  for (size_t i = 1; i < n; ++i) mx = std::max(mx, v[i]);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::exp(v[i] - mx);
    sum += v[i];
  }
  for (size_t i = 0; i < n; ++i) v[i] /= sum;
}

}  // namespace

DiscriminativeModel::DiscriminativeModel(const Schema& schema,
                                         std::vector<size_t> context,
                                         std::vector<size_t> targets,
                                         EncoderStore* store, Rng* rng)
    : schema_(&schema),
      context_(std::move(context)),
      targets_(std::move(targets)),
      store_(store) {
  KAMINO_CHECK(!context_.empty()) << "discriminative model needs context";
  KAMINO_CHECK(!targets_.empty()) << "discriminative model needs a target";
  if (targets_.size() == 1 && schema.attribute(targets_[0]).is_numeric()) {
    target_is_categorical_ = false;
  } else {
    target_is_categorical_ = true;
    out_dim_categorical_ = 1;
    for (size_t t : targets_) {
      KAMINO_CHECK(schema.attribute(t).is_categorical())
          << "joint targets must all be categorical";
      const size_t size = schema.attribute(t).categories().size();
      radix_.push_back(size);
      out_dim_categorical_ *= size;
    }
  }
  const size_t d = store->embed_dim();
  const size_t out_dim = target_is_categorical_ ? out_dim_categorical_ : 2;
  const double init_sd = 1.0 / std::sqrt(static_cast<double>(d));
  query_ = std::make_unique<Parameter>(Tensor::Randn(1, d, init_sd, rng));
  w1_ = std::make_unique<Parameter>(Tensor::Randn(d, d, init_sd, rng));
  b1_ = std::make_unique<Parameter>(Tensor(1, d));
  w2_ = std::make_unique<Parameter>(Tensor::Randn(d, out_dim, init_sd, rng));
  b2_ = std::make_unique<Parameter>(Tensor(1, out_dim));
}

Result<std::unique_ptr<DiscriminativeModel>> DiscriminativeModel::Create(
    const Schema& schema, std::vector<size_t> context,
    std::vector<size_t> targets, EncoderStore* store, Rng* rng) {
  if (context.empty()) {
    return Status::InvalidArgument("discriminative model needs context");
  }
  if (targets.empty()) {
    return Status::InvalidArgument("discriminative model needs a target");
  }
  for (size_t a : context) {
    if (a >= schema.size()) {
      return Status::InvalidArgument("context attribute index " +
                                     std::to_string(a) +
                                     " out of range for schema arity " +
                                     std::to_string(schema.size()));
    }
  }
  for (size_t t : targets) {
    if (t >= schema.size()) {
      return Status::InvalidArgument("target attribute index " +
                                     std::to_string(t) +
                                     " out of range for schema arity " +
                                     std::to_string(schema.size()));
    }
  }
  const bool numeric_single =
      targets.size() == 1 && schema.attribute(targets[0]).is_numeric();
  if (!numeric_single) {
    for (size_t t : targets) {
      if (!schema.attribute(t).is_categorical()) {
        return Status::InvalidArgument(
            "joint targets must all be categorical");
      }
    }
  }
  return std::make_unique<DiscriminativeModel>(
      schema, std::move(context), std::move(targets), store, rng);
}

void DiscriminativeModel::ExportHeadTensors(std::vector<Tensor>* out) const {
  out->push_back(query_->value);
  out->push_back(w1_->value);
  out->push_back(b1_->value);
  out->push_back(w2_->value);
  out->push_back(b2_->value);
}

Status DiscriminativeModel::ImportHeadTensors(const std::vector<Tensor>& values,
                                              size_t* pos) {
  Parameter* const head[] = {query_.get(), w1_.get(), b1_.get(), w2_.get(),
                             b2_.get()};
  constexpr size_t kHeadCount = sizeof(head) / sizeof(head[0]);
  if (*pos > values.size() || values.size() - *pos < kHeadCount) {
    return Status::InvalidArgument("head tensor list exhausted");
  }
  for (size_t i = 0; i < kHeadCount; ++i) {
    const Tensor& v = values[*pos + i];
    const Tensor& have = head[i]->value;
    if (v.rows() != have.rows() || v.cols() != have.cols()) {
      return Status::InvalidArgument(
          "head tensor " + std::to_string(i) + " shape " +
          std::to_string(v.rows()) + "x" + std::to_string(v.cols()) +
          " != expected " + std::to_string(have.rows()) + "x" +
          std::to_string(have.cols()));
    }
  }
  for (size_t i = 0; i < kHeadCount; ++i) head[i]->value = values[*pos + i];
  *pos += kHeadCount;
  return Status::OK();
}

size_t DiscriminativeModel::JointIndex(const Row& row) const {
  KAMINO_CHECK(target_is_categorical_) << "numeric target has no joint index";
  size_t index = 0;
  for (size_t i = 0; i < targets_.size(); ++i) {
    index = index * radix_[i] + static_cast<size_t>(row[targets_[i]].category());
  }
  return index;
}

Var DiscriminativeModel::Output(const Row& row, ForwardContext* ctx) const {
  std::vector<Var> embeddings;
  embeddings.reserve(context_.size());
  for (size_t attr : context_) {
    embeddings.push_back(store_->encoder(attr)->Encode(row[attr], ctx));
  }
  Var keys = ConcatRows(embeddings);                      // m x d
  Var q = ctx->Bind(query_.get());                        // 1 x d
  Var scores = MatMul(q, Transpose(keys));                // 1 x m
  Var alpha = Softmax(scores);                            // 1 x m
  Var context_vec = MatMul(alpha, keys);                  // 1 x d
  Var w1 = ctx->Bind(w1_.get());
  Var b1 = ctx->Bind(b1_.get());
  Var h = Relu(Add(MatMul(context_vec, w1), b1));         // 1 x d
  Var w2 = ctx->Bind(w2_.get());
  Var b2 = ctx->Bind(b2_.get());
  return Add(MatMul(h, w2), b2);
}

Var DiscriminativeModel::Loss(const Row& row, ForwardContext* ctx) const {
  Var out = Output(row, ctx);
  if (target_is_categorical_) {
    return CrossEntropyWithLogits(out, JointIndex(row));
  }
  const AttributeEncoder* enc = store_->encoder(targets_[0]);
  return GaussianNll(out, enc->Standardize(row[targets_[0]].numeric()));
}

void DiscriminativeModel::ForwardInto(const Row& row, double* keys,
                                      double* hidden, size_t hidden_stride,
                                      double* alpha, double* context_vec,
                                      double* h, double* out) const {
  const size_t m = context_.size();
  const size_t d = store_->embed_dim();
  for (size_t i = 0; i < m; ++i) {
    store_->encoder(context_[i])
        ->EncodeInto(row[context_[i]], hidden + i * hidden_stride,
                     keys + i * d);
  }
  // scores = q keys^T, accumulated as MatMul(q, Transpose(keys)).
  const Tensor& q = query_->value;
  for (size_t j = 0; j < d; ++j) {
    const double qj = q[j];
    if (qj == 0.0) continue;
    for (size_t l = 0; l < m; ++l) alpha[l] += qj * keys[l * d + j];
  }
  SoftmaxInPlace(alpha, m);
  RowTimesMatrix(alpha, m, keys, d, context_vec);
  RowTimesMatrix(context_vec, d, w1_->value.data().data(), d, h);
  const Tensor& b1 = b1_->value;
  for (size_t l = 0; l < d; ++l) h[l] = std::max(0.0, h[l] + b1[l]);
  const Tensor& w2 = w2_->value;
  RowTimesMatrix(h, d, w2.data().data(), w2.cols(), out);
  const Tensor& b2 = b2_->value;
  for (size_t l = 0; l < w2.cols(); ++l) out[l] += b2[l];
}

void DiscriminativeModel::Forward(const Row& row, InferenceScratch* scratch,
                                  double* out) const {
  const size_t m = context_.size();
  const size_t d = store_->embed_dim();
  // Zeroed in full: `scores` accumulates into its slots.
  std::vector<double>& buffer = scratch->buffer;
  buffer.assign(m * d + m + 3 * d, 0.0);
  double* keys = buffer.data();       // m x d
  double* scores = keys + m * d;      // 1 x m, then alpha
  double* context_vec = scores + m;   // 1 x d
  double* h = context_vec + d;        // 1 x d
  double* hidden = h + d;             // 1 x d, numeric encoder hidden layer
  ForwardInto(row, keys, hidden, 0, scores, context_vec, h, out);
}

double DiscriminativeModel::LossGradient(const Row& row,
                                         InferenceScratch* scratch,
                                         SparseGradient* grad) const {
  const size_t m = context_.size();
  const size_t d = store_->embed_dim();
  const Tensor& w2 = w2_->value;
  const size_t v = w2.cols();

  // Segments in `Parameters()` order: the context encoders, then the head.
  grad->segments.clear();
  size_t start = 0;
  size_t param = 0;
  for (size_t i = 0; i < m; ++i) {
    store_->encoder(context_[i])
        ->AppendGradientSegments(row[context_[i]], &param, &start, grad);
  }
  const size_t head = start;
  auto append = [&](size_t length) {
    grad->segments.push_back({param++, 0, start, length});
    start += length;
  };
  append(d);      // query
  append(d * d);  // w1
  append(d);      // b1
  append(d * v);  // w2
  append(v);      // b2
  // Zeroed: like the graph's gradients, every value below accumulates.
  grad->values.assign(start, 0.0);
  double* values = grad->values.data();
  double* grad_query = values + head;
  double* grad_w1 = grad_query + d;
  double* grad_b1 = grad_w1 + d * d;
  double* grad_w2 = grad_b1 + d;
  double* grad_b2 = grad_w2 + d * v;

  std::vector<double>& buffer = scratch->buffer;
  buffer.assign(3 * m * d + 3 * m + 5 * d + v, 0.0);
  double* keys = buffer.data();                // m x d
  double* grad_keys = keys + m * d;            // m x d
  double* hidden = grad_keys + m * d;          // m x d, numeric encoders
  double* alpha = hidden + m * d;              // m
  double* grad_alpha = alpha + m;              // m
  double* grad_scores = grad_alpha + m;        // m
  double* context_vec = grad_scores + m;       // d
  double* h = context_vec + d;                 // d
  double* grad_h = h + d;                      // d
  double* grad_context = grad_h + d;           // d
  double* encoder_scratch = grad_context + d;  // d
  double* out = encoder_scratch + d;           // v
  ForwardInto(row, keys, hidden, d, alpha, context_vec, h, out);

  // The loss, and its gradient with respect to `out`: `Backward` seeds
  // the root with 1, and Add(h W2, b2) hands b2 the output's gradient
  // unchanged, so b2's gradient is where d(out) lives.
  const double g = 1.0;
  double loss;
  if (target_is_categorical_) {
    // CrossEntropyWithLogits.
    const size_t target = JointIndex(row);
    KAMINO_CHECK(target < v) << "target out of range";
    double mx = out[0];
    for (size_t i = 1; i < v; ++i) mx = std::max(mx, out[i]);
    double sum = 0.0;
    for (size_t i = 0; i < v; ++i) sum += std::exp(out[i] - mx);
    const double lse = mx + std::log(sum);
    loss = lse - out[target];
    for (size_t i = 0; i < v; ++i) {
      const double softmax_i = std::exp(out[i] - mx) / sum;
      const double indicator = i == target ? 1.0 : 0.0;
      grad_b2[i] += g * (softmax_i - indicator);
    }
  } else {
    // GaussianNll: sigma = softplus(s) + 1e-3.
    const double y =
        store_->encoder(targets_[0])->Standardize(row[targets_[0]].numeric());
    const double mu = out[0];
    const double s = out[1];
    const double sigma = (s > 30.0 ? s : std::log1p(std::exp(s))) + 1e-3;
    const double z = (y - mu) / sigma;
    loss = 0.5 * z * z + std::log(sigma);
    const double diff = mu - y;
    grad_b2[0] += g * diff / (sigma * sigma);
    const double dl_dsigma =
        -(diff * diff) / (sigma * sigma * sigma) + 1.0 / sigma;
    grad_b2[1] += g * dl_dsigma * (1.0 / (1.0 + std::exp(-s)));
  }

  // The graph's backward, node by node in `Backward`'s order. Each MatMul
  // (a x b) sends a's gradient first (row sums over b), then b's.
  // MatMul(h, W2).
  const double* grad_out = grad_b2;
  const double* w2_data = w2.data().data();
  for (size_t j = 0; j < d; ++j) {
    double s = 0.0;
    for (size_t l = 0; l < v; ++l) s += grad_out[l] * w2_data[j * v + l];
    grad_h[j] += s;
  }
  for (size_t j = 0; j < d; ++j) {
    for (size_t l = 0; l < v; ++l) grad_w2[j * v + l] += h[j] * grad_out[l];
  }
  // Relu, then Add(context_vec W1, b1): b1's gradient is the pre-ReLU one.
  for (size_t j = 0; j < d; ++j) {
    if (h[j] > 0.0) grad_b1[j] += grad_h[j];
  }
  // MatMul(context_vec, W1).
  const double* grad_pre = grad_b1;
  const double* w1 = w1_->value.data().data();
  for (size_t j = 0; j < d; ++j) {
    double s = 0.0;
    for (size_t l = 0; l < d; ++l) s += grad_pre[l] * w1[j * d + l];
    grad_context[j] += s;
  }
  for (size_t j = 0; j < d; ++j) {
    for (size_t l = 0; l < d; ++l) {
      grad_w1[j * d + l] += context_vec[j] * grad_pre[l];
    }
  }
  // MatMul(alpha, keys): keys' first gradient contribution.
  for (size_t j = 0; j < m; ++j) {
    double s = 0.0;
    for (size_t l = 0; l < d; ++l) s += grad_context[l] * keys[j * d + l];
    grad_alpha[j] += s;
  }
  for (size_t j = 0; j < m; ++j) {
    for (size_t l = 0; l < d; ++l) {
      grad_keys[j * d + l] += alpha[j] * grad_context[l];
    }
  }
  // Softmax.
  double dot = 0.0;
  for (size_t c = 0; c < m; ++c) dot += grad_alpha[c] * alpha[c];
  for (size_t c = 0; c < m; ++c) {
    grad_scores[c] += alpha[c] * (grad_alpha[c] - dot);
  }
  // MatMul(q, Transpose(keys)): keys' second contribution, transposed.
  const double* q = query_->value.data().data();
  for (size_t j = 0; j < d; ++j) {
    double s = 0.0;
    for (size_t l = 0; l < m; ++l) s += grad_scores[l] * keys[l * d + j];
    grad_query[j] += s;
  }
  for (size_t l = 0; l < m; ++l) {
    for (size_t j = 0; j < d; ++j) {
      grad_keys[l * d + j] += q[j] * grad_scores[l];
    }
  }
  // ConcatRows hands each context encoder its row of d(keys).
  double* grad_encoder = values;
  for (size_t i = 0; i < m; ++i) {
    const AttributeEncoder* enc = store_->encoder(context_[i]);
    enc->BackwardInto(row[context_[i]], hidden + i * d, grad_keys + i * d,
                      encoder_scratch, grad_encoder);
    grad_encoder += enc->GradientSize();
  }
  return loss;
}

std::vector<double> DiscriminativeModel::PredictCategorical(
    const Row& row) const {
  InferenceScratch scratch;
  std::vector<double> probs;
  PredictCategorical(row, &scratch, &probs);
  return probs;
}

void DiscriminativeModel::PredictCategorical(const Row& row,
                                             InferenceScratch* scratch,
                                             std::vector<double>* probs) const {
  KAMINO_CHECK(target_is_categorical_) << "target is numeric";
  probs->resize(w2_->value.cols());
  Forward(row, scratch, probs->data());
  SoftmaxInPlace(probs->data(), probs->size());
}

std::pair<double, double> DiscriminativeModel::PredictGaussian(
    const Row& row) const {
  InferenceScratch scratch;
  return PredictGaussian(row, &scratch);
}

std::pair<double, double> DiscriminativeModel::PredictGaussian(
    const Row& row, InferenceScratch* scratch) const {
  KAMINO_CHECK(!target_is_categorical_) << "target is categorical";
  double out[2] = {0.0, 0.0};
  Forward(row, scratch, out);
  const double mu = out[0];
  const double s = out[1];
  const double sigma = (s > 30.0 ? s : std::log1p(std::exp(s))) + 1e-3;
  const AttributeEncoder* enc = store_->encoder(targets_[0]);
  // Destandardize: shift/scale the mean, scale the stddev.
  const double mean = enc->Destandardize(mu);
  const double stddev =
      sigma * (enc->Destandardize(1.0) - enc->Destandardize(0.0));
  return {mean, std::abs(stddev)};
}

std::vector<Parameter*> DiscriminativeModel::Parameters() {
  std::vector<Parameter*> params;
  for (size_t attr : context_) {
    for (Parameter* p : store_->encoder(attr)->Parameters()) {
      params.push_back(p);
    }
  }
  params.push_back(query_.get());
  params.push_back(w1_.get());
  params.push_back(b1_.get());
  params.push_back(w2_.get());
  params.push_back(b2_.get());
  return params;
}

}  // namespace kamino
