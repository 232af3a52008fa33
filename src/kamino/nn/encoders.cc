#include "kamino/nn/encoders.h"

#include <algorithm>
#include <cmath>

#include "kamino/common/logging.h"

namespace kamino {

AttributeEncoder::AttributeEncoder(const Attribute& attr, size_t embed_dim,
                                   Rng* rng)
    : embed_dim_(embed_dim), is_categorical_(attr.is_categorical()) {
  const double init_sd = 1.0 / std::sqrt(static_cast<double>(embed_dim));
  if (is_categorical_) {
    lookup_ = std::make_unique<Parameter>(
        Tensor::Randn(attr.categories().size(), embed_dim, init_sd, rng));
  } else {
    num_a_ = std::make_unique<Parameter>(Tensor::Randn(1, embed_dim, 1.0, rng));
    num_c_ = std::make_unique<Parameter>(
        Tensor::Randn(1, embed_dim, init_sd, rng));
    num_b_ = std::make_unique<Parameter>(
        Tensor::Randn(embed_dim, embed_dim, init_sd, rng));
    num_d_ = std::make_unique<Parameter>(
        Tensor::Randn(1, embed_dim, init_sd, rng));
    // Standardize with public domain statistics: the midpoint and the
    // uniform-on-[min,max] standard deviation. Using the true data's
    // moments here would leak, so Kamino never does.
    standardize_mean_ = 0.5 * (attr.min_value() + attr.max_value());
    standardize_std_ =
        (attr.max_value() - attr.min_value()) / std::sqrt(12.0);
    if (standardize_std_ <= 0.0) standardize_std_ = 1.0;
  }
}

Var AttributeEncoder::Encode(const Value& v, ForwardContext* ctx) const {
  if (is_categorical_) {
    KAMINO_CHECK(v.is_categorical()) << "categorical encoder got numeric";
    Var table = ctx->Bind(lookup_.get());
    return SelectRow(table, static_cast<size_t>(v.category()));
  }
  KAMINO_CHECK(v.is_numeric()) << "numeric encoder got categorical";
  const double x = Standardize(v.numeric());
  Var a = ctx->Bind(num_a_.get());
  Var c = ctx->Bind(num_c_.get());
  Var b = ctx->Bind(num_b_.get());
  Var d = ctx->Bind(num_d_.get());
  Var hidden = Relu(Add(Scale(a, x), c));          // 1 x d
  return Add(MatMul(hidden, b), d);                // 1 x d
}

void AttributeEncoder::EncodeInto(const Value& v, double* scratch,
                                  double* out) const {
  const size_t d = embed_dim_;
  if (is_categorical_) {
    KAMINO_CHECK(v.is_categorical()) << "categorical encoder got numeric";
    const size_t index = static_cast<size_t>(v.category());
    KAMINO_CHECK(index < lookup_->value.rows()) << "SelectRow out of range";
    const double* table_row = lookup_->value.data().data() + index * d;
    std::copy(table_row, table_row + d, out);
    return;
  }
  KAMINO_CHECK(v.is_numeric()) << "numeric encoder got categorical";
  const double x = Standardize(v.numeric());
  const Tensor& a = num_a_->value;
  const Tensor& c = num_c_->value;
  // hidden = relu((a * x) + c): Scale, then Add, then Relu.
  for (size_t i = 0; i < d; ++i) {
    const double ax = a[i] * x;
    scratch[i] = std::max(0.0, ax + c[i]);
  }
  RowTimesMatrix(scratch, d, num_b_->value.data().data(), d, out);
  const Tensor& bias = num_d_->value;
  for (size_t i = 0; i < d; ++i) out[i] += bias[i];
}

void AttributeEncoder::AppendGradientSegments(const Value& v, size_t* param,
                                              size_t* start,
                                              SparseGradient* grad) const {
  const size_t d = embed_dim_;
  auto append = [&](size_t offset, size_t length) {
    grad->segments.push_back({(*param)++, offset, *start, length});
    *start += length;
  };
  if (is_categorical_) {
    const size_t index = static_cast<size_t>(v.category());
    KAMINO_CHECK(index < lookup_->value.rows()) << "SelectRow out of range";
    append(index * d, d);
    return;
  }
  append(0, d);      // a
  append(0, d);      // c
  append(0, d * d);  // B
  append(0, d);      // bias
}

void AttributeEncoder::BackwardInto(const Value& v, const double* hidden,
                                    const double* grad_out, double* scratch,
                                    double* grad) const {
  const size_t d = embed_dim_;
  if (is_categorical_) {
    // SelectRow: the embedding's gradient lands on its table row.
    for (size_t l = 0; l < d; ++l) grad[l] += grad_out[l];
    return;
  }
  double* grad_a = grad;
  double* grad_c = grad_a + d;
  double* grad_b = grad_c + d;
  double* grad_bias = grad_b + d * d;
  const double* b = num_b_->value.data().data();
  // Add(hidden B, bias): both sides get the embedding's gradient.
  for (size_t l = 0; l < d; ++l) grad_bias[l] += grad_out[l];
  // MatMul(hidden, B): d(hidden) = d(out) B^T, then d(B) = hidden^T d(out).
  std::fill(scratch, scratch + d, 0.0);
  for (size_t j = 0; j < d; ++j) {
    double s = 0.0;
    for (size_t l = 0; l < d; ++l) s += grad_out[l] * b[j * d + l];
    scratch[j] += s;
  }
  for (size_t j = 0; j < d; ++j) {
    for (size_t l = 0; l < d; ++l) grad_b[j * d + l] += hidden[j] * grad_out[l];
  }
  // Relu, then Add(a * x, c): c's gradient is the pre-ReLU one.
  for (size_t j = 0; j < d; ++j) {
    if (hidden[j] > 0.0) grad_c[j] += scratch[j];
  }
  // Scale(a, x).
  const double x = Standardize(v.numeric());
  for (size_t j = 0; j < d; ++j) grad_a[j] += x * grad_c[j];
}

std::vector<Parameter*> AttributeEncoder::Parameters() {
  if (is_categorical_) return {lookup_.get()};
  return {num_a_.get(), num_c_.get(), num_b_.get(), num_d_.get()};
}

void AttributeEncoder::CopyFrom(const AttributeEncoder& other) {
  KAMINO_CHECK(is_categorical_ == other.is_categorical_ &&
               embed_dim_ == other.embed_dim_)
      << "encoder shape mismatch in CopyFrom";
  if (is_categorical_) {
    lookup_->value = other.lookup_->value;
  } else {
    num_a_->value = other.num_a_->value;
    num_c_->value = other.num_c_->value;
    num_b_->value = other.num_b_->value;
    num_d_->value = other.num_d_->value;
  }
}

void AttributeEncoder::ExportTensors(std::vector<Tensor>* out) const {
  if (is_categorical_) {
    out->push_back(lookup_->value);
    return;
  }
  out->push_back(num_a_->value);
  out->push_back(num_c_->value);
  out->push_back(num_b_->value);
  out->push_back(num_d_->value);
}

Status AttributeEncoder::ImportTensors(const std::vector<Tensor>& values,
                                       size_t* pos) {
  std::vector<Parameter*> params = Parameters();
  if (*pos > values.size() || values.size() - *pos < params.size()) {
    return Status::InvalidArgument("encoder tensor list exhausted");
  }
  // Validate every shape before assigning anything, so a mismatch leaves
  // the encoder untouched.
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& v = values[*pos + i];
    const Tensor& have = params[i]->value;
    if (v.rows() != have.rows() || v.cols() != have.cols()) {
      return Status::InvalidArgument(
          "encoder tensor " + std::to_string(i) + " shape " +
          std::to_string(v.rows()) + "x" + std::to_string(v.cols()) +
          " != expected " + std::to_string(have.rows()) + "x" +
          std::to_string(have.cols()));
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = values[*pos + i];
  }
  *pos += params.size();
  return Status::OK();
}

EncoderStore::EncoderStore(const Schema& schema, size_t embed_dim, Rng* rng)
    : embed_dim_(embed_dim) {
  encoders_.reserve(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    encoders_.push_back(std::make_unique<AttributeEncoder>(
        schema.attribute(i), embed_dim, rng));
  }
}

void EncoderStore::ExportTensors(std::vector<Tensor>* out) const {
  for (const auto& encoder : encoders_) encoder->ExportTensors(out);
}

Status EncoderStore::ImportTensors(const std::vector<Tensor>& values,
                                   size_t* pos) {
  for (auto& encoder : encoders_) {
    KAMINO_RETURN_IF_ERROR(encoder->ImportTensors(values, pos));
  }
  return Status::OK();
}

}  // namespace kamino
