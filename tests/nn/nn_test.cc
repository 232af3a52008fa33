#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "kamino/autograd/ops.h"
#include "kamino/core/model.h"
#include "kamino/data/table.h"
#include "kamino/nn/discriminative.h"
#include "kamino/nn/dpsgd.h"
#include "kamino/nn/encoders.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

Schema TestSchema() {
  return Schema({
      Attribute::MakeCategorical("a", {"x", "y", "z"}),
      Attribute::MakeNumeric("n", 0, 10, 11),
      Attribute::MakeCategorical("b", {"p", "q"}),
  });
}

TEST(EncoderTest, CategoricalEmbeddingShape) {
  Schema schema = TestSchema();
  Rng rng(1);
  AttributeEncoder enc(schema.attribute(0), 8, &rng);
  ForwardContext ctx;
  Var e = enc.Encode(Value::Categorical(2), &ctx);
  EXPECT_EQ(e->value.rows(), 1u);
  EXPECT_EQ(e->value.cols(), 8u);
  EXPECT_EQ(enc.Parameters().size(), 1u);
}

TEST(EncoderTest, NumericEmbeddingShapeAndParams) {
  Schema schema = TestSchema();
  Rng rng(1);
  AttributeEncoder enc(schema.attribute(1), 8, &rng);
  ForwardContext ctx;
  Var e = enc.Encode(Value::Numeric(5.0), &ctx);
  EXPECT_EQ(e->value.cols(), 8u);
  EXPECT_EQ(enc.Parameters().size(), 4u);
}

TEST(EncoderTest, StandardizeRoundTrip) {
  Schema schema = TestSchema();
  Rng rng(1);
  AttributeEncoder enc(schema.attribute(1), 4, &rng);
  for (double v : {0.0, 2.5, 10.0}) {
    EXPECT_NEAR(enc.Destandardize(enc.Standardize(v)), v, 1e-9);
  }
}

TEST(EncoderTest, CopyFromTransfersValues) {
  Schema schema = TestSchema();
  Rng rng1(1), rng2(2);
  AttributeEncoder a(schema.attribute(0), 4, &rng1);
  AttributeEncoder b(schema.attribute(0), 4, &rng2);
  b.CopyFrom(a);
  ForwardContext ctx_a, ctx_b;
  Var ea = a.Encode(Value::Categorical(1), &ctx_a);
  Var eb = b.Encode(Value::Categorical(1), &ctx_b);
  for (size_t i = 0; i < ea->value.size(); ++i) {
    EXPECT_DOUBLE_EQ(ea->value[i], eb->value[i]);
  }
}

TEST(ForwardContextTest, BindReusesSameLeafPerParameter) {
  Parameter p(Tensor::RowVector({1, 2, 3}));
  ForwardContext ctx;
  Var a = ctx.Bind(&p);
  Var b = ctx.Bind(&p);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(ctx.bindings().size(), 1u);
}

TEST(DiscriminativeModelTest, CategoricalPredictionIsDistribution) {
  Schema schema = TestSchema();
  Rng rng(2);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel model(schema, {0, 1}, {2}, &store, &rng);
  Row row = {Value::Categorical(1), Value::Numeric(4), Value::Categorical(0)};
  std::vector<double> probs = model.PredictCategorical(row);
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
  EXPECT_GE(probs[0], 0.0);
}

TEST(DiscriminativeModelTest, JointTargetIndexRoundTrip) {
  Schema schema = TestSchema();
  Rng rng(3);
  EncoderStore store(schema, 8, &rng);
  // Joint target over (a: 3, b: 2) = 6 classes, context n.
  DiscriminativeModel model(schema, {1}, {0, 2}, &store, &rng);
  EXPECT_EQ(model.joint_domain_size(), 6u);
  // The sampler decodes candidates with the unit's radix (the target
  // domain sizes in target order); that must invert the model's coding.
  ModelUnit unit;
  unit.radix = {3, 2};
  for (size_t idx = 0; idx < 6; ++idx) {
    std::vector<Value> vals;
    unit.DecodeJointIndex(idx, &vals);
    Row row = {vals[0], Value::Numeric(0), vals[1]};
    EXPECT_EQ(model.JointIndex(row), idx);
  }
}

TEST(DiscriminativeModelTest, LossGradientMatchesFiniteDifference) {
  Schema schema = TestSchema();
  Rng rng(4);
  EncoderStore store(schema, 6, &rng);
  DiscriminativeModel model(schema, {0, 1}, {2}, &store, &rng);
  Row row = {Value::Categorical(2), Value::Numeric(7), Value::Categorical(1)};

  std::vector<Parameter*> params = model.Parameters();
  ForwardContext ctx;
  Var loss = model.Loss(row, &ctx);
  Backward(loss);
  std::vector<Tensor> grads = ZeroGradients(params);
  ctx.AccumulateInto(params, &grads);

  auto loss_fn = [&]() {
    ForwardContext c;
    return model.Loss(row, &c)->value[0];
  };
  for (size_t p = 0; p < params.size(); ++p) {
    EXPECT_LT(MaxGradError(&params[p]->value, grads[p], loss_fn), 1e-5)
        << "parameter " << p;
  }
}

TEST(DiscriminativeModelTest, GaussianHeadDestandardizes) {
  Schema schema = TestSchema();
  Rng rng(5);
  EncoderStore store(schema, 6, &rng);
  DiscriminativeModel model(schema, {0}, {1}, &store, &rng);
  Row row = {Value::Categorical(0), Value::Numeric(0), Value::Categorical(0)};
  auto [mean, stddev] = model.PredictGaussian(row);
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_GT(stddev, 0.0);
}

TEST(DpSgdTest, ClipGradientsScalesToNorm) {
  std::vector<Tensor> grads = {Tensor::RowVector({3.0, 0.0}),
                               Tensor::RowVector({0.0, 4.0})};
  ClipGradients(&grads, 1.0);  // norm was 5
  double norm_sq = grads[0].SquaredL2() + grads[1].SquaredL2();
  EXPECT_NEAR(std::sqrt(norm_sq), 1.0, 1e-12);
  // Already-small gradients are untouched.
  std::vector<Tensor> small = {Tensor::RowVector({0.1, 0.0})};
  ClipGradients(&small, 1.0);
  EXPECT_DOUBLE_EQ(small[0][0], 0.1);
}

TEST(DpSgdTest, NonPrivateTrainingLearnsDeterministicMapping) {
  // b is a deterministic function of a; a non-private run must learn it.
  Schema schema = TestSchema();
  Rng rng(6);
  Table data(schema);
  for (int i = 0; i < 300; ++i) {
    const int a = static_cast<int>(rng.UniformInt(0, 2));
    data.AppendRowUnchecked({Value::Categorical(a), Value::Numeric(5),
                             Value::Categorical(a == 0 ? 0 : 1)});
  }
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel model(schema, {0, 1}, {2}, &store, &rng);
  DpSgdOptions options;
  options.noise_multiplier = 0.0;
  options.iterations = 300;
  options.batch_size = 16;
  options.learning_rate = 0.3;
  TrainDpSgd(&model, data, options, &rng);

  Row r0 = {Value::Categorical(0), Value::Numeric(5), Value::Categorical(0)};
  Row r1 = {Value::Categorical(2), Value::Numeric(5), Value::Categorical(0)};
  EXPECT_GT(model.PredictCategorical(r0)[0], 0.7);
  EXPECT_GT(model.PredictCategorical(r1)[1], 0.7);
}

TEST(DpSgdTest, NoisyTrainingStillRuns) {
  Schema schema = TestSchema();
  Rng rng(7);
  Table data(schema);
  for (int i = 0; i < 60; ++i) {
    data.AppendRowUnchecked({Value::Categorical(0), Value::Numeric(1),
                             Value::Categorical(0)});
  }
  EncoderStore store(schema, 4, &rng);
  DiscriminativeModel model(schema, {0, 1}, {2}, &store, &rng);
  DpSgdOptions options;
  options.noise_multiplier = 1.1;
  options.iterations = 20;
  const double loss = TrainDpSgd(&model, data, options, &rng);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(DpSgdTest, EmptyDataIsHandled) {
  Schema schema = TestSchema();
  Rng rng(8);
  EncoderStore store(schema, 4, &rng);
  DiscriminativeModel model(schema, {0}, {2}, &store, &rng);
  Table data(schema);
  DpSgdOptions options;
  EXPECT_DOUBLE_EQ(TrainDpSgd(&model, data, options, &rng), 0.0);
}

// --- Tape-free inference: bit identity against the training graph. ---

/// Two categorical and two numeric attributes, so every context mixes both
/// encoder kinds.
Schema InferenceSchema() {
  return Schema({
      Attribute::MakeCategorical("a", {"x", "y", "z"}),
      Attribute::MakeNumeric("n", 0, 10, 11),
      Attribute::MakeCategorical("b", {"p", "q"}),
      Attribute::MakeCategorical("c", {"c0", "c1", "c2", "c3"}),
      Attribute::MakeNumeric("m", -5, 5, 11),
  });
}

std::vector<Row> RandomRows(const Schema& schema, size_t count, Rng* rng) {
  std::vector<Row> rows;
  for (size_t r = 0; r < count; ++r) {
    Row row;
    for (size_t a = 0; a < schema.size(); ++a) {
      const Attribute& attr = schema.attribute(a);
      if (attr.is_categorical()) {
        row.push_back(Value::Categorical(static_cast<int32_t>(rng->UniformInt(
            0, static_cast<int64_t>(attr.categories().size()) - 1))));
      } else {
        row.push_back(
            Value::Numeric(rng->Uniform(attr.min_value(), attr.max_value())));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The head output (logits, or (mu, s)) as the training graph computes it,
/// rebuilt from public pieces only: the encoders' own graphs, ConcatRows,
/// and leaves over the exported head tensors. Adds to `*zeroed` the hidden
/// units the head's ReLU clamped to 0.0 (the ones MatMul then skips).
Tensor ReferenceOutput(const DiscriminativeModel& model,
                       const EncoderStore& store, const Row& row,
                       size_t* zeroed) {
  ForwardContext ctx;
  std::vector<Var> embeddings;
  for (size_t a : model.context()) {
    embeddings.push_back(store.encoder(a)->Encode(row[a], &ctx));
  }
  std::vector<Tensor> head;  // query, w1, b1, w2, b2
  model.ExportHeadTensors(&head);
  Var keys = ConcatRows(embeddings);
  Var alpha = Softmax(MatMul(MakeLeaf(head[0]), Transpose(keys)));
  Var context_vec = MatMul(alpha, keys);
  Var h = Relu(Add(MatMul(context_vec, MakeLeaf(head[1])), MakeLeaf(head[2])));
  for (double v : h->value.data()) {
    if (v == 0.0) ++*zeroed;
  }
  return Add(MatMul(h, MakeLeaf(head[3])), MakeLeaf(head[4]))->value;
}

std::vector<double> ReferenceCategorical(const DiscriminativeModel& model,
                                         const EncoderStore& store,
                                         const Row& row, size_t* zeroed) {
  Tensor logits = ReferenceOutput(model, store, row, zeroed);
  return Softmax(MakeConstant(logits))->value.data();
}

std::pair<double, double> ReferenceGaussian(const DiscriminativeModel& model,
                                            const EncoderStore& store,
                                            const Row& row, size_t* zeroed) {
  Tensor out = ReferenceOutput(model, store, row, zeroed);
  const double s = out[1];
  const double sigma = (s > 30.0 ? s : std::log1p(std::exp(s))) + 1e-3;
  const AttributeEncoder* enc = store.encoder(model.targets()[0]);
  const double stddev =
      sigma * (enc->Destandardize(1.0) - enc->Destandardize(0.0));
  return {enc->Destandardize(out[0]), std::abs(stddev)};
}

/// EXPECT_EQ (bit identity, not NEAR) of every prediction against the
/// reference graph; returns the ReLU-zeroed hidden units seen.
size_t ExpectMatchesGraph(const DiscriminativeModel& model,
                          const EncoderStore& store,
                          const std::vector<Row>& rows) {
  size_t zeroed = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (model.target_is_categorical()) {
      const std::vector<double> want =
          ReferenceCategorical(model, store, rows[r], &zeroed);
      const std::vector<double> got = model.PredictCategorical(rows[r]);
      EXPECT_EQ(got.size(), want.size()) << "row " << r;
      for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        EXPECT_EQ(got[i], want[i]) << "row " << r << " class " << i;
      }
    } else {
      const std::pair<double, double> want =
          ReferenceGaussian(model, store, rows[r], &zeroed);
      const std::pair<double, double> got = model.PredictGaussian(rows[r]);
      EXPECT_EQ(got.first, want.first) << "row " << r;
      EXPECT_EQ(got.second, want.second) << "row " << r;
    }
  }
  return zeroed;
}

/// Fresh random tensors shaped like `like`.
std::vector<Tensor> RandomLike(const std::vector<Tensor>& like, Rng* rng) {
  std::vector<Tensor> out;
  for (const Tensor& t : like) {
    out.push_back(Tensor::Randn(t.rows(), t.cols(), 0.7, rng));
  }
  return out;
}

TEST(DiscriminativeInferenceTest, CategoricalTargetMatchesGraph) {
  Schema schema = InferenceSchema();
  Rng rng(11);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel model(schema, {0, 1, 3, 4}, {2}, &store, &rng);
  const std::vector<Row> rows = RandomRows(schema, 64, &rng);
  EXPECT_GT(ExpectMatchesGraph(model, store, rows), 0u);
}

TEST(DiscriminativeInferenceTest, JointTargetMatchesGraph) {
  Schema schema = InferenceSchema();
  Rng rng(12);
  EncoderStore store(schema, 8, &rng);
  // Hyper-attribute target (a, c): a 3 x 4 = 12-class joint domain.
  DiscriminativeModel model(schema, {1, 2, 4}, {0, 3}, &store, &rng);
  ASSERT_EQ(model.joint_domain_size(), 12u);
  const std::vector<Row> rows = RandomRows(schema, 64, &rng);
  EXPECT_GT(ExpectMatchesGraph(model, store, rows), 0u);
}

TEST(DiscriminativeInferenceTest, GaussianTargetMatchesGraph) {
  Schema schema = InferenceSchema();
  Rng rng(13);
  EncoderStore store(schema, 6, &rng);
  DiscriminativeModel model(schema, {0, 1, 2, 3}, {4}, &store, &rng);
  std::vector<Row> rows = RandomRows(schema, 64, &rng);
  // Domain ends and the midpoint (standardized x = 0) of the numeric
  // context attribute.
  for (double n : {0.0, 5.0, 10.0}) {
    Row row = rows[0];
    row[1] = Value::Numeric(n);
    rows.push_back(std::move(row));
  }
  EXPECT_GT(ExpectMatchesGraph(model, store, rows), 0u);
}

TEST(DiscriminativeInferenceTest, ZeroQueryAndDeadHiddenUnitsMatchGraph) {
  Schema schema = InferenceSchema();
  Rng rng(14);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel cat(schema, {0, 1, 4}, {2, 3}, &store, &rng);
  DiscriminativeModel gauss(schema, {0, 1, 3}, {4}, &store, &rng);
  const std::vector<Row> rows = RandomRows(schema, 32, &rng);
  for (DiscriminativeModel* model : {&cat, &gauss}) {
    // Exact zeros in the attention query, and b1 so negative that half the
    // hidden units are dead on every row: both drive MatMul's zero skip.
    std::vector<Tensor> head;
    model->ExportHeadTensors(&head);
    for (size_t j = 0; j < head[0].size(); j += 2) head[0][j] = 0.0;
    for (size_t j = 1; j < head[2].size(); j += 2) head[2][j] = -1e3;
    size_t pos = 0;
    ASSERT_TRUE(model->ImportHeadTensors(head, &pos).ok());
    EXPECT_GE(ExpectMatchesGraph(*model, store, rows), rows.size() * 4);
  }
}

TEST(DiscriminativeInferenceTest, ImportedAndCopiedWeightsAreReadLive) {
  Schema schema = InferenceSchema();
  Rng rng(15);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel cat(schema, {0, 1, 4}, {2}, &store, &rng);
  DiscriminativeModel gauss(schema, {0, 1, 2}, {4}, &store, &rng);
  const std::vector<Row> rows = RandomRows(schema, 16, &rng);
  const std::vector<double> p0 = cat.PredictCategorical(rows[0]);
  const std::pair<double, double> g0 = gauss.PredictGaussian(rows[0]);

  // New head weights.
  for (DiscriminativeModel* model : {&cat, &gauss}) {
    std::vector<Tensor> head;
    model->ExportHeadTensors(&head);
    size_t pos = 0;
    ASSERT_TRUE(model->ImportHeadTensors(RandomLike(head, &rng), &pos).ok());
    ExpectMatchesGraph(*model, store, rows);
  }
  const std::vector<double> p1 = cat.PredictCategorical(rows[0]);
  const std::pair<double, double> g1 = gauss.PredictGaussian(rows[0]);
  EXPECT_NE(p1, p0);
  EXPECT_NE(g1, g0);

  // New encoder weights for every attribute.
  std::vector<Tensor> encoders;
  store.ExportTensors(&encoders);
  size_t pos = 0;
  ASSERT_TRUE(store.ImportTensors(RandomLike(encoders, &rng), &pos).ok());
  ExpectMatchesGraph(cat, store, rows);
  ExpectMatchesGraph(gauss, store, rows);
  const std::vector<double> p2 = cat.PredictCategorical(rows[0]);
  const std::pair<double, double> g2 = gauss.PredictGaussian(rows[0]);
  EXPECT_NE(p2, p1);
  EXPECT_NE(g2, g1);

  // Embedding reuse (Algorithm 2) copied into one categorical and one
  // numeric context encoder.
  EncoderStore donor(schema, 8, &rng);
  store.encoder(0)->CopyFrom(*donor.encoder(0));
  store.encoder(1)->CopyFrom(*donor.encoder(1));
  ExpectMatchesGraph(cat, store, rows);
  ExpectMatchesGraph(gauss, store, rows);
  EXPECT_NE(cat.PredictCategorical(rows[0]), p2);
  EXPECT_NE(gauss.PredictGaussian(rows[0]), g2);
}

TEST(DiscriminativeInferenceTest, FurtherTrainingIsReadLive) {
  Schema schema = InferenceSchema();
  Rng rng(16);
  const std::vector<Row> rows = RandomRows(schema, 80, &rng);
  Table data(schema);
  for (const Row& row : rows) data.AppendRowUnchecked(row);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel model(schema, {0, 1, 4}, {2, 3}, &store, &rng);
  DpSgdOptions options;
  options.noise_multiplier = 0.0;
  options.iterations = 5;
  options.learning_rate = 0.3;
  for (int round = 0; round < 3; ++round) {
    const std::vector<double> before = model.PredictCategorical(rows[0]);
    TrainDpSgd(&model, data, options, &rng);
    EXPECT_NE(model.PredictCategorical(rows[0]), before) << "round " << round;
    ExpectMatchesGraph(model, store, rows);
  }
}

TEST(DiscriminativeInferenceTest, ReusedScratchMatchesFreshBuffers) {
  // One scratch (and one probability vector) alternates between a joint
  // categorical model and a Gaussian model of different context widths,
  // embedding sizes and output sizes, so every call inherits the other
  // model's leftovers. `Forward` accumulates the attention scores into
  // its buffer: a reused buffer that is not zeroed shows up here.
  Schema schema = InferenceSchema();
  Rng rng(18);
  EncoderStore wide(schema, 8, &rng);
  EncoderStore narrow(schema, 6, &rng);
  DiscriminativeModel cat(schema, {0, 1, 4}, {2, 3}, &wide, &rng);
  DiscriminativeModel gauss(schema, {0, 1, 2, 3}, {4}, &narrow, &rng);
  const std::vector<Row> rows = RandomRows(schema, 48, &rng);
  InferenceScratch scratch;
  std::vector<double> probs;
  for (size_t r = 0; r < rows.size(); ++r) {
    cat.PredictCategorical(rows[r], &scratch, &probs);
    EXPECT_EQ(probs, cat.PredictCategorical(rows[r])) << "row " << r;
    const std::pair<double, double> g =
        gauss.PredictGaussian(rows[r], &scratch);
    EXPECT_EQ(g, gauss.PredictGaussian(rows[r])) << "row " << r;
  }
}

TEST(DiscriminativeInferenceTest, SharedModelPredictsIdenticallyFromFourThreads) {
  Schema schema = InferenceSchema();
  Rng rng(17);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel cat(schema, {0, 1, 4}, {2, 3}, &store, &rng);
  DiscriminativeModel gauss(schema, {0, 1, 2, 3}, {4}, &store, &rng);
  const std::vector<Row> rows = RandomRows(schema, 256, &rng);

  std::vector<std::vector<double>> serial_cat;
  std::vector<std::pair<double, double>> serial_gauss;
  for (const Row& row : rows) {
    serial_cat.push_back(cat.PredictCategorical(row));
    serial_gauss.push_back(gauss.PredictGaussian(row));
  }

  constexpr size_t kThreads = 4;
  std::vector<std::vector<double>> parallel_cat(rows.size());
  std::vector<std::pair<double, double>> parallel_gauss(rows.size());
  {
    runtime::ThreadPool pool(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      pool.Submit([&, t] {
        // Strided so all threads run both models on the same store at once.
        for (size_t r = t; r < rows.size(); r += kThreads) {
          parallel_cat[r] = cat.PredictCategorical(rows[r]);
          parallel_gauss[r] = gauss.PredictGaussian(rows[r]);
        }
      });
    }
  }  // The pool's destructor finishes every task and joins.
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(parallel_cat[r], serial_cat[r]) << "row " << r;
    EXPECT_EQ(parallel_gauss[r], serial_gauss[r]) << "row " << r;
  }
}

// --- Tape-free per-example gradients: bit identity against the tape. ---

/// `RandomRows`, plus a row at the numeric attributes' domain midpoints,
/// which standardize to x = 0.
std::vector<Row> GradientRows(const Schema& schema, size_t count, Rng* rng) {
  std::vector<Row> rows = RandomRows(schema, count, rng);
  Row mid = rows[0];
  mid[1] = Value::Numeric(5.0);
  mid[4] = Value::Numeric(0.0);
  rows.push_back(std::move(mid));
  return rows;
}

/// The tape's clipped per-example gradient, dense. Returns the loss.
double TapeGradient(DiscriminativeModel* model, const Row& row,
                    double clip_norm, std::vector<Tensor>* grads) {
  ForwardContext ctx;
  Var loss = model->Loss(row, &ctx);
  Backward(loss);
  const std::vector<Parameter*> params = model->Parameters();
  *grads = ZeroGradients(params);
  ctx.AccumulateInto(params, grads);
  ClipGradients(grads, clip_norm);
  return loss->value[0];
}

double Norm(const std::vector<Tensor>& grads) {
  double squared = 0.0;
  for (const Tensor& g : grads) squared += g.SquaredL2();
  return std::sqrt(squared);
}

/// EXPECT_EQ of the tape-free gradient against the tape's on every
/// coordinate of every parameter, for each row, clipped at `clip_norm`.
/// Returns how many rows the clip scaled.
size_t ExpectMatchesTape(DiscriminativeModel* model,
                         const std::vector<Row>& rows, double clip_norm) {
  const std::vector<Parameter*> params = model->Parameters();
  InferenceScratch scratch;
  SparseGradient sparse;
  size_t clipped = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<Tensor> unclipped;
    TapeGradient(model, rows[r], 1e300, &unclipped);
    if (Norm(unclipped) > clip_norm) ++clipped;
    std::vector<Tensor> want;
    const double want_loss = TapeGradient(model, rows[r], clip_norm, &want);

    const double got_loss = model->LossGradient(rows[r], &scratch, &sparse);
    ClipGradients(&sparse, clip_norm);
    std::vector<Tensor> got = ZeroGradients(params);
    sparse.AddTo(&got);
    EXPECT_EQ(got_loss, want_loss) << "row " << r;
    for (size_t p = 0; p < params.size(); ++p) {
      for (size_t i = 0; i < got[p].size(); ++i) {
        EXPECT_EQ(got[p][i], want[p][i])
            << "row " << r << " param " << p << " coordinate " << i;
      }
    }
    // One segment per parameter, in order; a categorical context encoder
    // touches exactly its category's table row.
    EXPECT_EQ(sparse.segments.size(), params.size());
    size_t p = 0;
    for (size_t attr : model->context()) {
      const Value& v = rows[r][attr];
      if (v.is_categorical()) {
        const size_t d = params[p]->value.cols();
        EXPECT_EQ(sparse.segments[p].offset,
                  static_cast<size_t>(v.category()) * d);
        EXPECT_EQ(sparse.segments[p].length, d);
        p += 1;
      } else {
        p += 4;
      }
    }
  }
  return clipped;
}

/// Checks each row with no clipping, clipping at the median norm (some
/// rows above the bound, some below), and clipping every row.
void ExpectMatchesTapeAtEveryClip(DiscriminativeModel* model,
                                  const std::vector<Row>& rows) {
  EXPECT_EQ(ExpectMatchesTape(model, rows, 1e300), 0u);
  std::vector<double> norms;
  for (const Row& row : rows) {
    std::vector<Tensor> g;
    TapeGradient(model, row, 1e300, &g);
    norms.push_back(Norm(g));
  }
  std::sort(norms.begin(), norms.end());
  const size_t clipped =
      ExpectMatchesTape(model, rows, norms[norms.size() / 2]);
  EXPECT_GT(clipped, 0u);
  EXPECT_LT(clipped, rows.size());
  EXPECT_EQ(ExpectMatchesTape(model, rows, 1e-6), rows.size());
}

TEST(TapeFreeGradientTest, CategoricalTargetMatchesTape) {
  Schema schema = InferenceSchema();
  Rng rng(21);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel model(schema, {0, 1, 3, 4}, {2}, &store, &rng);
  ExpectMatchesTapeAtEveryClip(&model, GradientRows(schema, 48, &rng));
}

TEST(TapeFreeGradientTest, JointTargetMatchesTape) {
  Schema schema = InferenceSchema();
  Rng rng(22);
  EncoderStore store(schema, 8, &rng);
  // Hyper-attribute target (a, c): a 3 x 4 = 12-class joint domain.
  DiscriminativeModel model(schema, {1, 2, 4}, {0, 3}, &store, &rng);
  ASSERT_EQ(model.joint_domain_size(), 12u);
  ExpectMatchesTapeAtEveryClip(&model, GradientRows(schema, 48, &rng));
}

TEST(TapeFreeGradientTest, GaussianTargetMatchesTape) {
  Schema schema = InferenceSchema();
  Rng rng(23);
  EncoderStore store(schema, 6, &rng);
  DiscriminativeModel model(schema, {0, 1, 2, 3}, {4}, &store, &rng);
  ExpectMatchesTapeAtEveryClip(&model, GradientRows(schema, 48, &rng));
}

TEST(TapeFreeGradientTest, CategoricalOnlyAndNumericOnlyContexts) {
  Schema schema = InferenceSchema();
  Rng rng(24);
  EncoderStore store(schema, 5, &rng);
  DiscriminativeModel categorical(schema, {0, 3}, {2}, &store, &rng);
  DiscriminativeModel numeric(schema, {1, 4}, {3}, &store, &rng);
  DiscriminativeModel single(schema, {1}, {4}, &store, &rng);
  const std::vector<Row> rows = GradientRows(schema, 32, &rng);
  for (DiscriminativeModel* model : {&categorical, &numeric, &single}) {
    ExpectMatchesTapeAtEveryClip(model, rows);
  }
}

TEST(TapeFreeGradientTest, ZeroQueryAndDeadUnitsMatchTape) {
  Schema schema = InferenceSchema();
  Rng rng(25);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel cat(schema, {0, 1, 4}, {2, 3}, &store, &rng);
  DiscriminativeModel gauss(schema, {0, 1, 3}, {4}, &store, &rng);
  // Dead hidden units in both numeric encoders: c so negative that every
  // other unit is clamped on every row.
  std::vector<Tensor> encoders;
  store.ExportTensors(&encoders);
  // Tensor order: a (1), n (4: a, c, B, d), b (1), c (1), m (4).
  for (size_t c_index : {size_t{2}, size_t{8}}) {
    Tensor& c = encoders[c_index];
    ASSERT_EQ(c.rows(), 1u);
    for (size_t j = 1; j < c.size(); j += 2) c[j] = -1e3;
  }
  size_t pos = 0;
  ASSERT_TRUE(store.ImportTensors(encoders, &pos).ok());
  const std::vector<Row> rows = GradientRows(schema, 32, &rng);
  for (DiscriminativeModel* model : {&cat, &gauss}) {
    // Exact zeros in the attention query, and b1 so negative that half the
    // head's hidden units are dead on every row: both drive MatMul's zero
    // skip in the forward and zero rows in the backward.
    std::vector<Tensor> head;
    model->ExportHeadTensors(&head);
    for (size_t j = 0; j < head[0].size(); j += 2) head[0][j] = 0.0;
    for (size_t j = 1; j < head[2].size(); j += 2) head[2][j] = -1e3;
    size_t head_pos = 0;
    ASSERT_TRUE(model->ImportHeadTensors(head, &head_pos).ok());
    ExpectMatchesTapeAtEveryClip(model, rows);
  }
}

TEST(TapeFreeGradientTest, ReusedBuffersMatchFreshOnes) {
  // One scratch and one gradient alternate between models of different
  // widths, embedding sizes and output sizes.
  Schema schema = InferenceSchema();
  Rng rng(26);
  EncoderStore wide(schema, 8, &rng);
  EncoderStore narrow(schema, 4, &rng);
  DiscriminativeModel cat(schema, {0, 1, 4}, {2, 3}, &wide, &rng);
  DiscriminativeModel gauss(schema, {0, 1, 2, 3}, {4}, &narrow, &rng);
  const std::vector<Row> rows = GradientRows(schema, 24, &rng);
  InferenceScratch scratch;
  SparseGradient reused;
  for (const Row& row : rows) {
    for (const DiscriminativeModel* model : {&cat, &gauss}) {
      InferenceScratch fresh_scratch;
      SparseGradient fresh;
      const double want = model->LossGradient(row, &fresh_scratch, &fresh);
      EXPECT_EQ(model->LossGradient(row, &scratch, &reused), want);
      EXPECT_EQ(reused.values, fresh.values);
      ASSERT_EQ(reused.segments.size(), fresh.segments.size());
      for (size_t s = 0; s < fresh.segments.size(); ++s) {
        EXPECT_EQ(reused.segments[s].param, fresh.segments[s].param);
        EXPECT_EQ(reused.segments[s].offset, fresh.segments[s].offset);
        EXPECT_EQ(reused.segments[s].start, fresh.segments[s].start);
        EXPECT_EQ(reused.segments[s].length, fresh.segments[s].length);
      }
    }
  }
}

// --- TrainDpSgd against a dense trainer over the tape. ---

/// DP-SGD as a serial loop over the autograd tape with dense per-example
/// gradients: the same Poisson draws, clip, example-order sum, noise and
/// update as `TrainDpSgd`.
double TapeTrainDpSgd(DiscriminativeModel* model, const Table& data,
                      const DpSgdOptions& options, Rng* rng) {
  std::vector<Parameter*> params = model->Parameters();
  const size_t n = data.num_rows();
  if (n == 0) return 0.0;
  const double sample_prob =
      std::min(1.0, static_cast<double>(options.batch_size) /
                        static_cast<double>(n));
  double last_loss = 0.0;
  for (size_t iter = 0; iter < options.iterations; ++iter) {
    std::vector<size_t> batch;
    for (size_t i = 0; i < n; ++i) {
      if (rng->Bernoulli(sample_prob)) batch.push_back(i);
    }
    std::vector<Tensor> grad_sum = ZeroGradients(params);
    double loss_sum = 0.0;
    for (size_t k : batch) {
      std::vector<Tensor> grads;
      loss_sum += TapeGradient(model, data.row(k), options.clip_norm, &grads);
      for (size_t p = 0; p < params.size(); ++p) grad_sum[p].Add(grads[p]);
    }
    const double noise_sd = options.noise_multiplier * options.clip_norm;
    if (noise_sd > 0.0) {
      for (Tensor& g : grad_sum) {
        for (double& v : g.data()) v += rng->Gaussian(0.0, noise_sd);
      }
    }
    const double denom = static_cast<double>(options.batch_size);
    for (size_t p = 0; p < params.size(); ++p) {
      params[p]->value.Axpy(-options.learning_rate / denom, grad_sum[p]);
    }
    last_loss = !batch.empty()
                    ? loss_sum / static_cast<double>(batch.size())
                    : last_loss;
  }
  return last_loss;
}

std::vector<Tensor> Trained(const EncoderStore& store,
                            const std::vector<DiscriminativeModel*>& models) {
  std::vector<Tensor> out;
  store.ExportTensors(&out);
  for (const DiscriminativeModel* model : models) {
    model->ExportHeadTensors(&out);
  }
  return out;
}

/// Trains a categorical, a joint and a Gaussian model on one shared store,
/// in sequence (as Algorithm 2 does), with `TrainDpSgd` or the tape
/// trainer; returns every trained tensor and the final losses.
std::vector<Tensor> TrainThree(bool tape, double noise_multiplier,
                               std::vector<double>* losses) {
  Schema schema = InferenceSchema();
  Rng data_rng(31);
  Table data(schema);
  for (const Row& row : GradientRows(schema, 240, &data_rng)) {
    data.AppendRowUnchecked(row);
  }
  Rng rng(32);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel cat(schema, {0, 1, 4}, {2}, &store, &rng);
  DiscriminativeModel joint(schema, {1, 2, 4}, {0, 3}, &store, &rng);
  DiscriminativeModel gauss(schema, {0, 1, 2, 3}, {4}, &store, &rng);
  DpSgdOptions options;
  options.noise_multiplier = noise_multiplier;
  options.clip_norm = 0.5;      // some examples clip, some do not
  options.batch_size = 40;      // batches span more than one wave
  options.iterations = 12;
  options.learning_rate = 0.2;
  for (DiscriminativeModel* model : {&cat, &joint, &gauss}) {
    losses->push_back(tape ? TapeTrainDpSgd(model, data, options, &rng)
                           : TrainDpSgd(model, data, options, &rng));
  }
  return Trained(store, {&cat, &joint, &gauss});
}

void ExpectTrainsLikeTape(double noise_multiplier) {
  std::vector<double> want_losses;
  const std::vector<Tensor> want =
      TrainThree(/*tape=*/true, noise_multiplier, &want_losses);
  for (const size_t num_threads : {size_t{1}, size_t{4}}) {
    runtime::SetGlobalNumThreads(num_threads);
    std::vector<double> got_losses;
    const std::vector<Tensor> got =
        TrainThree(/*tape=*/false, noise_multiplier, &got_losses);
    runtime::SetGlobalNumThreads(0);
    EXPECT_EQ(got_losses, want_losses) << "num_threads=" << num_threads;
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t].data(), want[t].data())
          << "tensor " << t << " at num_threads=" << num_threads;
    }
  }
}

TEST(TapeFreeGradientTest, NonPrivateTrainingMatchesTapeTrainer) {
  ExpectTrainsLikeTape(0.0);
}

TEST(TapeFreeGradientTest, PrivateTrainingMatchesTapeTrainer) {
  ExpectTrainsLikeTape(1.1);
}

}  // namespace
}  // namespace kamino
