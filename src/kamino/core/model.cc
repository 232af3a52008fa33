#include "kamino/core/model.h"

#include "kamino/common/logging.h"
#include "kamino/dp/gaussian.h"
#include "kamino/io/bytes.h"
#include "kamino/nn/dpsgd.h"
#include "kamino/runtime/parallel_for.h"

namespace kamino {

void ModelUnit::DecodeJointIndex(size_t index,
                                 std::vector<Value>* values) const {
  values->resize(radix.size());
  for (size_t i = radix.size(); i-- > 0;) {
    (*values)[i] = Value::Categorical(static_cast<int32_t>(index % radix[i]));
    index /= radix[i];
  }
}

namespace {

/// Joint index of a row's values over the unit's categorical attributes.
size_t JointIndexOf(const ModelUnit& unit, const Row& row) {
  size_t index = 0;
  for (size_t i = 0; i < unit.attrs.size(); ++i) {
    index = index * unit.radix[i] +
            static_cast<size_t>(row[unit.attrs[i]].category());
  }
  return index;
}

size_t JointDomainSize(const ModelUnit& unit) {
  size_t product = 1;
  for (size_t r : unit.radix) product *= r;
  return product;
}

void FillRadix(const Schema& schema, ModelUnit* unit) {
  unit->radix.clear();
  for (size_t a : unit->attrs) {
    unit->radix.push_back(schema.attribute(a).categories().size());
  }
}

/// Fits a (possibly joint) noisy histogram for the unit.
Status TrainHistogramUnit(const Table& data, const KaminoOptions& options,
                          ModelUnit* unit, Rng* rng) {
  const Schema& schema = data.schema();
  std::vector<double> counts;
  if (unit->attrs.size() == 1 && schema.attribute(unit->attrs[0]).is_numeric()) {
    KAMINO_ASSIGN_OR_RETURN(
        Quantizer quantizer,
        Quantizer::Make(schema.attribute(unit->attrs[0]), options.quantize_bins));
    counts.assign(quantizer.num_bins(), 0.0);
    for (size_t i = 0; i < data.num_rows(); ++i) {
      counts[quantizer.BinOf(data.at(i, unit->attrs[0]).numeric())] += 1.0;
    }
    unit->quantizer = quantizer;
  } else {
    FillRadix(schema, unit);
    counts.assign(JointDomainSize(*unit), 0.0);
    for (size_t i = 0; i < data.num_rows(); ++i) {
      counts[JointIndexOf(*unit, data.row(i))] += 1.0;
    }
  }
  const double sigma = options.non_private ? 0.0 : options.sigma_g;
  unit->distribution = NoisyNormalizedHistogram(counts, sigma, rng);
  return Status::OK();
}

void TrainDiscriminativeUnit(const Table& data, const Schema& schema,
                             const KaminoOptions& options, EncoderStore* store,
                             ModelUnit* unit, uint64_t seed) {
  Rng rng(seed);
  FillRadix(schema, unit);
  unit->model = std::make_unique<DiscriminativeModel>(
      schema, unit->context, unit->attrs, store, &rng);
  DpSgdOptions sgd;
  sgd.clip_norm = options.clip_norm;
  sgd.noise_multiplier = options.non_private ? 0.0 : options.sigma_d;
  sgd.batch_size = options.batch_size;
  sgd.iterations = options.iterations;
  sgd.learning_rate = options.learning_rate;
  TrainDpSgd(unit->model.get(), data, sgd, &rng);
}

}  // namespace

std::vector<ModelUnit> ProbabilisticDataModel::PlanUnits(
    const Schema& schema, const std::vector<size_t>& sequence,
    const KaminoOptions& options) {
  std::vector<ModelUnit> units;
  size_t pos = 0;
  const size_t k = sequence.size();

  auto is_small_categorical = [&](size_t attr) {
    const Attribute& a = schema.attribute(attr);
    return a.is_categorical() &&
           a.DomainSize() <= options.large_domain_threshold;
  };

  while (pos < k) {
    ModelUnit unit;
    unit.start_position = pos;
    const size_t attr = sequence[pos];
    const Attribute& a = schema.attribute(attr);
    const bool first = pos == 0;

    // Greedy hyper-attribute grouping over adjacent small categoricals.
    std::vector<size_t> group = {attr};
    if (options.enable_grouping && is_small_categorical(attr)) {
      int64_t product = a.DomainSize();
      size_t next = pos + 1;
      while (next < k && is_small_categorical(sequence[next]) &&
             product * schema.attribute(sequence[next]).DomainSize() <=
                 options.group_domain_threshold) {
        product *= schema.attribute(sequence[next]).DomainSize();
        group.push_back(sequence[next]);
        ++next;
      }
      // Grouping a single attribute is a no-op; keep it only when it
      // actually merges attributes.
      if (group.size() == 1) group = {attr};
    }
    unit.attrs = group;

    const bool large_domain =
        a.is_categorical() && a.DomainSize() > options.large_domain_threshold;
    if (first || large_domain) {
      unit.kind = ModelUnit::Kind::kHistogram;
      // Large-domain fallbacks are never grouped.
      if (large_domain) unit.attrs = {attr};
    } else {
      unit.kind = ModelUnit::Kind::kDiscriminative;
      for (size_t p = 0; p < pos; ++p) unit.context.push_back(sequence[p]);
    }
    for (size_t a2 : unit.attrs) {
      if (schema.attribute(a2).is_categorical()) {
        unit.radix.push_back(schema.attribute(a2).categories().size());
      }
    }
    pos += unit.attrs.size();
    units.push_back(std::move(unit));
  }
  return units;
}

Result<ProbabilisticDataModel> ProbabilisticDataModel::Train(
    const Table& data, const std::vector<size_t>& sequence,
    const KaminoOptions& options, Rng* rng) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot train on an empty instance");
  }
  if (sequence.size() != data.schema().size()) {
    return Status::InvalidArgument("sequence arity != schema arity");
  }
  ProbabilisticDataModel model;
  model.schema_ = std::make_shared<const Schema>(data.schema());
  const Schema& schema = *model.schema_;
  model.sequence_ = sequence;
  model.shared_store_ =
      std::make_unique<EncoderStore>(schema, options.embed_dim, rng);
  model.units_ = PlanUnits(schema, sequence, options);

  // Histogram units (Gaussian mechanism) always train on this thread.
  for (ModelUnit& unit : model.units_) {
    if (unit.kind == ModelUnit::Kind::kHistogram) {
      unit.radix.clear();
      KAMINO_RETURN_IF_ERROR(TrainHistogramUnit(data, options, &unit, rng));
    }
  }

  if (!options.parallel_training) {
    // Sequential (Algorithm 2): sub-models share the encoder store, so
    // embeddings trained for earlier context re-seed later sub-models.
    for (ModelUnit& unit : model.units_) {
      if (unit.kind != ModelUnit::Kind::kDiscriminative) continue;
      TrainDiscriminativeUnit(data, schema, options,
                              model.shared_store_.get(), &unit,
                              rng->NextSeed());
    }
  } else {
    // Section 7.3.6: train sub-models in parallel with private, freshly
    // initialized encoder stores (no embedding reuse). Seeds and stores
    // are drawn sequentially in unit order first, then whole units are
    // dispatched onto the runtime pool (one task per unit) — each task
    // trains from its own seed, so the learned model is identical at any
    // thread count and matches the former thread-per-unit dispatch.
    std::vector<ModelUnit*> discriminative;
    std::vector<uint64_t> seeds;
    for (ModelUnit& unit : model.units_) {
      if (unit.kind != ModelUnit::Kind::kDiscriminative) continue;
      const uint64_t seed = rng->NextSeed();
      Rng init_rng(seed);
      unit.private_store = std::make_unique<EncoderStore>(
          schema, options.embed_dim, &init_rng);
      discriminative.push_back(&unit);
      seeds.push_back(seed);
    }
    runtime::ParallelForEach(0, discriminative.size(), 1, [&](size_t u) {
      TrainDiscriminativeUnit(data, schema, options,
                              discriminative[u]->private_store.get(),
                              discriminative[u], seeds[u] ^ 0x9e3779b9);
    });
  }
  return model;
}

namespace {

/// [u32 count] then per tensor [u32 rows][u32 cols][f64 bits]* — the
/// column-shaped raw-bits block of the chunk codec, with a shape header.
void AppendTensorList(const std::vector<Tensor>& tensors,
                      std::vector<uint8_t>* out) {
  io::AppendU32(out, static_cast<uint32_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    io::AppendU32(out, static_cast<uint32_t>(t.rows()));
    io::AppendU32(out, static_cast<uint32_t>(t.cols()));
    for (double v : t.data()) io::AppendDouble(out, v);
  }
}

Status ReadTensorList(io::ByteReader* in, std::vector<Tensor>* tensors) {
  Status truncated = Status::InvalidArgument("model tensor payload truncated");
  uint32_t count = 0;
  if (!in->ReadU32(&count)) return truncated;
  if (count > in->remaining()) return truncated;
  tensors->clear();
  tensors->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t rows = 0, cols = 0;
    if (!in->ReadU32(&rows) || !in->ReadU32(&cols)) return truncated;
    // Bound the allocation by the bytes actually present.
    if (uint64_t{rows} * cols > in->remaining() / 8) return truncated;
    Tensor t(rows, cols);
    for (double& v : t.data()) {
      if (!in->ReadDouble(&v)) return truncated;
    }
    tensors->push_back(std::move(t));
  }
  return Status::OK();
}

/// Keeps a corrupted artifact from requesting multi-gigabyte encoder
/// stores before the tensor shape checks can reject it.
constexpr uint32_t kMaxEmbedDim = 4096;
constexpr uint32_t kMaxQuantizerBins = 1u << 20;
constexpr uint64_t kMaxJointDomain = uint64_t{1} << 32;

}  // namespace

void ProbabilisticDataModel::SerializeTo(std::vector<uint8_t>* out) const {
  KAMINO_CHECK(schema_ != nullptr && shared_store_ != nullptr)
      << "cannot serialize an untrained model";
  schema_->SerializeTo(out);
  io::AppendU64Vec(out,
                   std::vector<uint64_t>(sequence_.begin(), sequence_.end()));
  io::AppendU32(out, static_cast<uint32_t>(shared_store_->embed_dim()));
  std::vector<Tensor> shared_tensors;
  shared_store_->ExportTensors(&shared_tensors);
  AppendTensorList(shared_tensors, out);
  io::AppendU32(out, static_cast<uint32_t>(units_.size()));
  for (const ModelUnit& unit : units_) {
    io::AppendU8(out, unit.kind == ModelUnit::Kind::kHistogram ? 0 : 1);
    io::AppendU64Vec(
        out, std::vector<uint64_t>(unit.attrs.begin(), unit.attrs.end()));
    io::AppendU64Vec(
        out, std::vector<uint64_t>(unit.context.begin(), unit.context.end()));
    io::AppendU64(out, unit.start_position);
    if (unit.kind == ModelUnit::Kind::kHistogram) {
      io::AppendU8(out, unit.quantizer.has_value() ? 1 : 0);
      if (unit.quantizer.has_value()) {
        io::AppendU32(out, static_cast<uint32_t>(unit.quantizer->num_bins()));
      }
      io::AppendDoubleVec(out, unit.distribution);
    } else {
      io::AppendU8(out, unit.private_store != nullptr ? 1 : 0);
      if (unit.private_store != nullptr) {
        std::vector<Tensor> store_tensors;
        unit.private_store->ExportTensors(&store_tensors);
        AppendTensorList(store_tensors, out);
      }
      std::vector<Tensor> head;
      unit.model->ExportHeadTensors(&head);
      AppendTensorList(head, out);
    }
  }
}

Result<ProbabilisticDataModel> ProbabilisticDataModel::DeserializeFrom(
    io::ByteReader* in) {
  Status truncated = Status::InvalidArgument("model payload truncated");
  KAMINO_ASSIGN_OR_RETURN(Schema parsed_schema, Schema::DeserializeFrom(in));
  const size_t k = parsed_schema.size();

  std::vector<uint64_t> seq_raw;
  if (!io::ReadU64Vec(in, &seq_raw)) return truncated;
  if (seq_raw.size() != k) {
    return Status::InvalidArgument("sequence length != schema arity");
  }
  std::vector<bool> seen(k, false);
  std::vector<size_t> sequence(k);
  for (size_t i = 0; i < k; ++i) {
    if (seq_raw[i] >= k || seen[static_cast<size_t>(seq_raw[i])]) {
      return Status::InvalidArgument(
          "sequence is not a permutation of the schema attributes");
    }
    seen[static_cast<size_t>(seq_raw[i])] = true;
    sequence[i] = static_cast<size_t>(seq_raw[i]);
  }

  uint32_t embed_dim = 0;
  if (!in->ReadU32(&embed_dim)) return truncated;
  if (embed_dim == 0 || embed_dim > kMaxEmbedDim) {
    return Status::InvalidArgument("implausible embedding dimension " +
                                   std::to_string(embed_dim));
  }
  std::vector<Tensor> shared_tensors;
  KAMINO_RETURN_IF_ERROR(ReadTensorList(in, &shared_tensors));

  ProbabilisticDataModel model;
  model.schema_ = std::make_shared<const Schema>(std::move(parsed_schema));
  const Schema& schema = *model.schema_;
  model.sequence_ = sequence;
  // Every parameter value is overwritten by the imports below, so the
  // construction-time random init is irrelevant; a fixed seed keeps
  // deserialization deterministic regardless.
  Rng dummy(0);
  model.shared_store_ =
      std::make_unique<EncoderStore>(schema, embed_dim, &dummy);
  size_t cursor = 0;
  KAMINO_RETURN_IF_ERROR(
      model.shared_store_->ImportTensors(shared_tensors, &cursor));
  if (cursor != shared_tensors.size()) {
    return Status::InvalidArgument("trailing tensors in shared encoder store");
  }

  uint32_t unit_count = 0;
  if (!in->ReadU32(&unit_count)) return truncated;
  if (unit_count > k) {
    return Status::InvalidArgument("more model units than schema attributes");
  }
  size_t pos = 0;
  for (uint32_t u = 0; u < unit_count; ++u) {
    ModelUnit unit;
    uint8_t kind = 0;
    std::vector<uint64_t> attrs_raw;
    std::vector<uint64_t> context_raw;
    uint64_t start = 0;
    if (!in->ReadU8(&kind) || !io::ReadU64Vec(in, &attrs_raw) ||
        !io::ReadU64Vec(in, &context_raw) || !in->ReadU64(&start)) {
      return truncated;
    }
    if (kind > 1) {
      return Status::InvalidArgument("unknown model unit kind byte " +
                                     std::to_string(kind));
    }
    unit.kind = kind == 0 ? ModelUnit::Kind::kHistogram
                          : ModelUnit::Kind::kDiscriminative;
    if (attrs_raw.empty()) {
      return Status::InvalidArgument("model unit has no attributes");
    }
    // Units must tile the sequence in order: unit u owns sequence
    // positions [pos, pos + |attrs|), exactly as Train partitioned it.
    if (start != pos || attrs_raw.size() > k - pos) {
      return Status::InvalidArgument("model units do not tile the sequence");
    }
    for (size_t i = 0; i < attrs_raw.size(); ++i) {
      if (attrs_raw[i] != sequence[pos + i]) {
        return Status::InvalidArgument(
            "model unit attributes do not match the sequence");
      }
      unit.attrs.push_back(static_cast<size_t>(attrs_raw[i]));
    }
    unit.start_position = static_cast<size_t>(start);
    if (unit.kind == ModelUnit::Kind::kHistogram) {
      if (!context_raw.empty()) {
        return Status::InvalidArgument("histogram unit with context");
      }
    } else {
      // Discriminative context is the full sequence prefix.
      if (context_raw.size() != pos) {
        return Status::InvalidArgument(
            "discriminative context != sequence prefix");
      }
      for (size_t i = 0; i < pos; ++i) {
        if (context_raw[i] != sequence[i]) {
          return Status::InvalidArgument(
              "discriminative context != sequence prefix");
        }
        unit.context.push_back(static_cast<size_t>(context_raw[i]));
      }
    }
    pos += unit.attrs.size();

    if (unit.kind == ModelUnit::Kind::kHistogram) {
      uint8_t has_quantizer = 0;
      if (!in->ReadU8(&has_quantizer)) return truncated;
      if (has_quantizer > 1) {
        return Status::InvalidArgument("flag byte out of range");
      }
      uint64_t expected = 0;
      if (has_quantizer != 0) {
        if (unit.attrs.size() != 1 ||
            !schema.attribute(unit.attrs[0]).is_numeric()) {
          return Status::InvalidArgument(
              "quantized histogram requires a single numeric attribute");
        }
        uint32_t bins = 0;
        if (!in->ReadU32(&bins)) return truncated;
        if (bins == 0 || bins > kMaxQuantizerBins) {
          return Status::InvalidArgument("implausible quantizer bin count " +
                                         std::to_string(bins));
        }
        KAMINO_ASSIGN_OR_RETURN(
            Quantizer quantizer,
            Quantizer::Make(schema.attribute(unit.attrs[0]),
                            static_cast<int>(bins)));
        expected = static_cast<uint64_t>(quantizer.num_bins());
        unit.quantizer = quantizer;
      } else {
        expected = 1;
        for (size_t a : unit.attrs) {
          if (!schema.attribute(a).is_categorical()) {
            return Status::InvalidArgument(
                "joint histogram over a numeric attribute");
          }
          const size_t r = schema.attribute(a).categories().size();
          if (r == 0) {
            return Status::InvalidArgument(
                "histogram attribute with empty domain");
          }
          unit.radix.push_back(r);
          expected *= r;
          if (expected > kMaxJointDomain) {
            return Status::InvalidArgument("joint histogram domain too large");
          }
        }
      }
      if (!io::ReadDoubleVec(in, &unit.distribution)) return truncated;
      if (unit.distribution.size() != expected) {
        return Status::InvalidArgument(
            "histogram size " + std::to_string(unit.distribution.size()) +
            " != domain size " + std::to_string(expected));
      }
    } else {
      // Radix exactly as FillRadix computes it post-training (a numeric
      // single target contributes 0; it is never joint-decoded).
      for (size_t a : unit.attrs) {
        unit.radix.push_back(schema.attribute(a).categories().size());
      }
      uint8_t has_private_store = 0;
      if (!in->ReadU8(&has_private_store)) return truncated;
      if (has_private_store > 1) {
        return Status::InvalidArgument("flag byte out of range");
      }
      EncoderStore* store = model.shared_store_.get();
      if (has_private_store != 0) {
        std::vector<Tensor> store_tensors;
        KAMINO_RETURN_IF_ERROR(ReadTensorList(in, &store_tensors));
        unit.private_store =
            std::make_unique<EncoderStore>(schema, embed_dim, &dummy);
        size_t store_cursor = 0;
        KAMINO_RETURN_IF_ERROR(
            unit.private_store->ImportTensors(store_tensors, &store_cursor));
        if (store_cursor != store_tensors.size()) {
          return Status::InvalidArgument(
              "trailing tensors in private encoder store");
        }
        store = unit.private_store.get();
      }
      std::vector<Tensor> head;
      KAMINO_RETURN_IF_ERROR(ReadTensorList(in, &head));
      KAMINO_ASSIGN_OR_RETURN(
          unit.model, DiscriminativeModel::Create(schema, unit.context,
                                                  unit.attrs, store, &dummy));
      size_t head_cursor = 0;
      KAMINO_RETURN_IF_ERROR(unit.model->ImportHeadTensors(head, &head_cursor));
      if (head_cursor != head.size()) {
        return Status::InvalidArgument("trailing head tensors in model unit");
      }
    }
    model.units_.push_back(std::move(unit));
  }
  if (pos != k) {
    return Status::InvalidArgument("model units do not cover the sequence");
  }
  return model;
}

size_t ProbabilisticDataModel::num_histogram_units() const {
  size_t count = 0;
  for (const ModelUnit& u : units_) {
    if (u.kind == ModelUnit::Kind::kHistogram) ++count;
  }
  return count;
}

size_t ProbabilisticDataModel::num_discriminative_units() const {
  return units_.size() - num_histogram_units();
}

}  // namespace kamino
