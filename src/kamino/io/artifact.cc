#include "kamino/io/artifact.h"

#include <cstring>
#include <fstream>

#include "kamino/common/logging.h"
#include "kamino/core/weights.h"
#include "kamino/io/bytes.h"

namespace kamino {
namespace io {
namespace {

enum SectionId : uint32_t {
  kSectionOptions = 1,
  kSectionModel = 2,
  kSectionConstraints = 3,
  kSectionSequence = 4,
  kSectionDcWeights = 5,
  kSectionRng = 6,
  kSectionMeta = 7,
};

Status Truncated() { return Status::InvalidArgument("artifact truncated"); }

Status BadFlag() {
  return Status::InvalidArgument("artifact flag byte out of range");
}

bool ReadBool(ByteReader* in, bool* v, bool* flag_ok) {
  uint8_t b = 0;
  if (!in->ReadU8(&b)) return false;
  if (b > 1) {
    *flag_ok = false;
    return true;
  }
  *v = b != 0;
  return true;
}

// --- options section -------------------------------------------------------
// Every knob, in declaration order. Bools travel as 0/1 bytes; signed
// integers as their two's-complement u64/u32 bit patterns. Retired knobs
// keep their slots, which readers validate and discard:
//  - v1 only: three shard-merge knobs after `num_shards` (a u64 resample
//    budget and two flag bytes);
//  - v1 and v2: a `compress_chunks` flag byte and a u64 registry capacity
//    (>= 1) after `trace_capacity_events`, now per-request or engine
//    settings. Written as 0 and 8.

void SerializeOptions(const KaminoOptions& o, std::vector<uint8_t>* out) {
  AppendU64(out, o.embed_dim);
  AppendU32(out, static_cast<uint32_t>(o.quantize_bins));
  AppendDouble(out, o.learning_rate);
  AppendDouble(out, o.sigma_g);
  AppendDouble(out, o.sigma_d);
  AppendDouble(out, o.clip_norm);
  AppendU64(out, o.batch_size);
  AppendU64(out, o.iterations);
  AppendDouble(out, o.sigma_w);
  AppendU64(out, o.weight_sample);
  AppendU64(out, o.weight_iterations);
  AppendU64(out, o.weight_batch);
  AppendU8(out, o.non_private ? 1 : 0);
  AppendU32(out, static_cast<uint32_t>(o.max_candidates));
  AppendU64(out, o.mcmc_resamples);
  AppendU64(out, static_cast<uint64_t>(o.large_domain_threshold));
  AppendU64(out, static_cast<uint64_t>(o.group_domain_threshold));
  AppendU8(out, o.enable_grouping ? 1 : 0);
  AppendU8(out, o.enable_fd_fast_path ? 1 : 0);
  AppendU8(out, o.parallel_training ? 1 : 0);
  AppendU8(out, o.constraint_aware_sampling ? 1 : 0);
  AppendU8(out, o.random_sequence ? 1 : 0);
  AppendU8(out, o.accept_reject ? 1 : 0);
  AppendU64(out, o.ar_max_tries);
  AppendU64(out, o.num_threads);
  AppendU64(out, o.num_shards);
  AppendU8(out, o.enable_tracing ? 1 : 0);
  AppendU8(out, o.enable_metrics ? 1 : 0);
  AppendU64(out, o.trace_capacity_events);
  AppendU8(out, 0);
  AppendU64(out, 8);
  AppendU64(out, o.seed);
}

Result<KaminoOptions> DeserializeOptions(ByteReader* in, uint32_t version) {
  KaminoOptions o;
  bool flags_ok = true;
  bool retired_flag = false;
  uint64_t retired_u64 = 0;
  uint32_t quantize_bins = 0;
  uint32_t max_candidates = 0;
  uint64_t u64 = 0;
  const bool ok =
      in->ReadU64(&u64) && ((o.embed_dim = static_cast<size_t>(u64)), true) &&
      in->ReadU32(&quantize_bins) && in->ReadDouble(&o.learning_rate) &&
      in->ReadDouble(&o.sigma_g) && in->ReadDouble(&o.sigma_d) &&
      in->ReadDouble(&o.clip_norm) && in->ReadU64(&u64) &&
      ((o.batch_size = static_cast<size_t>(u64)), true) && in->ReadU64(&u64) &&
      ((o.iterations = static_cast<size_t>(u64)), true) &&
      in->ReadDouble(&o.sigma_w) && in->ReadU64(&u64) &&
      ((o.weight_sample = static_cast<size_t>(u64)), true) &&
      in->ReadU64(&u64) &&
      ((o.weight_iterations = static_cast<size_t>(u64)), true) &&
      in->ReadU64(&u64) &&
      ((o.weight_batch = static_cast<size_t>(u64)), true) &&
      ReadBool(in, &o.non_private, &flags_ok) && in->ReadU32(&max_candidates) &&
      in->ReadU64(&u64) &&
      ((o.mcmc_resamples = static_cast<size_t>(u64)), true) &&
      in->ReadU64(&u64) &&
      ((o.large_domain_threshold = static_cast<int64_t>(u64)), true) &&
      in->ReadU64(&u64) &&
      ((o.group_domain_threshold = static_cast<int64_t>(u64)), true) &&
      ReadBool(in, &o.enable_grouping, &flags_ok) &&
      ReadBool(in, &o.enable_fd_fast_path, &flags_ok) &&
      ReadBool(in, &o.parallel_training, &flags_ok) &&
      ReadBool(in, &o.constraint_aware_sampling, &flags_ok) &&
      ReadBool(in, &o.random_sequence, &flags_ok) &&
      ReadBool(in, &o.accept_reject, &flags_ok) && in->ReadU64(&u64) &&
      ((o.ar_max_tries = static_cast<size_t>(u64)), true) &&
      in->ReadU64(&u64) && ((o.num_threads = static_cast<size_t>(u64)), true) &&
      in->ReadU64(&u64) && ((o.num_shards = static_cast<size_t>(u64)), true) &&
      (version >= 2 || (in->ReadU64(&u64) &&
                        ReadBool(in, &retired_flag, &flags_ok) &&
                        ReadBool(in, &retired_flag, &flags_ok))) &&
      ReadBool(in, &o.enable_tracing, &flags_ok) &&
      ReadBool(in, &o.enable_metrics, &flags_ok) && in->ReadU64(&u64) &&
      ((o.trace_capacity_events = static_cast<size_t>(u64)), true) &&
      ReadBool(in, &retired_flag, &flags_ok) && in->ReadU64(&retired_u64) &&
      in->ReadU64(&o.seed);
  if (!ok) return Truncated();
  if (!flags_ok) return BadFlag();
  if (retired_u64 == 0) {
    return Status::InvalidArgument(
        "artifact model registry capacity must be >= 1");
  }
  o.quantize_bins = static_cast<int>(quantize_bins);
  o.max_candidates = static_cast<int>(max_candidates);
  KAMINO_RETURN_IF_ERROR(o.Validate());
  return o;
}

// --- meta section -----------------------------------------------------------

void SerializeMeta(const FitArtifacts& a, std::vector<uint8_t>* out) {
  AppendDouble(out, a.epsilon_spent);
  AppendU64(out, a.input_rows);
  AppendDouble(out, a.fit_timings.sequencing);
  AppendDouble(out, a.fit_timings.parameter_search);
  AppendDouble(out, a.fit_timings.training);
  AppendDouble(out, a.fit_timings.violation_matrix);
  AppendDouble(out, a.fit_timings.sampling);
  AppendDouble(out, a.fit_timings.shard_merge);
  AppendU64(out, a.fit_timings.num_threads);
  AppendU64(out, a.fit_timings.num_shards);
}

Status DeserializeMeta(ByteReader* in, FitArtifacts* a) {
  uint64_t input_rows = 0;
  uint64_t num_threads = 0;
  uint64_t num_shards = 0;
  if (!in->ReadDouble(&a->epsilon_spent) || !in->ReadU64(&input_rows) ||
      !in->ReadDouble(&a->fit_timings.sequencing) ||
      !in->ReadDouble(&a->fit_timings.parameter_search) ||
      !in->ReadDouble(&a->fit_timings.training) ||
      !in->ReadDouble(&a->fit_timings.violation_matrix) ||
      !in->ReadDouble(&a->fit_timings.sampling) ||
      !in->ReadDouble(&a->fit_timings.shard_merge) ||
      !in->ReadU64(&num_threads) || !in->ReadU64(&num_shards)) {
    return Truncated();
  }
  a->input_rows = static_cast<size_t>(input_rows);
  a->fit_timings.num_threads = static_cast<size_t>(num_threads);
  a->fit_timings.num_shards = static_cast<size_t>(num_shards);
  return Status::OK();
}

// --- section framing --------------------------------------------------------

void AppendSection(uint32_t id, const std::vector<uint8_t>& body,
                   std::vector<uint8_t>* out) {
  AppendU32(out, id);
  AppendU64(out, body.size());
  out->insert(out->end(), body.begin(), body.end());
}

/// Opens the next section, requiring its id to be `want`. On success the
/// section body is exposed through `section`.
Status OpenSection(ByteReader* in, uint32_t want, ByteReader* section) {
  uint32_t id = 0;
  uint64_t len = 0;
  if (!in->ReadU32(&id) || !in->ReadU64(&len)) return Truncated();
  if (id != want) {
    return Status::InvalidArgument(
        "artifact section " + std::to_string(id) + " where section " +
        std::to_string(want) + " was expected");
  }
  const uint8_t* body = nullptr;
  if (len > in->remaining() || !in->ReadBytes(&body, static_cast<size_t>(len))) {
    return Truncated();
  }
  *section = ByteReader(body, static_cast<size_t>(len));
  return Status::OK();
}

Status CloseSection(const ByteReader& section, const char* name) {
  if (!section.exhausted()) {
    return Status::InvalidArgument(std::string("trailing bytes in artifact ") +
                                   name + " section");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> SerializeFitArtifacts(const FitArtifacts& artifacts) {
  std::vector<uint8_t> payload;
  std::vector<uint8_t> body;

  SerializeOptions(artifacts.resolved_options, &body);
  AppendSection(kSectionOptions, body, &payload);
  body.clear();

  artifacts.model.SerializeTo(&body);
  AppendSection(kSectionModel, body, &payload);
  body.clear();

  AppendU32(&body, static_cast<uint32_t>(artifacts.weighted.size()));
  for (const WeightedConstraint& wc : artifacts.weighted) {
    wc.dc.SerializeTo(&body);
    AppendDouble(&body, wc.weight);
    AppendU8(&body, wc.hard ? 1 : 0);
  }
  AppendSection(kSectionConstraints, body, &payload);
  body.clear();

  AppendU64Vec(&body, std::vector<uint64_t>(artifacts.sequence.begin(),
                                            artifacts.sequence.end()));
  AppendSection(kSectionSequence, body, &payload);
  body.clear();

  DcWeightsState weights{artifacts.dc_weights};
  weights.SerializeTo(&body);
  AppendSection(kSectionDcWeights, body, &payload);
  body.clear();

  AppendString(&body, SnapshotEngine(artifacts.sampling_engine).text);
  AppendSection(kSectionRng, body, &payload);
  body.clear();

  SerializeMeta(artifacts, &body);
  AppendSection(kSectionMeta, body, &payload);

  std::vector<uint8_t> out;
  out.reserve(kArtifactEnvelopeBytes + payload.size());
  out.insert(out.end(), kArtifactMagic, kArtifactMagic + 8);
  AppendU32(&out, kArtifactVersion);
  AppendU64(&out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  AppendU64(&out, DigestBytes(payload.data(), payload.size()));
  return out;
}

Result<FitArtifacts> DeserializeFitArtifacts(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kArtifactEnvelopeBytes) return Truncated();
  ByteReader in(bytes.data(), bytes.size());
  const uint8_t* magic = nullptr;
  if (!in.ReadBytes(&magic, 8) || std::memcmp(magic, kArtifactMagic, 8) != 0) {
    return Status::InvalidArgument("bad artifact magic");
  }
  uint32_t version = 0;
  uint64_t payload_len = 0;
  if (!in.ReadU32(&version) || !in.ReadU64(&payload_len)) return Truncated();
  if (version < 1 || version > kArtifactVersion) {
    return Status::InvalidArgument(
        "unsupported artifact format version " + std::to_string(version) +
        " (this build reads versions 1 to " +
        std::to_string(kArtifactVersion) + ")");
  }
  if (payload_len != bytes.size() - kArtifactEnvelopeBytes) {
    return Status::InvalidArgument("artifact payload length mismatch");
  }
  const uint8_t* payload = nullptr;
  uint64_t stored_digest = 0;
  if (!in.ReadBytes(&payload, static_cast<size_t>(payload_len)) ||
      !in.ReadU64(&stored_digest) || !in.exhausted()) {
    return Truncated();
  }
  if (DigestBytes(payload, static_cast<size_t>(payload_len)) !=
      stored_digest) {
    return Status::InvalidArgument("artifact digest mismatch (corrupt payload)");
  }

  ByteReader body(payload, static_cast<size_t>(payload_len));
  FitArtifacts artifacts;
  ByteReader section(nullptr, 0);

  KAMINO_RETURN_IF_ERROR(OpenSection(&body, kSectionOptions, &section));
  KAMINO_ASSIGN_OR_RETURN(artifacts.resolved_options,
                          DeserializeOptions(&section, version));
  KAMINO_RETURN_IF_ERROR(CloseSection(section, "options"));

  KAMINO_RETURN_IF_ERROR(OpenSection(&body, kSectionModel, &section));
  KAMINO_ASSIGN_OR_RETURN(artifacts.model,
                          ProbabilisticDataModel::DeserializeFrom(&section));
  KAMINO_RETURN_IF_ERROR(CloseSection(section, "model"));
  const Schema& schema = artifacts.model.schema();

  KAMINO_RETURN_IF_ERROR(OpenSection(&body, kSectionConstraints, &section));
  uint32_t num_constraints = 0;
  if (!section.ReadU32(&num_constraints)) return Truncated();
  if (num_constraints > section.remaining()) return Truncated();
  artifacts.weighted.reserve(num_constraints);
  for (uint32_t i = 0; i < num_constraints; ++i) {
    WeightedConstraint wc;
    KAMINO_ASSIGN_OR_RETURN(wc.dc,
                            DenialConstraint::DeserializeFrom(&section, schema));
    uint8_t hard = 0;
    if (!section.ReadDouble(&wc.weight) || !section.ReadU8(&hard)) {
      return Truncated();
    }
    if (hard > 1) return BadFlag();
    wc.hard = hard != 0;
    artifacts.weighted.push_back(std::move(wc));
  }
  KAMINO_RETURN_IF_ERROR(CloseSection(section, "constraints"));

  KAMINO_RETURN_IF_ERROR(OpenSection(&body, kSectionSequence, &section));
  std::vector<uint64_t> seq_raw;
  if (!ReadU64Vec(&section, &seq_raw)) return Truncated();
  KAMINO_RETURN_IF_ERROR(CloseSection(section, "sequence"));
  if (seq_raw.size() != artifacts.model.sequence().size()) {
    return Status::InvalidArgument(
        "artifact sequence does not match the model's sequence");
  }
  artifacts.sequence.reserve(seq_raw.size());
  for (size_t i = 0; i < seq_raw.size(); ++i) {
    if (seq_raw[i] != artifacts.model.sequence()[i]) {
      return Status::InvalidArgument(
          "artifact sequence does not match the model's sequence");
    }
    artifacts.sequence.push_back(static_cast<size_t>(seq_raw[i]));
  }

  KAMINO_RETURN_IF_ERROR(OpenSection(&body, kSectionDcWeights, &section));
  KAMINO_ASSIGN_OR_RETURN(
      DcWeightsState weights,
      DcWeightsState::DeserializeFrom(&section, artifacts.weighted.size()));
  artifacts.dc_weights = std::move(weights.weights);
  KAMINO_RETURN_IF_ERROR(CloseSection(section, "dc_weights"));

  KAMINO_RETURN_IF_ERROR(OpenSection(&body, kSectionRng, &section));
  RngState rng_state;
  if (!section.ReadString(&rng_state.text)) return Truncated();
  KAMINO_RETURN_IF_ERROR(CloseSection(section, "rng"));
  KAMINO_RETURN_IF_ERROR(RestoreEngine(rng_state, &artifacts.sampling_engine));

  KAMINO_RETURN_IF_ERROR(OpenSection(&body, kSectionMeta, &section));
  KAMINO_RETURN_IF_ERROR(DeserializeMeta(&section, &artifacts));
  KAMINO_RETURN_IF_ERROR(CloseSection(section, "meta"));

  if (!body.exhausted()) {
    return Status::InvalidArgument("trailing bytes after last artifact section");
  }
  return artifacts;
}

Status SaveFitArtifacts(const FitArtifacts& artifacts,
                        const std::string& path) {
  const std::vector<uint8_t> bytes = SerializeFitArtifacts(artifacts);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) {
    return Status::IoError("failed to write artifact to '" + path + "'");
  }
  return Status::OK();
}

Result<FitArtifacts> LoadFitArtifacts(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IoError("failed to read artifact from '" + path + "'");
  }
  return DeserializeFitArtifacts(bytes);
}

bool ResealArtifact(std::vector<uint8_t>* bytes) {
  if (bytes->size() < kArtifactEnvelopeBytes) return false;
  const size_t payload_len = bytes->size() - kArtifactEnvelopeBytes;
  uint8_t* data = bytes->data();
  for (int i = 0; i < 8; ++i) {
    data[12 + i] = (static_cast<uint64_t>(payload_len) >> (8 * i)) & 0xff;
  }
  const uint64_t digest = DigestBytes(data + 20, payload_len);
  for (int i = 0; i < 8; ++i) {
    data[bytes->size() - 8 + i] = (digest >> (8 * i)) & 0xff;
  }
  return true;
}

}  // namespace io
}  // namespace kamino
