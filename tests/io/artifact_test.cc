// Tests for the FittedModel artifact format (io/artifact.h): byte-identical
// round trips, the save -> load -> synthesize golden-digest contract, and
// exhaustive corruption coverage — truncation at every interesting length,
// bit flips with and without a resealed digest, digest mismatches and
// future format versions must all surface as a clean Status, never UB.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "kamino/common/logging.h"
#include "kamino/common/rng.h"
#include "kamino/core/kamino.h"
#include "kamino/core/sequencing.h"
#include "kamino/data/generators.h"
#include "kamino/io/artifact.h"
#include "kamino/io/bytes.h"
#include "kamino/runtime/thread_pool.h"
#include "kamino/service/engine.h"

namespace kamino {
namespace {

class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n) { runtime::SetGlobalNumThreads(n); }
  ~ScopedNumThreads() { runtime::SetGlobalNumThreads(0); }
};

/// Same rendering as the sharded-sampler golden test: FNV-1a over an exact
/// textual form of every cell, so equal digests mean bit-identical tables.
uint64_t TableDigest(const Table& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const char* s) {
    for (; *s; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 1099511628211ull;
    }
  };
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Value& v = t.at(r, c);
      char buf[64];
      if (v.is_numeric()) {
        std::snprintf(buf, sizeof(buf), "n:%.17g;", v.numeric());
      } else {
        std::snprintf(buf, sizeof(buf), "c:%d;", v.category());
      }
      mix(buf);
    }
  }
  return h;
}

/// Fits the exact golden-digest scenario of ShardedSamplerTest and packs
/// the stages into FitArtifacts, with the sampling engine positioned where
/// `Rng srng(17)` starts — so a seed=0 synthesis of 150 rows from these
/// artifacts must reproduce digest 0x214d31f811dbdd0f.
FitArtifacts MakeGoldenArtifacts() {
  BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 12;
  options.mcmc_resamples = 48;
  options.seed = 31;
  Rng rng(31);
  FitArtifacts fitted;
  fitted.model = ProbabilisticDataModel::Train(ds.table, sequence, options,
                                               &rng)
                     .TakeValue();
  fitted.weighted = constraints;
  fitted.sequence = fitted.model.sequence();
  for (const WeightedConstraint& wc : constraints) {
    fitted.dc_weights.push_back(wc.EffectiveWeight());
  }
  fitted.resolved_options = options;
  fitted.epsilon_spent = 0.25;
  fitted.input_rows = ds.table.num_rows();
  fitted.fit_timings.sequencing = 0.5;
  fitted.fit_timings.training = 1.25;
  fitted.fit_timings.num_threads = 1;
  fitted.sampling_engine = std::mt19937_64(17);
  return fitted;
}

/// A deliberately small fitted model (3 attributes, embed_dim 4) so the
/// corruption fuzz loops can afford to attack many offsets.
FitArtifacts MakeTinyArtifacts() {
  Schema schema({Attribute::MakeCategorical("color", {"red", "green", "blue"}),
                 Attribute::MakeCategorical("tone", {"warm", "cool"}),
                 Attribute::MakeNumeric("x", 0, 10, 11)});
  Table table(schema);
  for (int i = 0; i < 24; ++i) {
    table.AppendRowUnchecked({Value::Categorical(i % 3),
                              Value::Categorical((i / 3) % 2),
                              Value::Numeric(i % 11)});
  }
  auto constraints =
      ParseConstraints({"!(t1.color == t2.color & t1.tone != t2.tone)"},
                       {false}, schema)
          .TakeValue();
  KaminoOptions options;
  options.non_private = true;
  options.embed_dim = 4;
  options.iterations = 2;
  options.seed = 3;
  auto sequence = SequenceSchema(schema, constraints);
  Rng rng(3);
  FitArtifacts fitted;
  fitted.model =
      ProbabilisticDataModel::Train(table, sequence, options, &rng).TakeValue();
  fitted.weighted = constraints;
  fitted.sequence = fitted.model.sequence();
  for (const WeightedConstraint& wc : constraints) {
    fitted.dc_weights.push_back(wc.EffectiveWeight());
  }
  fitted.resolved_options = options;
  fitted.input_rows = table.num_rows();
  fitted.sampling_engine = std::mt19937_64(9);
  return fitted;
}

TEST(ArtifactTest, RoundTripIsByteIdentical) {
  ScopedNumThreads threads(1);
  FitArtifacts fitted = MakeTinyArtifacts();
  const std::vector<uint8_t> first = io::SerializeFitArtifacts(fitted);
  auto reloaded = io::DeserializeFitArtifacts(first);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const std::vector<uint8_t> second =
      io::SerializeFitArtifacts(reloaded.value());
  EXPECT_EQ(first, second) << "save -> load -> save changed the bytes";
}

TEST(ArtifactTest, RoundTripPreservesEveryField) {
  ScopedNumThreads threads(1);
  FitArtifacts fitted = MakeGoldenArtifacts();
  auto reloaded =
      io::DeserializeFitArtifacts(io::SerializeFitArtifacts(fitted));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const FitArtifacts& got = reloaded.value();
  EXPECT_EQ(got.sequence, fitted.sequence);
  EXPECT_EQ(got.dc_weights, fitted.dc_weights);
  EXPECT_EQ(got.weighted.size(), fitted.weighted.size());
  for (size_t i = 0; i < got.weighted.size(); ++i) {
    EXPECT_EQ(got.weighted[i].weight, fitted.weighted[i].weight);
    EXPECT_EQ(got.weighted[i].hard, fitted.weighted[i].hard);
    EXPECT_EQ(got.weighted[i].dc.ToString(got.model.schema()),
              fitted.weighted[i].dc.ToString(fitted.model.schema()));
  }
  EXPECT_EQ(got.resolved_options.seed, fitted.resolved_options.seed);
  EXPECT_EQ(got.resolved_options.mcmc_resamples,
            fitted.resolved_options.mcmc_resamples);
  EXPECT_EQ(got.resolved_options.non_private,
            fitted.resolved_options.non_private);
  EXPECT_EQ(got.epsilon_spent, fitted.epsilon_spent);
  EXPECT_EQ(got.input_rows, fitted.input_rows);
  EXPECT_EQ(got.fit_timings.sequencing, fitted.fit_timings.sequencing);
  EXPECT_EQ(got.fit_timings.training, fitted.fit_timings.training);
  EXPECT_EQ(got.fit_timings.num_threads, fitted.fit_timings.num_threads);
  EXPECT_TRUE(got.sampling_engine == fitted.sampling_engine);
}

TEST(ArtifactTest, SaveLoadSynthesizeReproducesGoldenDigest) {
  // The acceptance contract: fit on one engine, save, load in a fresh
  // engine, synthesize with the fit's RNG snapshot (seed = 0) — the
  // output must be bit-identical to the monolithic golden run.
  ScopedNumThreads threads(1);
  const std::string path =
      ::testing::TempDir() + "/kamino_artifact_golden.kam";
  {
    FittedModel model = FittedModel::FromArtifacts(MakeGoldenArtifacts());
    ASSERT_TRUE(model.Save(path).ok());
  }
  KaminoEngine fresh;
  auto loaded = fresh.LoadModel("golden", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SynthesisRequest request;
  request.num_rows = 150;
  request.seed = 0;  // resume the fit RNG snapshot
  auto result = fresh.Synthesize("golden", request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  char actual[32];
  std::snprintf(actual, sizeof(actual), "0x%016" PRIx64,
                TableDigest(result.value().synthetic));
  EXPECT_EQ(std::string(actual), "0x214d31f811dbdd0f")
      << "loaded model diverged from the golden sequential run";
}

// Options-section offset just past `num_shards`: eleven u64/double
// fields, two u32s (quantize_bins, max_candidates), the non_private flag,
// mcmc_resamples and the two domain thresholds, six flag bytes, then
// ar_max_tries / num_threads / num_shards.
constexpr size_t kAfterNumShards = 11 * 8 + 2 * 4 + 1 + 3 * 8 + 6 + 3 * 8;
// The retired `compress_chunks` flag byte of a v2 options section: after
// the two trace/metrics flags and trace_capacity_events. The retired u64
// registry capacity follows it.
constexpr size_t kRetiredCompressFlag = kAfterNumShards + 2 + 8;

/// Rebuilds a current (v2) artifact as format `version` after `edit`
/// rewrote its options section: the section and payload lengths, the
/// version and the digest are recomputed.
std::vector<uint8_t> ReframeOptions(
    const std::vector<uint8_t>& v2, uint32_t version,
    const std::function<void(std::vector<uint8_t>*)>& edit) {
  io::ByteReader in(v2.data(), v2.size());
  const uint8_t* magic = nullptr;
  uint32_t current = 0;
  uint64_t payload_len = 0;
  EXPECT_TRUE(in.ReadBytes(&magic, 8) && in.ReadU32(&current) &&
              in.ReadU64(&payload_len));
  EXPECT_EQ(current, 2u);
  std::vector<uint8_t> payload;
  for (bool first = true; in.remaining() > 8; first = false) {
    uint32_t id = 0;
    uint64_t len = 0;
    const uint8_t* body = nullptr;
    EXPECT_TRUE(in.ReadU32(&id) && in.ReadU64(&len) &&
                in.ReadBytes(&body, static_cast<size_t>(len)));
    std::vector<uint8_t> section(body, body + len);
    if (first) {
      // Guard the offsets: the u64 just before kAfterNumShards is
      // num_shards (1).
      io::ByteReader shards(section.data() + kAfterNumShards - 8, 8);
      uint64_t num_shards = 0;
      EXPECT_TRUE(shards.ReadU64(&num_shards));
      EXPECT_EQ(num_shards, 1u);
      edit(&section);
    }
    io::AppendU32(&payload, id);
    io::AppendU64(&payload, section.size());
    payload.insert(payload.end(), section.begin(), section.end());
  }
  std::vector<uint8_t> out(io::kArtifactMagic, io::kArtifactMagic + 8);
  io::AppendU32(&out, version);
  io::AppendU64(&out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  io::AppendU64(&out, io::DigestBytes(payload.data(), payload.size()));
  return out;
}

/// Re-frames a current (v2) artifact as format version 1: re-inserts the
/// three retired shard-merge knobs into the options section right after
/// `num_shards` — a u64 resample budget and two flag bytes, here the old
/// defaults 64 / true / true unless `flag_byte` overrides the first flag.
std::vector<uint8_t> ReframeAsV1(const std::vector<uint8_t>& v2,
                                 uint8_t flag_byte = 1) {
  return ReframeOptions(v2, 1, [flag_byte](std::vector<uint8_t>* section) {
    std::vector<uint8_t> retired;
    io::AppendU64(&retired, 64);
    io::AppendU8(&retired, flag_byte);
    io::AppendU8(&retired, 1);
    section->insert(section->begin() + kAfterNumShards, retired.begin(),
                    retired.end());
  });
}

/// Re-seals a v2 artifact with its two retired option slots set to
/// `compress_flag` and `capacity` (canonically 0 and 8).
std::vector<uint8_t> WithRetiredV2Slots(const std::vector<uint8_t>& v2,
                                        uint8_t compress_flag,
                                        uint64_t capacity) {
  return ReframeOptions(v2, 2, [&](std::vector<uint8_t>* section) {
    EXPECT_EQ((*section)[kRetiredCompressFlag], 0u);
    (*section)[kRetiredCompressFlag] = compress_flag;
    std::vector<uint8_t> slot;
    io::AppendU64(&slot, capacity);
    std::copy(slot.begin(), slot.end(),
              section->begin() + kRetiredCompressFlag + 1);
  });
}

TEST(ArtifactTest, LoadsVersionOneArtifacts) {
  // Readers keep accepting every version they know: a v1 artifact (with
  // the retired shard-merge knobs in its options section) loads, its
  // flag bytes are still validated, and it reproduces the golden digest.
  ScopedNumThreads threads(1);
  const std::vector<uint8_t> v1 =
      ReframeAsV1(io::SerializeFitArtifacts(MakeGoldenArtifacts()));
  auto loaded = FittedModel::Deserialize(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().resolved_options().mcmc_resamples, 48u);
  EXPECT_EQ(loaded.value().resolved_options().seed, 31u);
  KaminoEngine engine;
  SynthesisRequest request;
  request.num_rows = 150;
  request.seed = 0;  // resume the fit RNG snapshot
  auto result = engine.Synthesize(loaded.value(), request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  char actual[32];
  std::snprintf(actual, sizeof(actual), "0x%016" PRIx64,
                TableDigest(result.value().synthetic));
  EXPECT_EQ(std::string(actual), "0x214d31f811dbdd0f")
      << "v1 artifact diverged from the golden sequential run";
  // Re-serializing writes the current version.
  auto bytes = loaded.value().Serialize();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), io::SerializeFitArtifacts(MakeGoldenArtifacts()));

  const std::vector<uint8_t> bad_flag = ReframeAsV1(
      io::SerializeFitArtifacts(MakeGoldenArtifacts()), /*flag_byte=*/2);
  auto rejected = io::DeserializeFitArtifacts(bad_flag);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("flag"), std::string::npos)
      << rejected.status().ToString();
}

TEST(ArtifactTest, VersionTwoRetiredOptionSlotsAreValidatedAndDiscarded) {
  // A v2 artifact written while `compress_chunks` and the registry
  // capacity were fit options: the slots are validated, then dropped — it
  // loads, samples the golden digest and re-serializes canonically.
  ScopedNumThreads threads(1);
  const std::vector<uint8_t> canonical =
      io::SerializeFitArtifacts(MakeGoldenArtifacts());
  auto loaded = FittedModel::Deserialize(
      WithRetiredV2Slots(canonical, /*compress_flag=*/1, /*capacity=*/3));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  KaminoEngine engine;
  SynthesisRequest request;
  request.num_rows = 150;
  request.seed = 0;  // resume the fit RNG snapshot
  auto result = engine.Synthesize(loaded.value(), request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  char actual[32];
  std::snprintf(actual, sizeof(actual), "0x%016" PRIx64,
                TableDigest(result.value().synthetic));
  EXPECT_EQ(std::string(actual), "0x214d31f811dbdd0f");
  auto bytes = loaded.value().Serialize();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), canonical);

  auto rejected = io::DeserializeFitArtifacts(
      WithRetiredV2Slots(canonical, /*compress_flag=*/2, /*capacity=*/8));
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("flag"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_FALSE(io::DeserializeFitArtifacts(
                   WithRetiredV2Slots(canonical, /*compress_flag=*/0,
                                      /*capacity=*/0))
                   .ok());
}

TEST(ArtifactTest, LoadedModelOwnsAllState) {
  // The ownership contract: a loaded model aliases nothing. Destroying
  // every input (the artifact bytes included) must leave it fully usable.
  ScopedNumThreads threads(1);
  FittedModel model;
  {
    FitArtifacts fitted = MakeTinyArtifacts();
    std::vector<uint8_t> bytes = io::SerializeFitArtifacts(fitted);
    auto loaded = FittedModel::Deserialize(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    model = loaded.value();
    // Scribble over the source buffer, then drop it and the fit inputs.
    std::fill(bytes.begin(), bytes.end(), 0xAA);
  }
  KaminoEngine engine;
  SynthesisRequest request;
  request.num_rows = 20;
  request.seed = 11;
  auto a = engine.Synthesize(model, request);
  auto b = engine.Synthesize(model, request);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value().synthetic.num_rows(), 20u);
  EXPECT_EQ(TableDigest(a.value().synthetic), TableDigest(b.value().synthetic));
}

TEST(ArtifactTest, RejectsTruncation) {
  ScopedNumThreads threads(1);
  const std::vector<uint8_t> bytes =
      io::SerializeFitArtifacts(MakeTinyArtifacts());
  ASSERT_GT(bytes.size(), io::kArtifactEnvelopeBytes);
  // Every prefix through the envelope and the first section headers, then
  // strided prefixes across the rest of the payload.
  std::vector<size_t> lengths;
  for (size_t n = 0; n < std::min<size_t>(bytes.size(), 96); ++n) {
    lengths.push_back(n);
  }
  for (size_t n = 96; n < bytes.size(); n += 61) lengths.push_back(n);
  lengths.push_back(bytes.size() - 1);
  for (const size_t n : lengths) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + n);
    auto result = io::DeserializeFitArtifacts(cut);
    EXPECT_FALSE(result.ok()) << "accepted a " << n << "-byte truncation";
    // Also with a resealed envelope, so truncation inside a section has
    // to be caught structurally, not just by the digest.
    if (io::ResealArtifact(&cut)) {
      auto resealed = io::DeserializeFitArtifacts(cut);
      EXPECT_FALSE(resealed.ok())
          << "accepted a resealed " << n << "-byte truncation";
    }
  }
}

TEST(ArtifactTest, RejectsBitFlips) {
  ScopedNumThreads threads(1);
  const std::vector<uint8_t> bytes =
      io::SerializeFitArtifacts(MakeTinyArtifacts());
  for (size_t pos = 0; pos < bytes.size(); pos += 13) {
    std::vector<uint8_t> mutated = bytes;
    mutated[pos] ^= 1u << (pos % 8);
    auto result = io::DeserializeFitArtifacts(mutated);
    // Without resealing, the digest (or the header checks, for envelope
    // offsets) must catch every flip.
    EXPECT_FALSE(result.ok()) << "accepted a bit flip at offset " << pos;
  }
}

TEST(ArtifactTest, ResealedBitFlipsNeverCrash) {
  // Behind a valid digest, flipped payload bytes exercise the structural
  // validation: every mutation must come back as either a clean error or
  // a well-formed parse — never UB (the real assertion is running this
  // fuzz under ASan/UBSan in CI).
  ScopedNumThreads threads(1);
  const std::vector<uint8_t> bytes =
      io::SerializeFitArtifacts(MakeTinyArtifacts());
  size_t rejected = 0;
  size_t parsed = 0;
  for (size_t pos = io::kArtifactEnvelopeBytes - 8; pos + 8 < bytes.size();
       pos += 7) {
    std::vector<uint8_t> mutated = bytes;
    mutated[pos] ^= 1u << (pos % 8);
    ASSERT_TRUE(io::ResealArtifact(&mutated));
    auto result = io::DeserializeFitArtifacts(mutated);
    if (result.ok()) {
      ++parsed;
    } else {
      ++rejected;
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  // Most flips land in tensor payloads (harmless value changes), but the
  // structural checks must fire for at least some of them.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(parsed, 0u);
}

TEST(ArtifactTest, RejectsDigestMismatch) {
  ScopedNumThreads threads(1);
  std::vector<uint8_t> bytes = io::SerializeFitArtifacts(MakeTinyArtifacts());
  bytes.back() ^= 0xFF;  // corrupt the stored digest itself
  auto result = io::DeserializeFitArtifacts(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("digest"), std::string::npos)
      << result.status().ToString();
}

TEST(ArtifactTest, RejectsFutureVersion) {
  ScopedNumThreads threads(1);
  // Version little-endian at offset 8: the next version (3), a far
  // future one (127), and the never-issued version 0.
  for (const uint8_t version : {uint8_t{3}, uint8_t{0x7F}, uint8_t{0}}) {
    std::vector<uint8_t> bytes =
        io::SerializeFitArtifacts(MakeTinyArtifacts());
    bytes[8] = version;
    auto result = io::DeserializeFitArtifacts(bytes);
    ASSERT_FALSE(result.ok()) << "accepted version " << int{version};
    EXPECT_NE(result.status().message().find("version"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(ArtifactTest, RejectsBadMagic) {
  ScopedNumThreads threads(1);
  std::vector<uint8_t> bytes = io::SerializeFitArtifacts(MakeTinyArtifacts());
  bytes[0] = 'X';
  auto result = io::DeserializeFitArtifacts(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("magic"), std::string::npos)
      << result.status().ToString();
}

TEST(ArtifactTest, RejectsEmptyAndEnvelopeOnly) {
  EXPECT_FALSE(io::DeserializeFitArtifacts({}).ok());
  std::vector<uint8_t> envelope(io::kArtifactEnvelopeBytes, 0);
  EXPECT_FALSE(io::DeserializeFitArtifacts(envelope).ok());
}

TEST(ArtifactTest, EmptyHandleSaveFails) {
  FittedModel empty;
  const Status s = empty.Save(::testing::TempDir() + "/never_written.kam");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(empty.Serialize().ok());
}

TEST(ArtifactTest, LoadMissingFileFails) {
  auto result =
      FittedModel::Load(::testing::TempDir() + "/no_such_artifact.kam");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(ArtifactTest, RngStateRejectsGarbage) {
  std::mt19937_64 engine(42);
  const std::mt19937_64 before = engine;
  RngState bad;
  bad.text = "not an mt19937_64 dump";
  EXPECT_FALSE(RestoreEngine(bad, &engine).ok());
  EXPECT_TRUE(engine == before) << "failed restore mutated the engine";
  // And the snapshot of a used engine round-trips mid-stream.
  engine.discard(37);
  auto snap = SnapshotEngine(engine);
  std::mt19937_64 restored;
  ASSERT_TRUE(RestoreEngine(snap, &restored).ok());
  EXPECT_EQ(engine(), restored());
}

TEST(ArtifactTest, SchemaFromStateValidates) {
  SchemaState state;
  AttributeState attr;
  attr.name = "a";
  attr.type = 7;  // neither categorical (0) nor numeric (1)
  state.attributes.push_back(attr);
  EXPECT_FALSE(Schema::FromState(state).ok());

  state.attributes[0].type = 1;
  state.attributes[0].min_value = 5;
  state.attributes[0].max_value = 1;  // inverted bounds
  EXPECT_FALSE(Schema::FromState(state).ok());

  state.attributes[0].max_value = 9;
  state.attributes.push_back(state.attributes[0]);  // duplicate name
  EXPECT_FALSE(Schema::FromState(state).ok());
}

TEST(ArtifactTest, ConstraintFromStateValidates) {
  Schema schema({Attribute::MakeCategorical("c", {"a", "b"}),
                 Attribute::MakeNumeric("n", 0, 10, 11)});
  DenialConstraintState state;
  PredicateState pred;
  pred.lhs_tuple = 0;
  pred.lhs_attr = 99;  // out of range
  pred.op = 0;
  pred.rhs_is_constant = 0;
  pred.rhs_tuple = 1;
  pred.rhs_attr = 0;
  state.predicates.push_back(pred);
  EXPECT_FALSE(DenialConstraint::FromState(state, schema).ok());

  state.predicates[0].lhs_attr = 0;
  state.predicates[0].rhs_attr = 1;  // categorical vs numeric kind flip
  EXPECT_FALSE(DenialConstraint::FromState(state, schema).ok());

  state.predicates[0].rhs_attr = 0;
  auto ok = DenialConstraint::FromState(state, schema);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace kamino
