#ifndef KAMINO_IO_ARTIFACT_H_
#define KAMINO_IO_ARTIFACT_H_

// Versioned binary wire format for fitted Kamino models (FitArtifacts):
//
//   [8]  magic  "KAMINOFM"
//   [4]  u32    format version (currently 2; versions 1 and 2 are read,
//               any other is rejected)
//   [8]  u64    payload length in bytes
//   [..] payload: length-prefixed sections, in this fixed order:
//          1 options      resolved KaminoOptions, every knob
//          2 model        schema, sequence, encoder tensors, units
//          3 constraints  weighted DC set (predicates + weight + hardness)
//          4 sequence     sequencing order (must match the model's)
//          5 dc_weights   learned per-constraint weights
//          6 rng          fit RNG snapshot (mt19937_64 state)
//          7 meta         epsilon_spent, input_rows, fit timings
//        each section is [u32 id][u64 len][len bytes]
//   [8]  u64    splitmix64 integrity digest over the payload
//
// Everything is little-endian (io/bytes.h primitives). Deserialization is
// fully validating: truncation, digest mismatches, unknown versions, and
// structural tampering (arity/kind flips, non-permutation sequences,
// tensor shape mismatches) are rejected with a Status — never undefined
// behavior — and all derived model state is recomputed from the schema
// rather than trusted from the wire. A save -> load -> save round trip is
// byte-identical.

#include <cstdint>
#include <string>
#include <vector>

#include "kamino/common/status.h"
#include "kamino/core/pipeline.h"

namespace kamino {
namespace io {

inline constexpr uint8_t kArtifactMagic[8] = {'K', 'A', 'M', 'I',
                                              'N', 'O', 'F', 'M'};
/// Version written by this build. Version 1 differs only in its options
/// section, which carried three since-removed shard-merge knobs; it still
/// loads (the knobs are validated and discarded).
inline constexpr uint32_t kArtifactVersion = 2;
/// Header (magic + version + payload length) plus trailing digest.
inline constexpr size_t kArtifactEnvelopeBytes = 8 + 4 + 8 + 8;

/// Serializes fitted artifacts to the wire format above. The model must be
/// trained (a default-constructed FitArtifacts is not serializable).
std::vector<uint8_t> SerializeFitArtifacts(const FitArtifacts& artifacts);

/// Parses and validates an artifact. Returns InvalidArgument for any
/// corruption or tampering the format can detect.
Result<FitArtifacts> DeserializeFitArtifacts(const std::vector<uint8_t>& bytes);

/// File forms. I/O failures surface as IoError, format failures as
/// InvalidArgument.
Status SaveFitArtifacts(const FitArtifacts& artifacts, const std::string& path);
Result<FitArtifacts> LoadFitArtifacts(const std::string& path);

/// Test helper: rewrites the header payload length and the trailing digest
/// of `bytes` so they match its current (possibly mutated) payload. Lets
/// corruption tests reach the structural validation *behind* the digest
/// check. Returns false when `bytes` is too short to carry the envelope.
bool ResealArtifact(std::vector<uint8_t>* bytes);

}  // namespace io
}  // namespace kamino

#endif  // KAMINO_IO_ARTIFACT_H_
