#ifndef KAMINO_DATA_CHUNK_CODEC_H_
#define KAMINO_DATA_CHUNK_CODEC_H_

#include <cstdint>
#include <vector>

#include "kamino/common/status.h"
#include "kamino/data/table.h"

namespace kamino {

/// Compressed wire encoding of a table chunk's columns, used by the
/// streaming delivery path when `SampleSpec::compress_chunks` is set.
///
/// The payload is self-contained per chunk: a fixed header (row and column
/// counts) followed by one independently encoded block per column. Each
/// block picks the smallest of a few simple schemes:
///
///  - categorical columns: constant code, frame-of-reference bit-packed
///    codes (offset from the chunk-local minimum, just enough bits for the
///    range), or run-length runs — dictionary codes compress hard because
///    attribute domains are small;
///  - numeric columns: constant, frame-of-reference bit-packed integers
///    (only when every value is integral and the range fits), run-length
///    runs over raw bit patterns, or plain 8-byte bit patterns.
///
/// Round trips are bit-exact: numeric payloads travel as IEEE-754 bit
/// patterns (NaN payloads and -0.0 survive; the integer fast path excludes
/// them), so DecodeChunkColumns reproduces the input table cell for cell.
std::vector<uint8_t> EncodeChunkColumns(const Table& rows);

/// Decodes a buffer produced by `EncodeChunkColumns` into a table over
/// `schema`. Returns InvalidArgument for truncated or mismatched payloads
/// (wrong column count/kind for the schema).
Result<Table> DecodeChunkColumns(const Schema& schema,
                                 const std::vector<uint8_t>& bytes);

/// The fixed header every encoded chunk payload starts with.
struct ChunkHeader {
  uint64_t rows = 0;
  uint32_t columns = 0;
};

/// Validates and returns the header of an encoded chunk payload without
/// decoding the column blocks. The spill store uses this to cross-check a
/// block's framed row count against the payload it seals before the bytes
/// ever reach disk. Returns InvalidArgument on a truncated header or an
/// empty-chunk payload carrying trailing bytes.
Result<ChunkHeader> PeekChunkHeader(const std::vector<uint8_t>& bytes);

/// Bytes the same rows occupy as boxed `Value` cells (the row-oriented
/// in-memory form a raw delivery hands over) — the baseline compression
/// ratios are quoted against.
size_t RawChunkBytes(const Table& rows);

}  // namespace kamino

#endif  // KAMINO_DATA_CHUNK_CODEC_H_
