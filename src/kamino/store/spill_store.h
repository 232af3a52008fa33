#ifndef KAMINO_STORE_SPILL_STORE_H_
#define KAMINO_STORE_SPILL_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kamino/common/status.h"
#include "kamino/data/table.h"
#include "kamino/store/spill_writer.h"

namespace kamino::store {

/// On-disk spill format version. Bump on any layout change; readers reject
/// versions they do not understand.
inline constexpr uint32_t kSpillFormatVersion = 1;

/// Per-block frame magic ("Kamino SPill Block").
inline constexpr uint8_t kSpillBlockMagic[4] = {'K', 'S', 'P', 'B'};

/// Fixed framing bytes around each block's payload:
/// 4 magic + 4 version + 8 rows + 8 payload length before it, 8 digest after.
inline constexpr size_t kSpillBlockFramingBytes = 4 + 4 + 8 + 8 + 8;

/// Append-only store of frozen-slice spill blocks for sharded synthesis.
///
/// Each block is one frozen shard slice, already encoded by the chunk codec
/// (`EncodeChunkColumns`), sealed into a self-validating frame:
///
/// | bytes | field                                             |
/// |-------|---------------------------------------------------|
/// | 4     | magic "KSPB"                                      |
/// | 4     | u32 format version                                |
/// | 8     | u64 row count of the slice                        |
/// | 8     | u64 payload length                                |
/// | ...   | chunk-codec payload                               |
/// | 8     | u64 digest over everything above (io::DigestBytes)|
///
/// Blocks live in a single append-only file inside a store-private temp
/// directory (`mkdtemp` under the caller's hint, else $TMPDIR, else /tmp),
/// written through `SpillWriter`'s aligned buffered appends. Reads are
/// fully validating — magic, version, framed row count, length, digest,
/// then the codec's own checks — so truncation or bit flips surface as a
/// `Status`, never as silently wrong rows.
///
/// The destructor closes the descriptor and best-effort unlinks the file
/// and directory, which covers job completion, cancellation (the store
/// lives on the synthesis stack and unwinds with it), and engine
/// destruction (joining a cancelled job unwinds the same stack).
///
/// Not thread-safe: the shard-freeze coordinator thread is the only
/// caller.
class SpillStore {
 public:
  /// Location and shape of one sealed block inside the spill file.
  struct BlockMeta {
    uint64_t offset = 0;  // file offset of the frame's first byte
    uint64_t length = 0;  // framed length, payload + kSpillBlockFramingBytes
    uint64_t rows = 0;    // rows carried by the payload
  };

  /// Creates the temp directory and the spill file. `dir_hint` is the
  /// parent for the store's private directory; empty means $TMPDIR or
  /// /tmp. Fails with IoError if the directory or file cannot be created.
  static Result<std::unique_ptr<SpillStore>> Create(
      const std::string& dir_hint);

  ~SpillStore();

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Seals `payload` (an `EncodeChunkColumns` buffer carrying `rows` rows)
  /// into a framed block and appends it. The payload header's row count is
  /// cross-checked against `rows` before anything is written.
  Status AppendBlock(const std::vector<uint8_t>& payload, uint64_t rows);

  /// Reads block `index` back, validating the full frame (magic, version,
  /// row count, length, digest) before decoding the payload against
  /// `schema`. Flushes pending buffered writes first.
  Result<Table> ReadBlock(size_t index, const Schema& schema);

  /// Reads block `index`'s raw codec payload (frame validated, payload not
  /// decoded). Synthesis does not call it: a compressed chunk reuses the
  /// payload encoded for the spill instead of reading it back.
  Result<std::vector<uint8_t>> ReadBlockPayload(size_t index);

  size_t block_count() const { return blocks_.size(); }
  const BlockMeta& block(size_t index) const { return blocks_[index]; }

  /// Total rows across all sealed blocks.
  uint64_t spilled_rows() const { return spilled_rows_; }
  /// Total file bytes appended (payloads + framing).
  uint64_t spilled_bytes() const { return writer_->offset(); }

  const std::string& file_path() const { return file_path_; }
  const std::string& dir_path() const { return dir_path_; }

 private:
  SpillStore(int fd, std::string dir_path, std::string file_path);

  /// pread()-until-done of `length` bytes at `offset`.
  Status ReadExact(uint64_t offset, uint64_t length,
                   std::vector<uint8_t>* out) const;

  /// Validates block `index`'s frame and returns its payload bytes.
  Result<std::vector<uint8_t>> ReadValidatedPayload(size_t index);

  int fd_;
  std::string dir_path_;
  std::string file_path_;
  std::unique_ptr<SpillWriter> writer_;
  std::vector<BlockMeta> blocks_;
  uint64_t spilled_rows_ = 0;
};

}  // namespace kamino::store

#endif  // KAMINO_STORE_SPILL_STORE_H_
