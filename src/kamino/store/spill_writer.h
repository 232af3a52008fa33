#ifndef KAMINO_STORE_SPILL_WRITER_H_
#define KAMINO_STORE_SPILL_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kamino/common/status.h"

namespace kamino::store {

/// Size of the writer's accumulation buffer. Blocks smaller than this
/// coalesce into one write(); larger appends drain through it in aligned
/// slabs.
inline constexpr size_t kSpillBufferBytes = 256 * 1024;

/// Mid-stream write() calls are issued in multiples of this, so every
/// syscall except the final tail flush lands on an aligned file offset.
inline constexpr size_t kSpillWriteAlignment = 4096;

/// Buffered append-only writer over a POSIX file descriptor, used by the
/// spill store to lay frozen-slice blocks onto disk with few large
/// alignment-friendly write() calls instead of one syscall per field.
///
/// Append copies into an internal buffer and drains it in
/// `kSpillWriteAlignment`-multiples once it holds at least
/// `kSpillBufferBytes`, carrying the unaligned tail over; Flush writes
/// whatever remains (the only write allowed to end unaligned). ENOSPC and
/// short writes surface as `Status::IoError` carrying the errno detail —
/// never a crash — and latch the writer into a failed state that rejects
/// further appends with the same status.
///
/// The writer borrows the descriptor; the owner (SpillStore) closes it.
/// Not thread-safe: the shard-freeze coordinator is the only writer.
class SpillWriter {
 public:
  SpillWriter(int fd, std::string path_for_errors);

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Appends `size` bytes. May issue zero or more aligned write() calls.
  Status Append(const uint8_t* data, size_t size);
  Status Append(const std::vector<uint8_t>& bytes) {
    return Append(bytes.data(), bytes.size());
  }

  /// Drains the buffered tail to the file. Idempotent.
  Status Flush();

  /// Logical bytes appended so far (buffered or written).
  uint64_t offset() const { return offset_; }

 private:
  /// write()-until-done loop; latches `failed_` on error.
  Status WriteAll(const uint8_t* data, size_t size);

  int fd_;
  std::string path_;
  std::vector<uint8_t> buffer_;
  uint64_t offset_ = 0;
  Status failed_;
};

}  // namespace kamino::store

#endif  // KAMINO_STORE_SPILL_WRITER_H_
