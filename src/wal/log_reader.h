#ifndef CLOG_WAL_LOG_READER_H_
#define CLOG_WAL_LOG_READER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

/// \file
/// Scans over a node's local log: a forward cursor (analysis, redo,
/// NodePSNList construction, the reopen scan) and a backward
/// per-transaction cursor (rollback / undo via prev_lsn chains).

namespace clog {

/// Forward sequential scan starting at a given LSN.
///
/// The cursor reads the log in blocks. One pread fills its buffer with
/// `block_size` bytes, or with the whole frame if that is larger; bytes
/// still in the log's unflushed tail come from one copy taken under the
/// log mutex instead. Frames are parsed out
/// of the buffer: the length is bounded by end_lsn() before anything is
/// read or allocated for it, the CRC is verified, and records decode
/// straight from the buffer. Bytes at an LSN never change while the log
/// is open, so a buffered block stays valid; Next fails once the log is
/// closed. LogManager::ReadRecord is the random-access path over the same
/// parser. A cursor is used by one thread at a time; any number of
/// cursors may scan one log while it is appended to.
class LogCursor {
 public:
  /// Bytes one read fetches when the frame fits.
  static constexpr std::size_t kBlockSize = 64 * 1024;

  /// Positions the cursor at `start`. `log` must outlive the cursor.
  LogCursor(LogManager* log, Lsn start, std::size_t block_size = kBlockSize)
      : log_(log), next_(start), block_size_(block_size) {}

  /// Reads the next record. Returns false at end of log; `*status` (if
  /// non-null) distinguishes clean end (OK) from corruption.
  bool Next(LogRecord* rec, Lsn* lsn, Status* status = nullptr);

  /// Like Next, but yields the frame's CRC-checked, undecoded body. The
  /// view points into the cursor's buffer and is valid until the next
  /// call.
  bool NextFrame(Slice* body, Lsn* lsn, Status* status = nullptr);

  /// LSN the next call to Next() would read.
  Lsn position() const { return next_; }

  /// Records returned so far (benchmark metric: log records scanned).
  std::uint64_t records_read() const { return records_read_; }

 private:
  /// Parses the frame at next_ into `*body` without moving the cursor. OK
  /// with an empty body is the clean end of the log: a frame's body is
  /// never empty.
  Status ReadFrame(Slice* body);

  /// Makes the buffer hold the `n` bytes from next_ on.
  Status Load(std::size_t n);

  /// Moves past the frame ReadFrame parsed if `st` is OK and it was one.
  bool Advance(const Status& st, std::size_t body_size, Lsn* lsn,
               Status* status);

  LogManager* log_;
  Lsn next_;
  std::size_t block_size_;
  std::string block_;  ///< Log bytes [block_start_, block_start_ + size).
  Lsn block_start_ = kNullLsn;
  std::uint64_t records_read_ = 0;
};

/// Backward walk of one transaction's records via prev_lsn pointers.
/// Undo uses this; when a CLR is met the walk jumps to its undo_next_lsn so
/// already-compensated work is skipped (ARIES).
class TxnBackwardCursor {
 public:
  /// Starts at the transaction's most recent record.
  TxnBackwardCursor(LogManager* log, Lsn last_lsn)
      : log_(log), next_(last_lsn) {}

  /// Reads the previous record in the chain. Returns false when the chain
  /// is exhausted (reached kBegin or null LSN).
  bool Prev(LogRecord* rec, Lsn* lsn, Status* status = nullptr);

  /// True if positioned past the beginning.
  bool Done() const { return next_ == kNullLsn; }

 private:
  LogManager* log_;
  Lsn next_;
};

}  // namespace clog

#endif  // CLOG_WAL_LOG_READER_H_
