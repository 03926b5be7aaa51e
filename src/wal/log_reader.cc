#include "wal/log_reader.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/crc32c.h"

namespace clog {

bool LogCursor::Next(LogRecord* rec, Lsn* lsn, Status* status) {
  Slice body;
  Status st = ReadFrame(&body);
  if (st.ok() && !body.empty()) st = LogRecord::DecodeFrom(body, rec);
  return Advance(st, body.size(), lsn, status);
}

bool LogCursor::NextFrame(Slice* body, Lsn* lsn, Status* status) {
  const Status st = ReadFrame(body);
  return Advance(st, body->size(), lsn, status);
}

bool LogCursor::Advance(const Status& st, std::size_t body_size, Lsn* lsn,
                        Status* status) {
  if (status != nullptr) *status = st;
  if (!st.ok() || body_size == 0) return false;
  if (lsn != nullptr) *lsn = next_;
  next_ += LogManager::kFrameOverhead + body_size;
  ++records_read_;
  return true;
}

Status LogCursor::ReadFrame(Slice* body) {
  *body = Slice();
  const Lsn end = log_->end_lsn();
  if (next_ >= end) return Status::OK();
  if (!log_->is_open()) return Status::FailedPrecondition("log not open");
  if (next_ < LogManager::first_lsn()) {
    return Status::NotFound("lsn " + std::to_string(next_) + " out of range");
  }
  constexpr std::size_t kHeader = LogManager::kFrameOverhead;
  const std::uint64_t room = end - next_;
  if (room < kHeader) {
    return Status::Corruption("log frame header at lsn " +
                              std::to_string(next_) + " runs past the log end");
  }
  CLOG_RETURN_IF_ERROR(Load(kHeader));
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  const char* frame = block_.data() + (next_ - block_start_);
  std::memcpy(&len, frame, 4);
  std::memcpy(&crc, frame + 4, 4);
  // Bounded before anything is read or allocated for it: a garbled length
  // cannot make the cursor read or buffer past the log.
  if (len == 0 || len > room - kHeader) {
    return Status::Corruption("log frame at lsn " + std::to_string(next_) +
                              ": body length " + std::to_string(len) +
                              " runs past the log end");
  }
  CLOG_RETURN_IF_ERROR(Load(kHeader + len));
  const char* data = block_.data() + (next_ - block_start_) + kHeader;
  if (crc32c::Value(data, len) != crc) {
    return Status::Corruption("log record crc mismatch at lsn " +
                              std::to_string(next_));
  }
  *body = Slice(data, len);
  return Status::OK();
}

Status LogCursor::Load(std::size_t n) {
  if (next_ >= block_start_ && next_ - block_start_ + n <= block_.size()) {
    return Status::OK();
  }
  block_start_ = next_;
  return log_->ReadBlock(next_, n, std::max(n, block_size_), &block_);
}

bool TxnBackwardCursor::Prev(LogRecord* rec, Lsn* lsn, Status* status) {
  if (status != nullptr) *status = Status::OK();
  if (next_ == kNullLsn) return false;
  Lsn here = next_;
  Status st = log_->ReadRecord(here, rec);
  if (!st.ok()) {
    if (status != nullptr) *status = st;
    return false;
  }
  if (lsn != nullptr) *lsn = here;
  // CLRs skip over the compensated suffix.
  next_ = rec->type == LogRecordType::kClr ? rec->undo_next_lsn
                                           : rec->prev_lsn;
  return true;
}

}  // namespace clog
