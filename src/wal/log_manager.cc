#include "wal/log_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/fsutil.h"
#include "fault/fault_injector.h"
#include "trace/trace_sink.h"
#include "wal/log_reader.h"

namespace clog {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// ReadRecord's read: covers a typical record's whole frame, so random
// access costs one pread; a larger frame costs a second.
constexpr std::size_t kRandomReadSize = 512;

}  // namespace

LogManager::LogManager() = default;

LogManager::~LogManager() {
  // No flush: losing the volatile tail at destruction is the
  // crash-consistency contract.
  if (fd_ >= 0) ::close(fd_);
}

Status LogManager::Open(const std::string& path) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ >= 0) return Status::FailedPrecondition("already open");
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) return Status::IOError(Errno("open " + path));
    fd_ = fd;
    path_ = path;
    struct stat st;
    if (::fstat(fd_, &st) != 0) return Status::IOError(Errno("fstat"));
    std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
    if (size == 0) {
      CLOG_RETURN_IF_ERROR(WriteHeader());
      size = kHeaderSize;
    }
    // The whole file counts as durable until RecoverTail has scanned it.
    end_lsn_ = size;
    flushed_lsn_ = size;
    buffer_start_ = size;
    buffer_.clear();
    reclaimable_lsn_ = kHeaderSize;
    open_.store(true, std::memory_order_release);
  }
  Status st = RecoverTail();
  if (!st.ok()) {
    open_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lk(mu_);
    ::close(fd_);
    fd_ = -1;
  }
  return st;
}

Status LogManager::WriteHeader() {
  std::string hdr;
  Encoder enc(&hdr);
  enc.PutU32(kLogMagic);
  enc.PutU32(1);  // version
  hdr.resize(kHeaderSize, '\0');
  if (::pwrite(fd_, hdr.data(), hdr.size(), 0) !=
      static_cast<ssize_t>(hdr.size())) {
    return Status::IOError(Errno("pwrite log header"));
  }
  if (::fdatasync(fd_) != 0) return Status::IOError(Errno("fdatasync"));
  return Status::OK();
}

Status LogManager::RecoverTail() {
  // Walk whole frames from the header until a torn/invalid frame or EOF
  // (Open set end_lsn_ to the file size); the end LSN is the end of the
  // last valid frame. A torn tail (crash in mid-write) is expected and
  // silently truncated, per standard WAL practice: anything past the last
  // complete frame was never acknowledged. A failed read is not a torn
  // frame, so it fails the open instead of truncating durable records.
  LogCursor cursor(this, first_lsn());
  Slice body;
  Status scan;
  while (cursor.NextFrame(&body, nullptr, &scan)) {
  }
  if (!scan.ok() && !scan.IsCorruption()) return scan;
  const Lsn end = cursor.position();
  std::lock_guard<std::mutex> lk(mu_);
  end_lsn_ = end;
  flushed_lsn_ = end;
  buffer_start_ = end;
  if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
    return Status::IOError(Errno("ftruncate torn log tail"));
  }
  return Status::OK();
}

Status LogManager::Close() {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ < 0) return Status::OK();
  Status st = FlushLocked(end_lsn_.load(std::memory_order_acquire));
  open_.store(false, std::memory_order_release);
  ::close(fd_);
  fd_ = -1;
  return st;
}

void LogManager::Abandon() {
  // Crash semantics: stop accepting work first, so producers racing the
  // crash fail cleanly instead of appending to a dying tail.
  open_.store(false, std::memory_order_release);
  // A running force holds mu_ until its sync returns, so the fd cannot go
  // away beneath it.
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ < 0) return;
  if (fault_ != nullptr && !buffer_.empty()) {
    // A real crash can leave any prefix of the in-flight tail on the
    // platter, possibly garbled. None of these bytes were ever covered by
    // a successful Flush, so whatever survives is legal under WAL: reopen
    // scans whole frames and truncates at the first torn one.
    FaultInjector::TornTail tear = fault_->OnAbandon(node_, buffer_.size());
    if (tear.tear && tear.keep_bytes > 0) {
      std::string tail = buffer_.substr(0, tear.keep_bytes);
      if (tear.corrupt_last) tail.back() ^= 0x5A;
      // Best effort, like the crash it simulates.
      ::pwrite(fd_, tail.data(), tail.size(),
               static_cast<off_t>(buffer_start_));
    }
  }
  ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

Status LogManager::Append(const LogRecord& rec, Lsn* lsn,
                          bool enforce_capacity) {
  return AppendRecord(rec, lsn, enforce_capacity);
}

Status LogManager::Append(const PageUpdate& rec, Lsn* lsn,
                          bool enforce_capacity) {
  return AppendRecord(rec, lsn, enforce_capacity);
}

template <typename Record>
Status LogManager::AppendRecord(const Record& rec, Lsn* lsn,
                                bool enforce_capacity) {
  if (!open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("log not open");
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("log not open");
  // Zero-copy append: reserve the 8-byte frame header, encode the body
  // directly into the tail buffer, then backfill len + crc. No per-record
  // temporary string, no second memcpy.
  const std::size_t base = buffer_.size();
  buffer_.append(kFrameOverhead, '\0');
  rec.EncodeTo(&buffer_);
  const std::size_t body_size = buffer_.size() - base - kFrameOverhead;
  const std::uint64_t frame_size = body_size + kFrameOverhead;
  // mu_ serializes every advance of end_lsn_, so the capacity check is
  // exact however many threads append.
  const Lsn start = end_lsn_.load(std::memory_order_relaxed);
  const std::uint64_t cap = capacity();
  if (enforce_capacity && cap != 0 &&
      start + frame_size - reclaimable_lsn() > cap) {
    buffer_.resize(base);  // The refused record leaves no trace.
    return Status::LogFull("log capacity " + std::to_string(cap) +
                           " bytes exhausted");
  }
  std::uint32_t len = static_cast<std::uint32_t>(body_size);
  std::uint32_t crc =
      crc32c::Value(buffer_.data() + base + kFrameOverhead, body_size);
  std::memcpy(buffer_.data() + base, &len, 4);
  std::memcpy(buffer_.data() + base + 4, &crc, 4);
  *lsn = start;
  end_lsn_.store(start + frame_size, std::memory_order_release);
  appended_records_.fetch_add(1, std::memory_order_relaxed);
  appended_bytes_.fetch_add(frame_size, std::memory_order_relaxed);
  if (trace_ != nullptr) {
    trace_->Emit(trace_node_, TraceEventType::kLogAppend, *lsn, frame_size,
                 static_cast<std::uint32_t>(rec.type));
  }
  return Status::OK();
}

Status LogManager::Flush(Lsn up_to) {
  std::lock_guard<std::mutex> lk(mu_);
  return FlushLocked(up_to);
}

Status LogManager::FlushLocked(Lsn up_to) {
  if (fd_ < 0) return Status::FailedPrecondition("log not open");
  // flushed_lsn_ is the end of the durable prefix: a record is durable iff
  // its start LSN lies strictly before it.
  if (up_to < flushed_lsn_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  // Group commit: one write, one fsync for the whole buffer.
  if (buffer_.empty()) return Status::OK();
  if (fault_ != nullptr && fault_->OnLogSync(node_)) {
    // Fails before any byte reaches the file: the records stay buffered
    // and flushed_lsn_ is unchanged, so a later retry is sound — but the
    // harness fail-stops the node instead (I/O errors on the WAL are not
    // survivable in place).
    return Status::IOError("fault injection: log force failed");
  }
  // The buffer gives up its bytes only once they are written and synced:
  // after a failed write or sync they are still the tail, and a retry
  // writes them again at the same offset.
  const std::size_t n = buffer_.size();
  if (::pwrite(fd_, buffer_.data(), n, static_cast<off_t>(buffer_start_)) !=
      static_cast<ssize_t>(n)) {
    return Status::IOError(Errno("pwrite log"));
  }
  if (::fdatasync(fd_) != 0) return Status::IOError(Errno("fdatasync log"));
  const Lsn written_end = buffer_start_ + n;
  buffer_start_ = written_end;
  buffer_.clear();  // Keeps its capacity for the next appends.
  if (trace_ != nullptr) {
    trace_->Emit(trace_node_, TraceEventType::kLogForce, written_end, n);
  }
  flushed_lsn_.store(written_end, std::memory_order_release);
  forces_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status LogManager::ReadRecord(Lsn lsn, LogRecord* rec, Lsn* next_lsn) {
  if (!is_open()) return Status::FailedPrecondition("log not open");
  LogCursor cursor(this, lsn, kRandomReadSize);
  Status st;
  if (!cursor.Next(rec, nullptr, &st)) {
    // The cursor's clean end: `lsn` is at or past the end of the log.
    return st.ok() ? Status::NotFound("lsn " + std::to_string(lsn) +
                                      " out of range")
                   : st;
  }
  if (next_lsn != nullptr) *next_lsn = cursor.position();
  return Status::OK();
}

Status LogManager::ReadBlock(Lsn lsn, std::size_t need, std::size_t want,
                             std::string* block) {
  block->clear();
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("log not open");
  // The log's bytes live in two parts: the durable file before
  // buffer_start_ and the tail buffer from it on.
  if (lsn >= buffer_start_) {
    const std::size_t off = static_cast<std::size_t>(lsn - buffer_start_);
    if (off + need > buffer_.size()) {
      return Status::Corruption("log frame at lsn " + std::to_string(lsn) +
                                " runs past the buffered tail");
    }
    block->assign(buffer_.data() + off, std::min(want, buffer_.size() - off));
    return Status::OK();
  }
  if (lsn + need > buffer_start_) {
    return Status::Corruption("log frame at lsn " + std::to_string(lsn) +
                              " runs past the durable log");
  }
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(want, buffer_start_ - lsn));
  block->resize(n);
  reads_.fetch_add(1, std::memory_order_relaxed);
  const ssize_t got =
      ::pread(fd_, block->data(), n, static_cast<off_t>(lsn));
  if (got != static_cast<ssize_t>(n)) {
    block->clear();
    return Status::IOError(got < 0 ? Errno("pread log")
                                   : "pread log: short read at lsn " +
                                         std::to_string(lsn));
  }
  return Status::OK();
}

void LogManager::SetReclaimableLsn(Lsn lsn) {
  // Monotonic max; the CAS loop makes concurrent advances keep the larger.
  Lsn cur = reclaimable_lsn_.load(std::memory_order_relaxed);
  while (lsn > cur && !reclaimable_lsn_.compare_exchange_weak(
                          cur, lsn, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
}

Status LogManager::StoreLsnFile(const std::string& suffix, Lsn lsn) const {
  std::string body;
  Encoder(&body).PutU64(lsn);
  return WriteRecordFile(path_ + suffix, kLogMagic, body);
}

Result<Lsn> LogManager::LoadLsnFile(const std::string& suffix) const {
  std::string body;
  Status st = ReadRecordFile(path_ + suffix, kLogMagic, &body);
  if (st.IsNotFound()) return kNullLsn;
  CLOG_RETURN_IF_ERROR(st);
  std::uint64_t lsn = 0;
  CLOG_RETURN_IF_ERROR(Decoder(body).GetU64(&lsn));
  return lsn;
}

Status LogManager::StoreMaster(Lsn checkpoint_end_lsn) {
  // Crash-atomic replace: recovery trusts this pointer; a torn or vanished
  // master would silently discard the checkpoint.
  return StoreLsnFile(".master", checkpoint_end_lsn);
}

Result<Lsn> LogManager::LoadMaster() const { return LoadLsnFile(".master"); }

Status LogManager::StoreMark() {
  return StoreLsnFile(".mark", flushed_lsn_.load(std::memory_order_acquire));
}

Result<Lsn> LogManager::LoadMark() const { return LoadLsnFile(".mark"); }

}  // namespace clog
