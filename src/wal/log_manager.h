#ifndef CLOG_WAL_LOG_MANAGER_H_
#define CLOG_WAL_LOG_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "wal/log_record.h"

/// \file
/// Per-node write-ahead log. Every node with a local disk has exactly one
/// log file holding *all* log records the node writes — for updates to its
/// own pages and to remotely owned pages alike (the paper's core idea). LSNs
/// are byte offsets into this file; LSN spaces of different nodes are
/// disjoint and never compared.

namespace clog {

class FaultInjector;
class TraceSink;

/// Append/flush interface over one log file.
///
/// Durability contract (WAL, paper Section 2.1): a log record is durable
/// once Flush() has covered its LSN. The buffer pool calls Flush(page_lsn)
/// before an updated page leaves the cache, and the transaction manager
/// calls Flush(commit_lsn) at commit.
///
/// Bounded log space (paper Section 2.5): the log has a configurable
/// capacity. Live space is `end_lsn - reclaimable_lsn`, where the
/// reclaimable LSN is the minimum RedoLSN any local DPT entry still needs
/// (advanced by the node as pages are forced and flush notifications
/// arrive). Append fails with LogFull when capacity would be exceeded,
/// triggering the node's log-space pressure protocol. The file itself is
/// append-only; reclaimed prefixes simply stop counting against capacity,
/// which preserves the paper-visible behaviour without wraparound framing.
///
/// Thread safety: one mutex guards the tail and the file. Append encodes
/// the record straight into the tail buffer under it and assigns its LSN
/// in the same critical section, so the capacity check is exact and the
/// bytes on disk are the same whichever thread appends. Flush holds it
/// across the write and the sync, and the tail buffer keeps the forced
/// bytes until both succeed, so a failed force leaves the log as it was
/// and a retry writes the same bytes at the same offset. In real mode
/// every append, force and read of a node's log runs under that node's run
/// token (net/executor.h), so the mutex is uncontended there; concurrent
/// producers, flushers and readers stay safe, and simply take turns.
/// Readers take the mutex once per block they fill (LogCursor) or per
/// record (ReadRecord). The LSN watermarks (`end_lsn`, `flushed_lsn`) and
/// `is_open()` are atomics for lock-free readers.
///
/// Orderly lifecycle methods (Open/Close) must not run concurrently with
/// appends — callers quiesce producers first, exactly as a process
/// shutdown does. Abandon is the exception by design: it is the crash,
/// and may race live producers and flushers — it waits for a running
/// force to finish, and the others observe the closed log and fail
/// cleanly.
class LogManager {
 public:
  LogManager();
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Opens (creating if absent) the log at `path`. On reopen after a crash
  /// the tail is scanned so appends continue after the last whole record.
  Status Open(const std::string& path);

  Status Close();

  /// Lock-free: observers (assertions, space accounting, benches) must not
  /// perturb the append hot path.
  bool is_open() const { return open_.load(std::memory_order_relaxed); }

  /// Closes without flushing the append buffer — simulates losing the
  /// volatile log tail in a crash (unforced records were never durable).
  void Abandon();

  /// Appends `rec`, assigning its LSN (returned through `*lsn`). The record
  /// is buffered; it becomes durable on the next covering Flush. Fails with
  /// LogFull if the bounded log has no room — unless `enforce_capacity` is
  /// false, which rollback paths use: compensation and end records must
  /// always be appendable or a full log could never drain (the classic
  /// ARIES rollback reservation).
  Status Append(const LogRecord& rec, Lsn* lsn, bool enforce_capacity = true);
  /// The same for a page update whose images are views: they are encoded
  /// straight into the tail, with no copy in between.
  Status Append(const PageUpdate& rec, Lsn* lsn, bool enforce_capacity = true);

  /// Forces all records with LSN <= `up_to` to disk (group commit: the
  /// entire buffer is written, one fsync). No-op if already durable.
  Status Flush(Lsn up_to);

  /// Random-access read of the record at `lsn` (possibly still unflushed):
  /// undo's backward walks and the checkpoint master. Returns the LSN of
  /// the following record via `*next_lsn` if non-null. Forward scans use
  /// LogCursor (wal/log_reader.h), which reads the log in blocks; this
  /// parses the one frame with a LogCursor whose reads are 512 bytes, so
  /// a typical record costs one pread.
  Status ReadRecord(Lsn lsn, LogRecord* rec, Lsn* next_lsn = nullptr);

  /// LSN that the *next* appended record will get (current logical end).
  Lsn end_lsn() const { return end_lsn_.load(std::memory_order_acquire); }

  /// Highest LSN known durable.
  Lsn flushed_lsn() const {
    return flushed_lsn_.load(std::memory_order_acquire);
  }

  /// LSN of the first valid record (after the file header).
  static constexpr Lsn first_lsn() { return kHeaderSize; }

  // --- Bounded space accounting (Section 2.5) ---

  /// Sets the capacity in bytes; 0 (default) means unbounded.
  void set_capacity(std::uint64_t bytes) {
    capacity_.store(bytes, std::memory_order_relaxed);
  }
  std::uint64_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Advances the reclaim horizon: all records before `lsn` are no longer
  /// needed for crash recovery (min RedoLSN moved past them).
  void SetReclaimableLsn(Lsn lsn);
  Lsn reclaimable_lsn() const {
    return reclaimable_lsn_.load(std::memory_order_acquire);
  }

  /// Bytes currently counted against capacity.
  std::uint64_t LiveBytes() const { return end_lsn() - reclaimable_lsn(); }

  /// True if appending `bytes` more would exceed a bounded capacity.
  /// Advisory under concurrency (the log-space pressure protocol polls
  /// it); Append repeats the check under the log mutex, so admission is
  /// exact even when observers race.
  bool WouldOverflow(std::uint64_t bytes) const {
    std::uint64_t cap = capacity();
    return cap != 0 && LiveBytes() + bytes > cap;
  }

  // --- Checkpoint master record ---

  /// Durably records the LSN of the last *complete* checkpoint's
  /// kCheckpointEnd record (atomic rename of a side file).
  Status StoreMaster(Lsn checkpoint_end_lsn);

  /// Reads the master pointer; kNullLsn if no checkpoint completed yet,
  /// Corruption if the file is damaged.
  Result<Lsn> LoadMaster() const;

  // --- Durable log-extent mark (media failure detection) ---

  /// Durably records the current flushed LSN in a side file that is modeled
  /// as living on the node's *metadata* device (with the space map), not on
  /// the log device. Written at every checkpoint. If a restart finds the
  /// log shorter than this mark, the log device was destroyed — not merely
  /// missing an unforced tail — and media recovery must treat every update
  /// the log ever held as potentially lost.
  Status StoreMark();

  /// Reads the durable mark; kNullLsn if never written, Corruption if the
  /// file is damaged.
  Result<Lsn> LoadMark() const;

  // --- Counters for benchmarks ---
  std::uint64_t appended_records() const {
    return appended_records_.load(std::memory_order_relaxed);
  }
  std::uint64_t appended_bytes() const {
    return appended_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t forces() const {
    return forces_.load(std::memory_order_relaxed);
  }
  /// pread calls issued by readers: LogCursor blocks, ReadRecord and the
  /// reopen scan. Reads served from the unflushed tail are not counted.
  std::uint64_t reads() const {
    return reads_.load(std::memory_order_relaxed);
  }

  /// Attaches a fault injector consulted on Flush (fsync failure) and
  /// Abandon (torn tail) as `node` (nullptr detaches). Not owned.
  void set_fault_injector(FaultInjector* fault, NodeId node) {
    fault_ = fault;
    node_ = node;
  }

  /// Attaches a trace sink emitting LOG_APPEND/LOG_FORCE events as `node`
  /// (nullptr detaches). Not owned.
  void set_trace_sink(TraceSink* trace, NodeId node) {
    trace_ = trace;
    trace_node_ = node;
  }

 private:
  friend class LogCursor;

  /// The master pointer and the log mark: one LSN in the record file
  /// `path_ + suffix` under the log's magic; kNullLsn if never written.
  Status StoreLsnFile(const std::string& suffix, Lsn lsn) const;
  Result<Lsn> LoadLsnFile(const std::string& suffix) const;

  static constexpr std::uint64_t kHeaderSize = 64;
  static constexpr std::uint32_t kLogMagic = 0x434C4F4C;  // "CLOL"
  /// Record framing: u32 body_len | u32 crc32c(body) | body.
  static constexpr std::size_t kFrameOverhead = 8;

  Status WriteHeader();
  Status RecoverTail();

  /// Append's body, for either record form.
  template <typename Record>
  Status AppendRecord(const Record& rec, Lsn* lsn, bool enforce_capacity);

  /// LogCursor's only source of bytes. Replaces `*block` with the log bytes
  /// from `lsn` on: `want` of them, or fewer where the part of the log
  /// holding `lsn` ends, but never fewer than `need` (else Corruption,
  /// before anything is allocated). Durable bytes come from one pread,
  /// bytes of the unflushed tail from one copy under mu_. Frames never
  /// straddle the two, because Flush moves whole frames.
  Status ReadBlock(Lsn lsn, std::size_t need, std::size_t want,
                   std::string* block);

  /// Flush body; caller holds mu_.
  Status FlushLocked(Lsn up_to);

  /// Guards fd_, buffer_, buffer_start_ — the tail — and the advance of
  /// end_lsn_. Held across a force's write and sync and across ReadBlock's
  /// pread, so Abandon cannot close the fd beneath either.
  mutable std::mutex mu_;

  std::string path_;
  int fd_ = -1;
  std::atomic<bool> open_{false};

  std::atomic<Lsn> end_lsn_{kHeaderSize};  ///< Logical end.
  std::atomic<Lsn> flushed_lsn_{0};  ///< All records < this are durable.
  Lsn buffer_start_ = kHeaderSize;   ///< LSN of first byte in `buffer_`.
  std::string buffer_;               ///< Appended-but-unflushed bytes.

  std::atomic<std::uint64_t> capacity_{0};
  std::atomic<Lsn> reclaimable_lsn_{kHeaderSize};

  std::atomic<std::uint64_t> appended_records_{0};
  std::atomic<std::uint64_t> appended_bytes_{0};
  std::atomic<std::uint64_t> forces_{0};
  std::atomic<std::uint64_t> reads_{0};

  FaultInjector* fault_ = nullptr;
  NodeId node_ = kInvalidNodeId;
  TraceSink* trace_ = nullptr;
  NodeId trace_node_ = kInvalidNodeId;
};

}  // namespace clog

#endif  // CLOG_WAL_LOG_MANAGER_H_
