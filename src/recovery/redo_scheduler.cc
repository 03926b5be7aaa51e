#include "recovery/redo_scheduler.h"

#include <map>
#include <numeric>

#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace clog {

namespace {

/// Little-endian u64 at `p` — matches the update-record header layout
/// (wal/log_record.cc): type u8 | txn u64 | prev u64 | page u64 |
/// psn_before u64 | op u8 | slot u16.
inline std::uint64_t LoadU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}
constexpr std::size_t kUpdateHeaderSize = 36;
constexpr std::size_t kTxnOffset = 1;
constexpr std::size_t kPageOffset = 17;

inline bool IsUpdateType(std::uint8_t t) {
  return t == static_cast<std::uint8_t>(LogRecordType::kUpdate) ||
         t == static_cast<std::uint8_t>(LogRecordType::kClr) ||
         t == static_cast<std::uint8_t>(LogRecordType::kLogicalUpdate);
}

/// Union-find over chain vertices: tasks (pages) first, transactions
/// appended lazily behind them.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t Add() {
    parent_.push_back(parent_.size());
    return parent_.size() - 1;
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// One routed frame: checksummed by the scan, decoded by the replay.
struct RoutedFrame {
  std::size_t task = 0;  ///< Index into *tasks.
  std::string body;
};

/// Replays one chain: decode, apply-when-PSN-matches, in LSN order.
Status ReplayChain(const std::vector<RoutedFrame*>& frames,
                   std::vector<RedoPageTask>* tasks) {
  for (const RoutedFrame* f : frames) {
    LogRecord rec;
    CLOG_RETURN_IF_ERROR(LogRecord::DecodeFrom(f->body, &rec));
    RedoPageTask& task = (*tasks)[f->task];
    if (rec.psn_before == task.page->psn()) {
      CLOG_RETURN_IF_ERROR(ApplyRedo(rec, task.page));
      ++task.applied;
    }
    // Below the page's PSN: already reflected in the base image. Above it
    // cannot occur — self-only pages have no other contributor to fill
    // the gap, and a gapped history was poisoned before scheduling.
  }
  return Status::OK();
}

}  // namespace

Status RedoScheduler::Run(std::vector<RedoPageTask>* tasks,
                          RedoScheduleStats* stats) {
  *stats = RedoScheduleStats();
  if (tasks->empty()) return Status::OK();

  std::map<PageId, std::size_t> task_of_page;
  Lsn scan_start = kNullLsn;
  for (std::size_t i = 0; i < tasks->size(); ++i) {
    const RedoPageTask& t = (*tasks)[i];
    task_of_page[t.pid] = i;
    if (t.start_lsn == kNullLsn) continue;
    if (scan_start == kNullLsn || t.start_lsn < scan_start) {
      scan_start = t.start_lsn;
    }
  }
  if (scan_start == kNullLsn) return Status::OK();  // Nothing to scan.

  // --- Single raw pass: route frames, grow the dependency graph. ---
  Dsu dsu(tasks->size());
  std::map<TxnId, std::size_t> txn_vertex;
  auto vertex_of = [&](TxnId txn) {
    auto [it, inserted] = txn_vertex.try_emplace(txn, 0);
    if (inserted) it->second = dsu.Add();
    return it->second;
  };
  std::vector<RoutedFrame> routed;
  LogCursor cursor(log_, scan_start);
  Slice body;
  Lsn lsn = kNullLsn;
  Status scan_status;
  while (cursor.NextFrame(&body, &lsn, &scan_status)) {
    const std::uint8_t type8 = static_cast<std::uint8_t>(body[0]);
    if (IsUpdateType(type8)) {
      if (body.size() < kUpdateHeaderSize) {
        return Status::Corruption("short update frame at lsn " +
                                  std::to_string(lsn));
      }
      const PageId pid = PageId::Unpack(LoadU64(body.data() + kPageOffset));
      const TxnId txn = LoadU64(body.data() + kTxnOffset);
      auto it = task_of_page.find(pid);
      if (it != task_of_page.end() &&
          (*tasks)[it->second].start_lsn != kNullLsn &&
          lsn >= (*tasks)[it->second].start_lsn) {
        const bool skip =
            type8 ==
                static_cast<std::uint8_t>(LogRecordType::kLogicalUpdate) &&
            skip_txns_->count(txn) != 0;
        if (!skip) {
          dsu.Union(it->second, vertex_of(txn));
          routed.push_back(RoutedFrame{it->second, body.ToString()});
        }
      }
    } else if (type8 == static_cast<std::uint8_t>(LogRecordType::kCommit)) {
      // Dependency edges ride on adaptive commit records: the committing
      // transaction follows its predecessors, so their chains must not
      // split. (Cheap decode: commit bodies are a few dozen bytes.)
      LogRecord rec;
      CLOG_RETURN_IF_ERROR(LogRecord::DecodeFrom(body, &rec));
      if (!rec.commit_deps.empty()) {
        const std::size_t me = vertex_of(rec.txn);
        for (const CommitDep& d : rec.commit_deps) {
          dsu.Union(me, vertex_of(d.txn));
        }
      }
    }
  }
  CLOG_RETURN_IF_ERROR(scan_status);
  stats->records_routed = routed.size();

  // --- Partition into chains (stable: scan order == LSN order). ---
  std::map<std::size_t, std::vector<RoutedFrame*>> chains;
  for (RoutedFrame& f : routed) {
    chains[dsu.Find(f.task)].push_back(&f);
  }
  stats->chains = chains.size();

  // --- Replay chain by chain. Chains are page-disjoint, so their order
  // cannot change any page's bytes. ---
  for (const auto& [root, frames] : chains) {
    CLOG_RETURN_IF_ERROR(ReplayChain(frames, tasks));
  }

  for (const RedoPageTask& t : *tasks) stats->applied += t.applied;
  return Status::OK();
}

}  // namespace clog
