#ifndef CLOG_BUFFER_DIRTY_PAGE_TABLE_H_
#define CLOG_BUFFER_DIRTY_PAGE_TABLE_H_

#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

/// \file
/// The per-node Dirty Page Table exactly as specified in paper Section 2.2.
/// An entry tracks a page this node has modified whose updates may not yet
/// be in the disk version of the database:
///
///   PID      page id
///   PSN      page PSN the first time this node dirtied it
///   CurrPSN  page PSN after this node's last update
///   RedoLSN  LSN of the earliest local log record that may need redo
///
/// plus the Section 2.5 extension: when the node replaces dirty page P from
/// its cache, it remembers the current end of its log; when the owner later
/// reports P forced to disk, the entry's RedoLSN advances to that remembered
/// LSN (or the entry is dropped if P was not updated again since the
/// replacement).

namespace clog {

/// One DPT entry plus the bookkeeping for flush notifications.
struct DirtyPageInfo {
  Psn psn = 0;        ///< PSN at first dirty (paper field "PSN").
  Psn curr_psn = 0;   ///< PSN after last local update (paper "CurrPSN").
  Lsn redo_lsn = kNullLsn;  ///< Paper "RedoLSN".

  // Section 2.5 bookkeeping.
  Lsn replaced_end_lsn = kNullLsn;  ///< End-of-log remembered at replacement.
  Psn psn_at_replace = kInvalidPsn; ///< CurrPSN when last replaced.
  bool updated_since_replace = false;  ///< Dirtied again after replacement.
};

/// The table. Single-threaded like the rest of a node's volatile state; a
/// node crash simply destroys it (recovery rebuilds a superset by log scan).
///
/// Every entry is also indexed by (RedoLSN, PID), so the log-space horizon
/// every commit computes (MinRedoLsn) reads one element instead of walking
/// the table. Only the methods below change RedoLSN, and each keeps the
/// index in step.
class DirtyPageTable {
 public:
  /// Registers a first-dirty event: called when the node obtains an
  /// exclusive lock on `pid` and no entry exists (paper Section 2.2). The
  /// current end of the local log is conservatively taken as RedoLSN.
  void OnFirstDirty(PageId pid, Psn page_psn, Lsn log_end_lsn);

  /// Called after every logged update to `pid`; records the new PSN.
  void OnUpdate(PageId pid, Psn new_psn);

  /// Called when the dirty page is replaced from the cache and sent to the
  /// owner (or written in place). Remembers the log end for Section 2.5.
  void OnReplaced(PageId pid, Psn page_psn, Lsn log_end_lsn);

  /// Owner notification: the disk version of `pid` now has PSN
  /// `flushed_psn`. Drops the entry when the node's updates are all covered
  /// and the page was not re-dirtied; otherwise advances RedoLSN to the
  /// remembered end-of-log. Returns true if the entry was dropped.
  bool OnOwnerFlushed(PageId pid, Psn flushed_psn);

  /// Unconditionally removes the entry (e.g. local page forced to disk).
  void Remove(PageId pid);

  /// Sets the RedoLSN of an existing entry (no-op without one): recovery
  /// re-arms it at the log end once the node's past updates are on disk.
  void SetRedoLsn(PageId pid, Lsn redo_lsn);

  /// Drops every entry (used only by tests; a crash destroys the object).
  void Clear();

  bool Contains(PageId pid) const;
  const DirtyPageInfo* Find(PageId pid) const;
  std::size_t size() const { return table_.size(); }

  /// Minimum RedoLSN over all entries, or kNullLsn when the table is empty.
  /// The local log may only be reclaimed before this point (Section 2.5).
  Lsn MinRedoLsn() const;

  /// Page with the smallest RedoLSN (the victim Section 2.5 forces first).
  std::optional<PageId> MinRedoLsnPage() const;

  /// All entries ascending by RedoLSN, ties by PID (Section 2.5 victim
  /// order).
  std::vector<PageId> PagesByRedoLsn() const;

  /// All entries as wire/checkpoint form, optionally filtered to pages
  /// owned by `owner` (used by crashed-node recovery requests).
  std::vector<DptEntry> ToEntries(
      std::optional<NodeId> owner = std::nullopt) const;

  /// Installs an entry verbatim (checkpoint reload / recovery analysis).
  void Install(const DptEntry& e);

  /// Iteration support.
  const std::unordered_map<PageId, DirtyPageInfo>& entries() const {
    return table_;
  }

 private:
  using ByRedoLsn = std::set<std::pair<Lsn, PageId>>;

  /// Moves `pid`'s index element from `from` to `to`, reusing its node.
  void Reindex(PageId pid, Lsn from, Lsn to);

  std::unordered_map<PageId, DirtyPageInfo> table_;
  ByRedoLsn by_redo_lsn_;
};

}  // namespace clog

#endif  // CLOG_BUFFER_DIRTY_PAGE_TABLE_H_
