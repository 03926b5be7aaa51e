#ifndef CLOG_RECOVERY_INSTANT_RESTORE_H_
#define CLOG_RECOVERY_INSTANT_RESTORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "node/archive.h"
#include "recovery/node_psn_list.h"

/// \file
/// The lost-page rebuild, and instant restore: serving traffic during it.
///
/// Restart recovery plans the rebuild of every own page whose durable image
/// it cannot read: a crash tore the page write, or the data device was lost
/// and recreated empty. A plan names the peers caching a copy and the peers
/// whose client logs hold redo, and one ladder rebuilds it: a copy already
/// here, a readable image, a peer's cached copy, a permanent poison
/// verdict, and last an archive image or PSN seed plus the merged cross-log
/// redo schedule. A hole in that schedule poisons the page durably; stale
/// data is never served.
///
/// NodeOptions::instant_restore decides only when the plans run. Off, Drain
/// rebuilds them all before the node opens. On, the node opens at once: the
/// first touch of a restoring page rebuilds it for the toucher, and a
/// background sweeper drains the cold tail in plan-priority order.
///
/// Crash re-entry is the subtle part. Restart finds lost pages by a
/// file-extent check (the recreated device is shorter than the allocation
/// horizon) and torn pages only while a DPT entry names them. Rebuilds run
/// in workload order, so a high-numbered page restored first re-extends the
/// file and blinds the extent check while low pages are still holes. So
/// every plan is also recorded in a durable *restore ledger*
/// ("node.restore", the poison ledger's crash-atomic format) before the
/// node opens and removed when its page completes, and the next restart
/// re-probes every entry it finds.

namespace clog {

class Node;

/// How a restoring page was finally made durable again; the `c` payload of
/// the kPageRestored trace event.
enum class RestoreSource : std::uint32_t {
  /// A current image was already durable (written earlier in this restore
  /// epoch by a shipped copy, an eviction, or a previous rebuild).
  kAlreadyDurable = 0,
  kPeerCache = 1,     ///< A peer still cached the page; any cached copy is
                      ///< current.
  kArchiveRedo = 2,   ///< Archive image + merged cross-log redo.
  kSeedRedo = 3,      ///< Formatted seed + full-history merged redo.
  kPoisoned = 4,      ///< Rebuild proved a hole; the poison fence stands.
};

/// Per-node restore state. Owned by Node; all calls run in the node's
/// execution context (inline in simulation, under the node's run token in
/// real mode), so the manager needs no locking of its own.
class InstantRestoreManager {
 public:
  /// One page's restore plan, built by restart recovery from the peer
  /// exchange — everything a later on-demand rebuild needs, so the rebuild
  /// itself never depends on recovery-time state that a crash would lose.
  struct Plan {
    PageId pid;
    /// Peers that reported a cached copy of the page at plan time and that
    /// restart did not already try. A cached copy carries every update ever
    /// made (PSNs are totally ordered per page), so fetching one is a
    /// complete restore. Clean copies may be evicted at any moment —
    /// candidates are a fast path, never load-bearing.
    std::vector<NodeId> peer_candidates;
    /// Peers whose client logs may hold redo for this page (everyone that
    /// answered the recovery query, plus ourselves implicitly). The rebuild
    /// asks each for a fresh full-history PSN list when it runs.
    std::vector<NodeId> redo_sources;
    /// Plan-time evidence of heat: contributors + cachers. The sweeper
    /// drains hotter pages first; on-demand touches jump the queue anyway.
    std::uint32_t priority = 0;
  };

  /// Loads the durable restore ledger ("node.restore") under `dir` and
  /// clears any volatile plans. Called from Node::OpenStorage.
  Status Open(const std::string& dir);

  /// Drops all volatile state (plans, epoch markers). The ledger file on
  /// disk is untouched — it is exactly what the next restart re-probes.
  void Reset();

  bool active() const { return !plans_.empty(); }
  std::size_t pending() const { return plans_.size(); }
  bool IsRestoring(PageId pid) const {
    return !plans_.empty() && plans_.contains(pid.Pack());
  }

  /// True while a rebuild of *this page* is on the current call stack;
  /// Node's touch hooks no-op then, so the rebuild's own page forces
  /// cannot recurse into another rebuild of the same page. Per-page on
  /// purpose: in real mode a blocked rebuild conversation re-enters the
  /// node's mailbox at wait points, and an interleaved work item touching
  /// a *different* restoring page must still get its first-touch rebuild
  /// rather than fall through to the hole-ridden device.
  bool in_restore(PageId pid) const {
    for (std::uint64_t packed : in_restore_pids_) {
      if (packed == pid.Pack()) return true;
    }
    return false;
  }

  /// Packed PageIds recorded in the durable ledger — pages an earlier
  /// restart planned but never finished rebuilding. Restart recovery must
  /// treat them as lost-page candidates even when the extent check passes.
  std::vector<std::uint64_t> LedgerEntries() const;

  /// Records `plan` durably (ledger first, then the in-memory plan): a
  /// crash after Add re-probes the page, a crash before it re-detects the
  /// loss by extent. Called by recovery's RecoverOwnPages.
  Status Add(Plan plan);

  /// Durably forgets a ledger entry that has no plan: restart settled the
  /// page without a rebuild (a peer's cached copy, a readable image, a
  /// permanent poison verdict), or the page is no longer this node's.
  Status Forget(PageId pid);

  /// Marks the moment the node opened for traffic with restores pending;
  /// the next successful commit records restore.first_commit_ns.
  void BeginEpoch(std::uint64_t now_ns);

  /// Cheap hot-path gate for the first-commit metric.
  bool first_commit_pending() const { return first_commit_pending_; }

  /// Records restore.first_commit_ns once per epoch.
  void NoteCommit(Node* node, std::uint64_t now_ns);

  /// Synchronously rebuilds one page; idempotent (OK if not restoring).
  /// The ladder: already-durable image, peer cached copy, archive image +
  /// merged redo, seed + full-history redo — or a durable poison verdict
  /// when the schedule has a hole. Unavailable (page still restoring, no
  /// data served) when a redo source is down: correctness never yields to
  /// availability.
  Status RestoreOne(Node* node, PageId pid);

  /// Rebuilds every plan before the node opens (instant restore off), by
  /// the same ladder as RestoreOne. NodeDown when a rebuild blocks on a
  /// down redo source: restart then voids the round instead of opening
  /// with the page still planned. RESTORE_DONE reports the time since the
  /// drain began.
  Status Drain(Node* node);

  /// Rebuilds up to `max_pages` pending pages in priority order; stops
  /// early if a rebuild blocks on a down peer. Returns pages completed.
  std::size_t Sweep(Node* node, std::size_t max_pages);

 private:
  Status Finish(Node* node, PageId pid, Psn psn, RestoreSource source,
                std::uint64_t t0_ns);

  /// The cheap rungs of the ladder: a copy already in the pool, a readable
  /// durable image, a peer's cached copy, a permanent poison verdict. True
  /// when the page is no longer planned.
  Result<bool> Settle(Node* node, PageId pid, std::uint64_t t0_ns);

  /// Runs the ladder for the planned `pids`, asking each redo source once
  /// for the PSN lists of every page the cheap rungs leave. Unavailable
  /// (blocked) when a source cannot be reached.
  Status RunLadder(Node* node, const std::vector<PageId>& pids);

  /// The last rung: archive image or PSN seed plus the merged redo of
  /// `lists`, landed PSN-monotonically, or a poison verdict on a PSN gap.
  Status Rebuild(Node* node, PageId pid, const PsnLists& lists,
                 std::uint64_t t0_ns);

  /// Lifts any poison verdict on `pid` once a complete image is durable.
  static Status LiftPoison(Node* node, PageId pid);

  /// Counts a rebuild blocked on a redo source and returns Unavailable.
  static Status Blocked(Node* node, const Status& st);

  PoisonLedger ledger_;  ///< Durable "node.restore"; same format as poison.
  std::map<std::uint64_t, Plan> plans_;  ///< Packed PageId -> plan.
  /// Stack of packed PageIds with a rebuild on the current call stack
  /// (nested conversations unwind LIFO, so push/pop suffices).
  std::vector<std::uint64_t> in_restore_pids_;
  bool first_commit_pending_ = false;
  std::uint64_t epoch_start_ns_ = 0;
  std::uint64_t restored_this_epoch_ = 0;
};

}  // namespace clog

#endif  // CLOG_RECOVERY_INSTANT_RESTORE_H_
