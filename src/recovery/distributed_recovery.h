#ifndef CLOG_RECOVERY_DISTRIBUTED_RECOVERY_H_
#define CLOG_RECOVERY_DISTRIBUTED_RECOVERY_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "node/node.h"
#include "recovery/local_recovery.h"
#include "recovery/node_psn_list.h"

/// \file
/// Distributed restart recovery: the paper's Sections 2.3 (single node
/// crash) and 2.4 (multiple node crashes). The restarting node:
///
///  1. rebuilds a superset DPT and the loser set by local log analysis,
///  2. queries every operational node for its cache contents, DPT entries,
///     and lock lists relevant to the crashed node,
///  3. reconstructs lock tables (shared locks it held are released by the
///     peers, exclusive ones retained and reported back),
///  4. determines the pages that may require recovery, fetching the ones
///     still cached at a peer and redo-coordinating the rest across the
///     involved nodes in ascending PSN order via NodePSNLists; a page whose
///     durable image is unreadable (torn, or on a lost data device) is
///     planned for the lost-page rebuild (recovery/instant_restore.h),
///     which runs before the node opens unless instant restore is on,
///  5. rolls back its loser transactions and takes a fresh checkpoint.
///
/// Log files are never merged; each node only ever scans its own log.
///
/// Multiple simultaneous crashes run the same three phases, staged across
/// the crashed set by the Cluster (every crashed node completes analysis
/// before any exchanges state, exactly the Section 2.4 requirement that
/// rebuilt DPT supersets are available to the owners).

namespace clog {

/// Drives the restart of one crashed node.
class RestartRecovery {
 public:
  /// Counters describing one restart (benchmark currency).
  struct Stats {
    std::uint64_t analysis_records = 0;    ///< Local log records analyzed.
    std::uint64_t peers_queried = 0;
    std::uint64_t own_pages_recovered = 0; ///< Redo-coordinated own pages.
    std::uint64_t own_pages_fetched = 0;   ///< Taken from a peer's cache.
    std::uint64_t remote_pages_recovered = 0;
    std::uint64_t redo_rounds = 0;         ///< RecoverPage calls issued.
    std::uint64_t redo_applied = 0;        ///< Redo records applied, total.
    std::uint64_t losers_undone = 0;
    std::uint64_t clean_candidates = 0;    ///< Candidates already on disk.
    std::uint64_t sim_ns = 0;              ///< Simulated time of the round.
    // --- Adaptive logging ---
    std::uint64_t logical_losers_skipped = 0;  ///< Pure-logical: END only.
    // --- Media recovery (data/log device loss) ---
    std::uint64_t media_candidates = 0;    ///< Probe candidates from device scan.
    std::uint64_t pages_poisoned = 0;      ///< Pages fenced as unrecoverable.
    std::uint64_t pages_planned = 0;       ///< Torn or lost: planned rebuilds.
    std::uint64_t pages_drained = 0;       ///< Plans rebuilt before opening.
    bool log_loss_detected = false;        ///< Log shorter than its durable mark.
  };

  explicit RestartRecovery(Node* node) : node_(node) {}

  // --- Phases, run by Cluster::RestartNodes across the whole crashed set
  // (Section 2.4) ---

  /// Phase A: reopen storage, run local analysis, install the rebuilt DPT,
  /// and become reachable for recovery RPCs (state kRecovering).
  Status OpenAndAnalyze();

  /// Phase B1: query peers and reconstruct lock state (2.3.1/2.3.3).
  /// Requires every other crashed node to have finished phase A.
  Status ExchangePeerState();

  /// Phase B2: determine and redo the pages needing recovery (2.3.4).
  /// Requires ExchangePeerState.
  Status RedoPages();

  /// Phase C: undo losers, checkpoint, go operational, notify peers.
  Status UndoLosersAndFinish();

  /// Every phase boundary is a safe crash point: a node that dies anywhere
  /// in this sequence is simply restarted from OpenAndAnalyze. Analysis is
  /// read-only; peers' recovery handlers are idempotent per conversation
  /// (HandleRecoveryQuery re-releases released locks, HandleBuildPsnList
  /// resets any stale per-page scan state); redo work re-derives from logs
  /// and disk; undo re-entry is covered by CLR undo_next chains. See
  /// docs/availability.md.

  const Stats& stats() const { return stats_; }

 private:
  /// Requests cache/DPT/lock lists from all reachable peers (2.3.1/2.3.3).
  Status QueryPeers();

  /// Rebuilds the global lock table and lock cache from the peer replies,
  /// and takes exclusive locks for unprotected DPT pages (2.3.3).
  Status ReconstructLocks();

  /// Determines and recovers pages owned by this node (2.3.1-2.3.4).
  Status RecoverOwnPages();

  /// Recovers remotely owned pages this node held exclusively (2.3.1 (b)).
  Status RecoverRemotePages();

  /// Log-device loss: tells every reachable peer which of its pages this
  /// node's destroyed log leaves unrecoverable (the pages it held X on, per
  /// the peers' lock tables), recording durable debts for unreachable
  /// owners, and retries debts owed from earlier losses.
  Status HandleLogLoss();

  /// Own-page recovery when this node's log was destroyed: pages still
  /// cached at a peer are fetched and flushed (a cached copy carries every
  /// committed update); everything else is conservatively poisoned — the
  /// lost log may have held the top of their history.
  Status RecoverOwnPagesAfterLogLoss(
      const std::map<PageId, std::vector<NodeId>>& cached_at);

  /// Records one phase's duration into the node's `hist_name` histogram and
  /// emits a RECOVERY_PHASE trace event (a=phase index, b=duration ns).
  /// Phase indices match the trace exporter: 0=analyze, 1=exchange, 2=redo,
  /// 3=undo+finish.
  void FinishPhase(std::uint32_t phase, const char* hist_name,
                   std::uint64_t start_ns);

  Node* node_;
  AnalysisResult analysis_;
  std::map<NodeId, RecoveryQueryReply> peer_replies_;
  bool exchange_done_ = false;
  bool log_lost_ = false;  ///< Set by OpenAndAnalyze (log mark mismatch).
  Stats stats_;
};

}  // namespace clog

#endif  // CLOG_RECOVERY_DISTRIBUTED_RECOVERY_H_
