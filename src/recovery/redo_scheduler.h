#ifndef CLOG_RECOVERY_REDO_SCHEDULER_H_
#define CLOG_RECOVERY_REDO_SCHEDULER_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"
#include "wal/log_manager.h"

/// \file
/// Chain redo (docs/RECOVERY_WALKTHROUGH.md "Parallel redo"). Restart
/// redo of pages whose entire history lives in the local log needs no
/// Section 2.3.4 cross-node bouncing — but the legacy path still replays
/// them one page at a time, rescanning the log per page. The scheduler
/// instead makes ONE raw pass over the log (a LogCursor, which reads in
/// blocks and checks every frame's CRC), routes each update frame
/// (undecoded — a 36-byte header peek) to its page, and partitions the
/// work into independent chains: the connected components of the
/// bipartite transaction/page graph, with commit-dependency edges
/// (CommitDep entries on adaptive commit records) merged in. Chains touch
/// disjoint page sets by construction; the restarting node's thread
/// decodes and applies them one after another onto the tasks' page images.

namespace clog {

/// One page handed to the scheduler. The page image is redone in place;
/// the caller retains ownership and installs/forces it afterwards.
struct RedoPageTask {
  PageId pid;
  Page* page = nullptr;      ///< Base image, mutated by redo.
  Lsn start_lsn = kNullLsn;  ///< First log position that may concern pid
                             ///< (the page's recovery cursor); kNullLsn =
                             ///< nothing to scan for this page.
  std::uint64_t applied = 0;  ///< Out: redo records applied to `page`.
};

struct RedoScheduleStats {
  std::uint64_t chains = 0;          ///< Independent chains formed.
  std::uint64_t records_routed = 0;  ///< Update frames routed to pages.
  std::uint64_t applied = 0;         ///< Redo records applied, total.
};

class RedoScheduler {
 public:
  /// `skip_txns`: transactions whose logical records are redo-skipped
  /// (uncommitted, never backfilled — see docs/PROTOCOLS.md "Redo skip
  /// rule"). Not owned; must outlive Run.
  RedoScheduler(LogManager* log, const std::set<TxnId>* skip_txns)
      : log_(log), skip_txns_(skip_txns) {}

  /// Scans, partitions, and replays. On return every task's page image is
  /// redone and `applied` filled in.
  Status Run(std::vector<RedoPageTask>* tasks, RedoScheduleStats* stats);

 private:
  LogManager* log_;
  const std::set<TxnId>* skip_txns_;
};

}  // namespace clog

#endif  // CLOG_RECOVERY_REDO_SCHEDULER_H_
