#ifndef CLOG_RECOVERY_NODE_PSN_LIST_H_
#define CLOG_RECOVERY_NODE_PSN_LIST_H_

#include <map>
#include <vector>

#include "common/types.h"
#include "net/message.h"

/// \file
/// Coordinator-side NodePSNList machinery (paper Section 2.3.4). Each
/// involved node reports, per page, the PSN stored in the first log record
/// of every transaction run it executed against the page. The coordinator
/// merges the per-node lists into a single ascending schedule, coalescing
/// adjacent runs of the same node, and then bounces the page between the
/// nodes in that order.

namespace clog {

/// One step of the per-page recovery schedule: `node` applies its redo
/// starting at PSN `psn` until the next step's PSN is reached.
struct RecoveryRun {
  NodeId node = kInvalidNodeId;
  Psn psn = 0;

  friend bool operator==(const RecoveryRun&, const RecoveryRun&) = default;
};

/// One page's NodePSNLists, keyed by the node whose log they describe.
using PsnLists = std::map<NodeId, std::vector<PsnListEntry>>;

/// Merges per-node PSN lists into the ascending, same-node-coalesced
/// schedule of Section 2.3.4 step 1.
std::vector<RecoveryRun> MergePsnLists(const PsnLists& lists);

}  // namespace clog

#endif  // CLOG_RECOVERY_NODE_PSN_LIST_H_
