#include "recovery/node_psn_list.h"

#include <algorithm>

namespace clog {

std::vector<RecoveryRun> MergePsnLists(const PsnLists& lists) {
  std::vector<RecoveryRun> merged;
  for (const auto& [node, entries] : lists) {
    for (const PsnListEntry& e : entries) {
      merged.push_back(RecoveryRun{node, e.psn});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const RecoveryRun& a, const RecoveryRun& b) {
              // PSNs are unique per page across the cluster (page-level
              // locking totally orders updates); node id breaks ties only
              // for malformed inputs, keeping the sort deterministic.
              return a.psn != b.psn ? a.psn < b.psn : a.node < b.node;
            });
  // Coalesce adjacent runs of the same node (Section 2.3.4 step 1): the
  // earlier PSN — the run minimum — survives.
  std::vector<RecoveryRun> out;
  for (const RecoveryRun& run : merged) {
    if (!out.empty() && out.back().node == run.node) continue;
    out.push_back(run);
  }
  return out;
}

}  // namespace clog
