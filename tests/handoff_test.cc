#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// Elastic membership unit drills (docs/PROTOCOLS.md, "Membership &
/// ownership handoff"): the four-phase handoff protocol, its crash
/// re-entry at every phase boundary on either endpoint, graceful leaves,
/// and joins — in both execution modes, since the ledger re-entry path
/// must behave identically whether handlers run inline (simulation) or on
/// real threads under per-node run tokens.

/// A three-node cluster with one page per node and one committed record
/// per page ("home<i>").
struct Rig {
  explicit Rig(const std::string& dir,
               ExecutionMode mode = ExecutionMode::kSimulation) {
    ClusterOptions opts;
    opts.dir = dir;
    opts.execution_mode = mode;
    cluster = std::make_unique<Cluster>(opts);
    for (int i = 0; i < 3; ++i) {
      Node* n = *cluster->AddNode();
      PageId pid;
      EXPECT_OK(cluster->Execute(n->id(), [&] {
        Result<PageId> r = n->AllocatePage();
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (r.ok()) pid = *r;
      }));
      pages.push_back(pid);
      EXPECT_OK(cluster->RunTransaction(i, [&](TxnHandle& txn) -> Status {
        return txn.Insert(pid, "home" + std::to_string(i)).status();
      }));
    }
  }

  /// Scans `pid` through a fresh transaction on `reader`.
  std::vector<std::string> Scan(NodeId reader, PageId pid) {
    std::vector<std::string> records;
    Status st = cluster->RunTransaction(
        reader,
        [&](TxnHandle& txn) -> Status {
          CLOG_ASSIGN_OR_RETURN(records, txn.ScanPage(pid));
          return Status::OK();
        },
        /*max_attempts=*/16);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return records;
  }

  /// Durable owner claims on `pid` over live members: home node claims by
  /// an un-ceded home slot, every other node by an adoption record. The
  /// protocol invariant is exactly one, always.
  int Claims(PageId pid) {
    int claims = 0;
    for (NodeId id : cluster->NodeIds()) {
      Node* n = cluster->node(id);
      if (n->state() != NodeState::kUp) continue;
      bool claim = false;
      EXPECT_OK(cluster->Execute(id, [&] {
        claim = pid.owner == id ? !n->handoff().IsCeded(pid)
                                : n->handoff().IsAdopted(pid);
      }));
      claims += claim ? 1 : 0;
    }
    return claims;
  }

  std::unique_ptr<Cluster> cluster;
  std::vector<PageId> pages;
};

TEST(HandoffTest, MovesOwnershipAndServesCommittedData) {
  TempDir dir;
  Rig rig(dir.path());
  PageId pid = rig.pages[0];
  ASSERT_OK(rig.cluster->HandoffPage(pid, 1));
  EXPECT_EQ(rig.cluster->CurrentOwner(pid), 1u);
  EXPECT_EQ(rig.Claims(pid), 1);
  // The record is served by the new owner, and a third node's reads route
  // to it through the directory.
  EXPECT_EQ(rig.Scan(1, pid), std::vector<std::string>{"home0"});
  EXPECT_EQ(rig.Scan(2, pid), std::vector<std::string>{"home0"});
  // New updates land at the new owner and stay readable.
  ASSERT_OK(rig.cluster->RunTransaction(2, [&](TxnHandle& txn) -> Status {
    return txn.Insert(pid, "after-move").status();
  }));
  EXPECT_EQ(rig.Scan(0, pid),
            (std::vector<std::string>{"home0", "after-move"}));
}

TEST(HandoffTest, ReturnsHomeAndReclaimsTheHomeSlot) {
  TempDir dir;
  Rig rig(dir.path());
  PageId pid = rig.pages[0];
  ASSERT_OK(rig.cluster->HandoffPage(pid, 2));
  ASSERT_OK(rig.cluster->RunTransaction(1, [&](TxnHandle& txn) -> Status {
    return txn.Insert(pid, "while-away").status();
  }));
  ASSERT_OK(rig.cluster->HandoffPage(pid, 0));
  EXPECT_EQ(rig.cluster->CurrentOwner(pid), 0u);
  EXPECT_EQ(rig.Claims(pid), 1);
  EXPECT_EQ(rig.Scan(1, pid),
            (std::vector<std::string>{"home0", "while-away"}));
}

TEST(HandoffTest, RefusedWhileALocalTransactionHoldsThePage) {
  TempDir dir;
  Rig rig(dir.path());
  PageId pid = rig.pages[0];
  Node* n = rig.cluster->node(0);
  ASSERT_OK_AND_ASSIGN(TxnHandle txn, TxnHandle::Begin(n));
  ASSERT_OK(txn.Insert(pid, "uncommitted").status());
  Status st = rig.cluster->HandoffPage(pid, 1);
  EXPECT_TRUE(st.IsBusy()) << st.ToString();
  ASSERT_OK(txn.Abort());
  // Fully retryable after the transaction ends.
  ASSERT_OK(rig.cluster->HandoffPage(pid, 1));
  EXPECT_EQ(rig.Claims(pid), 1);
}

TEST(HandoffTest, LeaveDrainsPagesAndJoinReceivesThem) {
  TempDir dir;
  Rig rig(dir.path());
  // Node 2 caches a lock on node 0's page first, so the leave must also
  // hand that residue back (a departed node never answers callbacks).
  ASSERT_OK(rig.cluster->RunTransaction(2, [&](TxnHandle& txn) -> Status {
    return txn.Insert(rig.pages[0], "from-leaver").status();
  }));
  ASSERT_OK(rig.cluster->LeaveNode(2));
  EXPECT_TRUE(rig.cluster->IsDeparted(2));
  // 2's own page moved to a survivor; 0's page is not stuck behind 2's
  // departed lock.
  NodeId new_owner = rig.cluster->CurrentOwner(rig.pages[2]);
  EXPECT_NE(new_owner, 2u);
  EXPECT_EQ(rig.Scan(new_owner, rig.pages[2]),
            std::vector<std::string>{"home2"});
  EXPECT_EQ(rig.Scan(1, rig.pages[0]),
            (std::vector<std::string>{"home0", "from-leaver"}));
  // A newcomer can adopt the orphaned page.
  ASSERT_OK_AND_ASSIGN(Node * joined, rig.cluster->JoinNode());
  ASSERT_OK(rig.cluster->HandoffPage(rig.pages[2], joined->id()));
  EXPECT_EQ(rig.cluster->CurrentOwner(rig.pages[2]), joined->id());
  EXPECT_EQ(rig.Scan(joined->id(), rig.pages[2]),
            std::vector<std::string>{"home2"});
}

/// The kill-and-re-enter drill: for every phase boundary and either
/// endpoint, crash the victim exactly there, restart it, resolve, and
/// require exactly one durable owner and the committed record intact at
/// whoever owns the page now. This is the unit-sized version of the
/// torture harness's --crash-during-handoff mode.
void RunKillAndReEnterDrill(ExecutionMode mode) {
  for (int boundary = 0; boundary < 4; ++boundary) {
    for (bool crash_target : {false, true}) {
      SCOPED_TRACE("boundary=" + std::to_string(boundary) +
                   " crash_target=" + std::to_string(crash_target));
      TempDir dir;
      Rig rig(dir.path(), mode);
      PageId pid = rig.pages[0];
      const NodeId victim = crash_target ? 1 : 0;
      bool crashed = false;
      rig.cluster->set_handoff_phase_hook(
          [&](PageId hook_pid, HandoffPhase phase) {
            if (hook_pid != pid || static_cast<int>(phase) != boundary) {
              return;
            }
            crashed = rig.cluster->CrashNode(victim).ok();
          });
      Status st = rig.cluster->HandoffPage(pid, 1);
      rig.cluster->set_handoff_phase_hook(nullptr);
      ASSERT_TRUE(crashed);
      // The driver dies with its endpoint at every boundary except the
      // last, where the protocol had already finished.
      if (boundary < 3) {
        EXPECT_FALSE(st.ok()) << st.ToString();
      }
      ASSERT_OK(rig.cluster->RestartNodes({victim}));
      ASSERT_OK(rig.cluster->ResolveHandoffs());
      EXPECT_EQ(rig.Claims(pid), 1);
      // Wherever the page ended up — aborted home or adopted at the
      // target — the committed record survived the interrupted transfer.
      NodeId owner = rig.cluster->CurrentOwner(pid);
      EXPECT_EQ(rig.Scan(owner, pid), std::vector<std::string>{"home0"});
      EXPECT_EQ(rig.Scan(2, pid), std::vector<std::string>{"home0"});
      // No ledger record may stay in flight once both endpoints resolved.
      for (NodeId id : rig.cluster->NodeIds()) {
        Node* n = rig.cluster->node(id);
        std::vector<PageId> inflight;
        EXPECT_OK(rig.cluster->Execute(
            id, [&] { inflight = n->handoff().InflightPages(); }));
        EXPECT_TRUE(inflight.empty())
            << "node " << id << " still has an in-flight handoff";
      }
    }
  }
}

TEST(HandoffTest, KillAndReEnterAtEveryBoundarySim) {
  RunKillAndReEnterDrill(ExecutionMode::kSimulation);
}

TEST(HandoffTest, KillAndReEnterAtEveryBoundaryRealThreads) {
  RunKillAndReEnterDrill(ExecutionMode::kRealThreads);
}

}  // namespace
}  // namespace clog
