#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// Cross-mode contract (docs/architecture_modes.md): the simulation engine
/// and the real-threads engine run the same protocol code, so a workload
/// whose committed effects are order-independent must leave *identical*
/// committed state in both modes — the same records in every page — even
/// though real mode interleaves client threads nondeterministically. (PSNs
/// are compared within each mode, owner disk vs cached copies, not across
/// modes: a contended real-mode run aborts and retries, and undo bumps
/// PSNs.) These tests are the seam's regression net, and
/// scripts/run_tsan_tests.sh runs them under ThreadSanitizer (label
/// `execution`).

/// Keeps retrying transient outcomes (Busy, Deadlock) until the
/// transaction commits. Terminal errors fail the test at the call site.
Status CommitEventually(Cluster* cluster, NodeId node,
                        const std::function<Status(TxnHandle&)>& body) {
  for (int round = 0; round < 1000; ++round) {
    Status st = cluster->RunTransaction(node, body, /*max_attempts=*/32);
    if (!st.IsBusy() && !st.IsDeadlock()) return st;
  }
  return Status::Busy("CommitEventually: contention never cleared");
}

struct FixedWorkload {
  int nodes = 3;
  int txns_per_session = 8;
};

/// One session per node. Session s inserts one record per transaction into
/// its own page and one into the next node's page, always locking pages in
/// ascending PageId order (global lock order — no deadlock cycles across
/// sessions). Payloads are unique per (session, txn, slot), so the final
/// per-page record multiset is the same no matter how sessions interleave.
struct WorkloadPlan {
  std::vector<PageId> pages;  // pages[i] owned by node i.

  Status RunSession(Cluster* cluster, int s, int txns) const {
    const int n = static_cast<int>(pages.size());
    for (int t = 0; t < txns; ++t) {
      std::vector<std::pair<PageId, std::string>> writes = {
          {pages[s], "s" + std::to_string(s) + "t" + std::to_string(t) + "a"},
          {pages[(s + 1) % n],
           "s" + std::to_string(s) + "t" + std::to_string(t) + "b"},
      };
      std::sort(writes.begin(), writes.end());
      Status st = CommitEventually(cluster, s, [&](TxnHandle& txn) -> Status {
        for (const auto& [pid, payload] : writes) {
          CLOG_RETURN_IF_ERROR(txn.Insert(pid, payload).status());
        }
        return Status::OK();
      });
      CLOG_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  }
};

/// Committed state after quiesce: sorted record payloads per page, read
/// through fresh transactions on each owner. Insert multisets commute, so
/// this is identical across modes and thread interleavings.
std::map<PageId, std::vector<std::string>> CommittedState(
    Cluster* cluster, const WorkloadPlan& plan) {
  std::map<PageId, std::vector<std::string>> out;
  for (int i = 0; i < static_cast<int>(plan.pages.size()); ++i) {
    PageId pid = plan.pages[i];
    std::vector<std::string> records;
    Status st = cluster->RunTransaction(i, [&](TxnHandle& txn) -> Status {
      CLOG_ASSIGN_OR_RETURN(records, txn.ScanPage(pid));
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::sort(records.begin(), records.end());
    out[pid] = std::move(records);
  }
  return out;
}

std::map<PageId, std::vector<std::string>> RunFixedWorkload(
    const std::string& dir, ExecutionMode mode, const FixedWorkload& w) {
  ClusterOptions opts;
  opts.dir = dir;
  opts.execution_mode = mode;
  Cluster cluster(opts);
  WorkloadPlan plan;
  for (int i = 0; i < w.nodes; ++i) {
    Node* n = *cluster.AddNode();
    PageId pid;
    EXPECT_OK(cluster.Execute(n->id(), [&] {
      Result<PageId> r = n->AllocatePage();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) pid = *r;
    }));
    plan.pages.push_back(pid);
  }

  if (mode == ExecutionMode::kRealThreads) {
    std::vector<std::thread> sessions;
    std::mutex mu;
    std::vector<Status> results;
    for (int s = 0; s < w.nodes; ++s) {
      sessions.emplace_back([&, s] {
        Status st = plan.RunSession(&cluster, s, w.txns_per_session);
        std::lock_guard<std::mutex> lk(mu);
        results.push_back(st);
      });
    }
    for (std::thread& t : sessions) t.join();
    for (const Status& st : results) EXPECT_TRUE(st.ok()) << st.ToString();
  } else {
    for (int s = 0; s < w.nodes; ++s) {
      EXPECT_OK(plan.RunSession(&cluster, s, w.txns_per_session));
    }
  }

  // Quiesce, then crash-and-recover the whole cluster: recovery forces the
  // committed version of every page to its owner's disk, in both modes, so
  // the on-disk PSN is comparable afterwards.
  std::vector<NodeId> ids = cluster.NodeIds();
  for (NodeId id : ids) EXPECT_OK(cluster.CrashNode(id));
  EXPECT_OK(cluster.RestartNodes(ids));

  // In-mode PSN agreement after quiesce: deep invariants compare every
  // clean cached copy against the owner's disk version, PSN included.
  for (NodeId id : ids) {
    EXPECT_OK(cluster.Execute(id, [&] {
      EXPECT_OK(cluster.node(id)->CheckInvariants(/*deep=*/true));
    }));
  }
  return CommittedState(&cluster, plan);
}

TEST(ExecutionModeTest, SimAndRealThreadsConvergeToIdenticalCommittedState) {
  FixedWorkload w;
  TempDir sim_dir, real_dir;
  auto sim = RunFixedWorkload(sim_dir.path(), ExecutionMode::kSimulation, w);
  auto real =
      RunFixedWorkload(real_dir.path(), ExecutionMode::kRealThreads, w);

  ASSERT_EQ(sim.size(), real.size());
  std::size_t total_records = 0;
  auto it = real.begin();
  for (const auto& [pid, records] : sim) {
    ASSERT_EQ(pid, it->first);
    EXPECT_EQ(records, it->second) << "page " << pid.ToString() << " contents";
    total_records += records.size();
    ++it;
  }
  // Sanity: every transaction committed both of its inserts.
  EXPECT_EQ(total_records,
            static_cast<std::size_t>(w.nodes * w.txns_per_session * 2));
}

/// Real-threads crash drill: clients on nodes 1 and 2 hammer node 0's
/// pages from their own threads (client-based logging — the redo for node
/// 0's pages lives in the *clients'* logs, really fsync'd at each commit).
/// Node 0 is then killed — execution context stopped, volatile state
/// gone — and restarted. Every transaction that reported Commit OK
/// before the crash must be readable afterwards. Two full cycles.
TEST(ExecutionModeTest, RealModeCrashRestartConvergesOffFsyncedLogs) {
  TempDir dir;
  ClusterOptions opts;
  opts.dir = dir.path();
  opts.execution_mode = ExecutionMode::kRealThreads;
  Cluster cluster(opts);
  Node* owner = *cluster.AddNode();
  ASSERT_OK(cluster.AddNode().status());
  ASSERT_OK(cluster.AddNode().status());

  std::vector<PageId> pages(2);
  ASSERT_OK(cluster.Execute(owner->id(), [&] {
    for (PageId& pid : pages) {
      Result<PageId> r = owner->AllocatePage();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      pid = *r;
    }
  }));

  std::mutex mu;
  std::set<std::string> durable;  // Payloads whose commit returned OK.

  // One client session: inserts uniquely-tagged records into node 0's
  // pages until the owner goes down (NodeDown ends the session).
  auto client = [&](NodeId node, int cycle) {
    for (int t = 0;; ++t) {
      std::string payload = "c" + std::to_string(cycle) + "n" +
                            std::to_string(node) + "t" + std::to_string(t);
      PageId pid = pages[t % pages.size()];
      Status st = CommitEventually(&cluster, node, [&](TxnHandle& txn) {
        return txn.Insert(pid, payload).status();
      });
      if (!st.ok()) return;  // Owner crashed out from under us.
      std::lock_guard<std::mutex> lk(mu);
      durable.insert(payload);
      if (durable.size() >= static_cast<std::size_t>(20 * (cycle + 1))) {
        return;
      }
    }
  };

  for (int cycle = 0; cycle < 2; ++cycle) {
    std::thread c1([&] { client(1, cycle); });
    std::thread c2([&] { client(2, cycle); });
    c1.join();
    c2.join();

    // Kill the owner: its execution context is stopped, the cache and
    // lock tables are gone; only its disk and the clients' logs survive.
    ASSERT_OK(cluster.CrashNode(owner->id()));
    ASSERT_OK(cluster.RestartNode(owner->id()));

    // Every committed record must have been recovered into the owner's
    // pages — the redo came from the clients' fsync'd logs.
    std::set<std::string> recovered;
    ASSERT_OK(cluster.RunTransaction(1, [&](TxnHandle& txn) -> Status {
      for (PageId pid : pages) {
        CLOG_ASSIGN_OR_RETURN(std::vector<std::string> records,
                              txn.ScanPage(pid));
        recovered.insert(records.begin(), records.end());
      }
      return Status::OK();
    }));
    std::lock_guard<std::mutex> lk(mu);
    for (const std::string& payload : durable) {
      EXPECT_TRUE(recovered.count(payload))
          << "cycle " << cycle << ": committed record '" << payload
          << "' lost across crash/restart";
    }
    ASSERT_OK(cluster.Execute(owner->id(), [&] {
      EXPECT_OK(owner->CheckInvariants(/*deep=*/true));
    }));
  }
}

/// The stop/start seam itself: a crashed node's execution context rejects
/// work with NodeDown instead of hanging or racing, and restart brings a
/// fresh worker up on the same id.
TEST(ExecutionModeTest, StoppedWorkerRejectsWorkUntilRestart) {
  TempDir dir;
  ClusterOptions opts;
  opts.dir = dir.path();
  opts.execution_mode = ExecutionMode::kRealThreads;
  Cluster cluster(opts);
  Node* n = *cluster.AddNode();

  ASSERT_OK(cluster.Execute(n->id(), [] {}));
  ASSERT_OK(cluster.CrashNode(n->id()));
  Status st = cluster.Execute(n->id(), [] {});
  EXPECT_TRUE(st.IsNodeDown()) << st.ToString();
  ASSERT_OK(cluster.RestartNode(n->id()));
  ASSERT_OK(cluster.Execute(n->id(), [] {}));
}

/// Adaptive recovery equivalence across execution modes. Every session
/// writes only its own pages, so the whole log is self-only histories and
/// restart recovery redoes each page in one round on its owner's log, on
/// the restarting node's thread in both modes. Both must land on the same
/// committed state, and both must actually have redone every owned page.
std::map<PageId, std::vector<std::string>> RunAdaptiveRecovery(
    const std::string& dir, ExecutionMode mode,
    std::uint64_t* own_pages_recovered) {
  constexpr int kNodes = 3;
  constexpr int kPagesPerNode = 2;
  constexpr int kTxnsPerSession = 6;

  ClusterOptions opts;
  opts.dir = dir;
  opts.execution_mode = mode;
  opts.node_defaults.logging_policy =
      LoggingPolicy().WithStrategy(LogStrategy::kAdaptive);
  Cluster cluster(opts);
  std::vector<std::vector<PageId>> pages(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    Node* n = *cluster.AddNode();
    EXPECT_OK(cluster.Execute(n->id(), [&] {
      for (int p = 0; p < kPagesPerNode; ++p) {
        Result<PageId> r = n->AllocatePage();
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (r.ok()) pages[i].push_back(*r);
      }
    }));
  }

  // Sessions run sequentially — this test is about recovery, not workload
  // parallelism. Every third transaction forces the physical
  // strategy so both record families interleave in each log.
  for (int s = 0; s < kNodes; ++s) {
    EXPECT_OK(cluster.Execute(s, [&] {
      Node* n = cluster.node(s);
      for (int t = 0; t < kTxnsPerSession; ++t) {
        TxnOptions topts;
        if (t % 3 == 2) topts.strategy = LogStrategy::kPhysical;
        Result<TxnHandle> begun = TxnHandle::Begin(*n, topts);
        EXPECT_TRUE(begun.ok()) << begun.status().ToString();
        if (!begun.ok()) return;
        TxnHandle txn = *begun;
        for (int p = 0; p < kPagesPerNode; ++p) {
          EXPECT_OK(txn.Insert(pages[s][p],
                               "s" + std::to_string(s) + "t" +
                                   std::to_string(t) + "p" +
                                   std::to_string(p))
                        .status());
        }
        EXPECT_OK(txn.Commit());
      }
    }));
  }

  // Lose every cache with the dirty pages unflushed, then recover jointly:
  // redo rebuilds each page purely from its owner's log.
  std::vector<NodeId> ids = cluster.NodeIds();
  for (NodeId id : ids) EXPECT_OK(cluster.CrashNode(id));
  EXPECT_OK(cluster.RestartNodes(ids));
  *own_pages_recovered = 0;
  for (const auto& [id, stats] : cluster.recovery_stats()) {
    *own_pages_recovered += stats.own_pages_recovered;
  }
  for (NodeId id : ids) {
    EXPECT_OK(cluster.Execute(id, [&] {
      EXPECT_OK(cluster.node(id)->CheckInvariants(/*deep=*/true));
    }));
  }

  std::map<PageId, std::vector<std::string>> out;
  for (int i = 0; i < kNodes; ++i) {
    for (const PageId& pid : pages[i]) {
      std::vector<std::string> records;
      EXPECT_OK(cluster.RunTransaction(i, [&](TxnHandle& txn) -> Status {
        CLOG_ASSIGN_OR_RETURN(records, txn.ScanPage(pid));
        return Status::OK();
      }));
      std::sort(records.begin(), records.end());
      // The map key keeps only the within-node shape so sim and real runs
      // (whose PageIds match anyway) compare structurally.
      out[pid] = std::move(records);
    }
  }
  return out;
}

TEST(ExecutionModeTest, AdaptiveRedoConvergesAcrossModes) {
  TempDir sim_dir, real_dir;
  std::uint64_t sim_pages = 0, real_pages = 0;
  auto sim = RunAdaptiveRecovery(sim_dir.path(), ExecutionMode::kSimulation,
                                 &sim_pages);
  auto real = RunAdaptiveRecovery(real_dir.path(),
                                  ExecutionMode::kRealThreads, &real_pages);

  // Redo ran in both modes, over every owned page.
  EXPECT_EQ(sim_pages, 6u);
  EXPECT_EQ(real_pages, 6u);

  ASSERT_EQ(sim.size(), real.size());
  auto it = real.begin();
  std::size_t total = 0;
  for (const auto& [pid, records] : sim) {
    ASSERT_EQ(pid, it->first);
    EXPECT_EQ(records, it->second) << "page " << pid.ToString();
    total += records.size();
    ++it;
  }
  // Every committed insert survived recovery in both modes.
  EXPECT_EQ(total, static_cast<std::size_t>(3 * 6 * 2));
}

}  // namespace
}  // namespace clog
