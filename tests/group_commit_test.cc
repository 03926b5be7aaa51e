#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/workload.h"
#include "tests/test_util.h"

/// \file
/// Group commit (GroupCommitPolicy): commit-force coalescing. The contract
/// under test is twofold. Performance: with N committers sharing a force,
/// the commit path charges well under one force per transaction. Safety:
/// a transaction is never acknowledged before its commit record is
/// durable — a parked, unacknowledged commit may be rolled back by a
/// crash, an acknowledged one never is.

namespace clog {
namespace {

using testing::TempDir;

class GroupCommitTest : public ::testing::Test {
 protected:
  void Start(std::size_t max_group_size, std::uint64_t window_ns,
             int num_nodes = 1) {
    ClusterOptions opts;
    opts.dir = dir_.path();
    opts.node_defaults.buffer_frames = 64;
    opts.node_defaults.logging_policy.WithGroupCommitWindow(window_ns,
                                                            max_group_size);
    cluster_ = std::make_unique<Cluster>(opts);
    for (int i = 0; i < num_nodes; ++i) {
      Result<Node*> n = cluster_->AddNode();
      ASSERT_OK(n.status());
      nodes_.push_back(*n);
    }
  }

  std::uint64_t NodeCounter(Node* n, const std::string& name) {
    return n->metrics().CounterValue(name);
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<Node*> nodes_;
};

TEST_F(GroupCommitTest, FullGroupCoalescesToOneForce) {
  // Four concurrent committers on one node, group size four: the fourth
  // CommitRequest leads a single force that covers all four commit
  // records. Forces per committed transaction = 0.25 — the acceptance bar
  // is < 1.0.
  Start(/*max_group_size=*/4, /*window_ns=*/1'000'000);
  Node* n = nodes_[0];

  std::vector<TxnId> txns;
  std::vector<RecordId> rids;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(PageId pid, n->AllocatePage());
    ASSERT_OK_AND_ASSIGN(TxnId txn, n->Begin());
    ASSERT_OK_AND_ASSIGN(RecordId rid,
                         n->Insert(txn, pid, "v" + std::to_string(i)));
    txns.push_back(txn);
    rids.push_back(rid);
  }

  const std::uint64_t forces_before = n->log().forces();
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(bool done, n->CommitRequest(txns[i]));
    EXPECT_FALSE(done) << "committer " << i << " should park";
    EXPECT_EQ(n->log().forces(), forces_before) << "no force while parked";
  }
  // The fourth committer fills the group and leads the shared force.
  ASSERT_OK_AND_ASSIGN(bool done, n->CommitRequest(txns[3]));
  EXPECT_TRUE(done);
  EXPECT_EQ(n->log().forces(), forces_before + 1);

  // Every member of the group is fully committed and visible.
  EXPECT_EQ(NodeCounter(n, "gc.parked"), 4u);
  EXPECT_EQ(NodeCounter(n, "gc.group_forces"), 1u);
  EXPECT_EQ(NodeCounter(n, "gc.completed"), 4u);
  EXPECT_EQ(NodeCounter(n, "txn.commits"), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(bool acked, n->PollCommit(txns[i]));
    EXPECT_TRUE(acked);
  }
  ASSERT_OK_AND_ASSIGN(TxnId reader, n->Begin());
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string v, n->Read(reader, rids[i]));
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  ASSERT_OK(n->Commit(reader));
}

TEST_F(GroupCommitTest, WindowExpiryAcksOnlyAfterDurable) {
  // A lone committer parks; polling inside the window must not
  // acknowledge it (its commit record is still volatile). Once simulated
  // time passes the window, the poll forces and only then acknowledges.
  Start(/*max_group_size=*/8, /*window_ns=*/2'000'000);
  Node* n = nodes_[0];

  ASSERT_OK_AND_ASSIGN(PageId pid, n->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, n->Begin());
  ASSERT_OK(n->Insert(txn, pid, "windowed").status());

  const Lsn flushed_before = n->log().flushed_lsn();
  ASSERT_OK_AND_ASSIGN(bool done, n->CommitRequest(txn));
  ASSERT_FALSE(done);

  ASSERT_OK_AND_ASSIGN(bool early, n->PollCommit(txn));
  EXPECT_FALSE(early);
  EXPECT_EQ(n->log().flushed_lsn(), flushed_before)
      << "nothing forced inside the window";

  cluster_->clock().Advance(2'000'000);
  ASSERT_OK_AND_ASSIGN(bool late, n->PollCommit(txn));
  EXPECT_TRUE(late);
  EXPECT_GT(n->log().flushed_lsn(), flushed_before)
      << "the ack implies the commit record is durable";
  EXPECT_EQ(NodeCounter(n, "txn.commits"), 1u);
}

TEST_F(GroupCommitTest, CheckpointDrainsGroupAndAckSurvivesCrash) {
  // The checkpoint/ATT interaction: a checkpoint settles the commit group
  // before snapshotting the active-transaction table, so the parked
  // commit is completed (and acknowledgeable) and — the part a crash
  // would expose — restart analysis must treat it as a winner. An
  // acknowledged group commit must survive any later crash.
  Start(/*max_group_size=*/8, /*window_ns=*/10'000'000);
  Node* n = nodes_[0];

  ASSERT_OK_AND_ASSIGN(PageId pid, n->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, n->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, n->Insert(txn, pid, "acked"));
  ASSERT_OK_AND_ASSIGN(bool done, n->CommitRequest(txn));
  ASSERT_FALSE(done);

  // The checkpoint's group drain completes the parked commit as a side
  // effect — an "absorbed" force: the commit path itself never forces.
  ASSERT_OK(n->Checkpoint());
  ASSERT_OK_AND_ASSIGN(bool acked, n->PollCommit(txn));
  EXPECT_TRUE(acked);
  EXPECT_EQ(NodeCounter(n, "gc.completed"), 1u);

  ASSERT_OK(cluster_->CrashNode(n->id()));
  ASSERT_OK(cluster_->RestartNode(n->id()));
  ASSERT_OK_AND_ASSIGN(TxnId reader, n->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, n->Read(reader, rid));
  EXPECT_EQ(v, "acked");
  ASSERT_OK(n->Commit(reader));
}

TEST_F(GroupCommitTest, CrashWhileParkedRollsBackOnlyUnacked) {
  // No phantom commits in either direction. Transaction A parks and is
  // acknowledged (an explicit drain forces the group); transaction B
  // parks afterwards and is never acknowledged. A crash then destroys the
  // volatile log tail. After restart A's update must be present and B's
  // must not — B was indeterminate, and losing it is exactly the
  // all-or-nothing outcome the never-ACK-before-durable rule permits.
  Start(/*max_group_size=*/8, /*window_ns=*/10'000'000);
  Node* n = nodes_[0];

  ASSERT_OK_AND_ASSIGN(PageId pa, n->AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId pb, n->AllocatePage());

  ASSERT_OK_AND_ASSIGN(TxnId ta, n->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId ra, n->Insert(ta, pa, "A-durable"));
  ASSERT_OK_AND_ASSIGN(bool done_a, n->CommitRequest(ta));
  ASSERT_FALSE(done_a);
  ASSERT_OK(n->FlushCommitGroup());
  ASSERT_OK_AND_ASSIGN(bool acked_a, n->PollCommit(ta));
  ASSERT_TRUE(acked_a);  // A is acknowledged: it must survive anything.

  ASSERT_OK_AND_ASSIGN(TxnId tb, n->Begin());
  ASSERT_OK(n->Insert(tb, pb, "B-volatile").status());
  ASSERT_OK_AND_ASSIGN(bool done_b, n->CommitRequest(tb));
  ASSERT_FALSE(done_b);  // B parks and is never polled to completion.

  ASSERT_OK(cluster_->CrashNode(n->id()));
  ASSERT_OK(cluster_->RestartNode(n->id()));

  ASSERT_OK_AND_ASSIGN(TxnId reader, n->Begin());
  ASSERT_OK_AND_ASSIGN(std::string va, n->Read(reader, ra));
  EXPECT_EQ(va, "A-durable");
  // B's record never became durable; its page has no committed image.
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> pb_rows,
                       n->ScanPage(reader, pb));
  EXPECT_TRUE(pb_rows.empty()) << "unacked parked commit must roll back";
  ASSERT_OK(n->Commit(reader));
}

TEST_F(GroupCommitTest, PlainCommitStillSynchronousUnderPolicy) {
  // Node::Commit keeps its blocking contract with the policy on: it
  // parks, immediately leads the group force, and returns with the
  // transaction durable — so existing callers observe no semantic change.
  Start(/*max_group_size=*/8, /*window_ns=*/10'000'000);
  Node* n = nodes_[0];

  ASSERT_OK_AND_ASSIGN(PageId pid, n->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, n->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, n->Insert(txn, pid, "sync"));
  const Lsn flushed_before = n->log().flushed_lsn();
  ASSERT_OK(n->Commit(txn));
  EXPECT_GT(n->log().flushed_lsn(), flushed_before);
  EXPECT_EQ(NodeCounter(n, "txn.commits"), 1u);

  ASSERT_OK(cluster_->CrashNode(n->id()));
  ASSERT_OK(cluster_->RestartNode(n->id()));
  ASSERT_OK_AND_ASSIGN(TxnId reader, n->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, n->Read(reader, rid));
  EXPECT_EQ(v, "sync");
  ASSERT_OK(n->Commit(reader));
}

TEST_F(GroupCommitTest, DriverRunParksAndStaysDeterministic) {
  // The workload driver's park/poll loop: four sessions on one node over
  // disjoint pages, coalescing window wide enough that commits genuinely
  // park. The run must complete every transaction, charge fewer forces
  // than commits, and replay bit-identically from the same seed.
  WorkloadStats first;
  std::uint64_t first_forces = 0, first_commit_records = 0;
  for (int run = 0; run < 2; ++run) {
    TempDir fresh;
    ClusterOptions opts;
    opts.dir = fresh.path();
    opts.node_defaults.buffer_frames = 64;
    opts.node_defaults.logging_policy.WithGroupCommitWindow(2'000'000, 4);
    Cluster cluster(opts);
    Result<Node*> n = cluster.AddNode();
    ASSERT_OK(n.status());

    ASSERT_OK_AND_ASSIGN(
        std::vector<PageId> pages,
        AllocatePopulatedPages(&cluster, (*n)->id(), /*count=*/4,
                               /*records=*/8, /*payload_bytes=*/64,
                               /*seed=*/99));
    std::vector<std::pair<NodeId, std::vector<PageId>>> sessions;
    for (int s = 0; s < 4; ++s) {
      sessions.push_back({(*n)->id(), {pages[s]}});
    }
    WorkloadConfig config;
    config.seed = 4242;
    config.txns_per_session = 12;
    config.ops_per_txn = 4;
    config.records_per_page = 8;
    WorkloadDriver driver(&cluster, config, sessions);
    ASSERT_OK(driver.Run());

    const WorkloadStats& stats = driver.stats();
    EXPECT_EQ(stats.committed, 4u * 12u);
    EXPECT_GT(stats.commit_parks, 0u) << "coalescing path never ran";
    // The perf claim: shared forces beat one-force-per-commit. Population
    // and checkpoint forces are included, so this bound is conservative.
    const std::uint64_t forces = (*n)->log().forces();
    const std::uint64_t commits = (*n)->metrics().CounterValue("txn.commits");
    EXPECT_LT(forces, commits) << "forces=" << forces
                               << " commits=" << commits;

    if (run == 0) {
      first = stats;
      first_forces = forces;
      first_commit_records = commits;
    } else {
      EXPECT_EQ(stats.committed, first.committed);
      EXPECT_EQ(stats.commit_parks, first.commit_parks);
      EXPECT_EQ(stats.group_waits, first.group_waits);
      EXPECT_EQ(stats.ops, first.ops);
      EXPECT_EQ(stats.sim_ns, first.sim_ns);
      EXPECT_EQ(forces, first_forces);
      EXPECT_EQ(commits, first_commit_records);
    }
  }
}

}  // namespace
}  // namespace clog
