#include <gtest/gtest.h>

#include "core/cluster.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// Builds a 1-owner / 1-client cluster in the given logging mode and runs
/// a fixed workload; used to compare the paper's protocol against the two
/// related-work baselines.
class BaselineTest : public ::testing::Test {
 protected:
  void Build(LoggingMode mode) {
    ClusterOptions opts;
    opts.dir = dir_.path() + "/" + std::string(LoggingModeName(mode));
    opts.node_defaults.buffer_frames = 32;
    opts.node_defaults.logging_mode = mode;
    cluster_ = std::make_unique<Cluster>(opts);
    owner_ = *cluster_->AddNode();
    client_ = *cluster_->AddNode();
  }

  std::uint64_t Msgs(const std::string& type) {
    return cluster_->network().metrics().CounterValue("msg." + type);
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* owner_ = nullptr;
  Node* client_ = nullptr;
};

TEST_F(BaselineTest, B1ShipsLogRecordsAtCommit) {
  Build(LoggingMode::kShipToOwner);
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "b1"));
  std::uint64_t ships_before = Msgs("log_ship");
  ASSERT_OK(client_->Commit(txn));
  EXPECT_GT(Msgs("log_ship"), ships_before);  // ARIES/CSA-style commit.
  EXPECT_GT(owner_->metrics().CounterValue("b1.records_received"), 0u);

  // Data is correct and visible across nodes.
  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "b1");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(BaselineTest, B1AbortUndoesAndShipsClrs) {
  Build(LoggingMode::kShipToOwner);
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId good, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(good, pid, "base"));
  ASSERT_OK(client_->Commit(good));

  ASSERT_OK_AND_ASSIGN(TxnId bad, client_->Begin());
  ASSERT_OK(client_->Update(bad, rid, "poison"));
  ASSERT_OK(client_->Abort(bad));

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "base");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(BaselineTest, B1ReadOnlyCommitIsFree) {
  Build(LoggingMode::kShipToOwner);
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId seed, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(seed, pid, "r"));
  ASSERT_OK(client_->Commit(seed));
  std::uint64_t ships = Msgs("log_ship");
  ASSERT_OK_AND_ASSIGN(TxnId ro, client_->Begin());
  ASSERT_OK(client_->Read(ro, rid).status());
  ASSERT_OK(client_->Commit(ro));
  EXPECT_EQ(Msgs("log_ship"), ships);
}

TEST_F(BaselineTest, B2ForcesPagesAtCommit) {
  Build(LoggingMode::kForceAtTransfer);
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  std::uint64_t owner_writes = owner_->disk().writes();
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "b2"));
  ASSERT_OK(client_->Commit(txn));
  // Rdb/VMS-style: the updated page was shipped home and forced to disk.
  EXPECT_GT(owner_->disk().writes(), owner_writes);
  EXPECT_GE(Msgs("flush_request"), 1u);
  ASSERT_OK_AND_ASSIGN(Psn disk_psn, owner_->DiskPsn(pid));
  EXPECT_GE(disk_psn, 1u);

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "b2");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(BaselineTest, B2AbortWorksLocally) {
  Build(LoggingMode::kForceAtTransfer);
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId good, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(good, pid, "base"));
  ASSERT_OK(client_->Commit(good));
  ASSERT_OK_AND_ASSIGN(TxnId bad, client_->Begin());
  ASSERT_OK(client_->Update(bad, rid, "poison"));
  ASSERT_OK(client_->Abort(bad));
  ASSERT_OK_AND_ASSIGN(TxnId check, client_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, client_->Read(check, rid));
  EXPECT_EQ(v, "base");
  ASSERT_OK(client_->Commit(check));
}

TEST_F(BaselineTest, CommitMessageComparisonAcrossModes) {
  // The E1 experiment in miniature: client-local commits send zero
  // messages; ship-to-owner pays a round trip per commit (the log ship and
  // the reply that the owner's force is done); force-at-transfer pays
  // pages.
  auto commit_messages = [&](LoggingMode mode) -> std::uint64_t {
    Build(mode);
    PageId pid = *owner_->AllocatePage();
    TxnId warm = *client_->Begin();
    RecordId rid = *client_->Insert(warm, pid, "warm");
    EXPECT_OK(client_->Commit(warm));
    std::uint64_t before =
        cluster_->network().metrics().CounterValue("msg.total");
    TxnId txn = *client_->Begin();
    EXPECT_OK(client_->Update(txn, rid, "pay"));
    std::uint64_t before_commit =
        cluster_->network().metrics().CounterValue("msg.total");
    EXPECT_GE(before_commit, before);
    EXPECT_OK(client_->Commit(txn));
    return cluster_->network().metrics().CounterValue("msg.total") -
           before_commit;
  };
  std::uint64_t local = commit_messages(LoggingMode::kClientLocal);
  std::uint64_t ship = commit_messages(LoggingMode::kShipToOwner);
  std::uint64_t force = commit_messages(LoggingMode::kForceAtTransfer);
  EXPECT_EQ(local, 0u);
  EXPECT_EQ(ship, 2u);
  EXPECT_GT(force, 0u);
}

TEST_F(BaselineTest, NodeWithoutLocalLogMustShip) {
  ClusterOptions opts;
  opts.dir = dir_.path() + "/nolog";
  cluster_ = std::make_unique<Cluster>(opts);
  owner_ = *cluster_->AddNode();
  NodeOptions no_log;
  no_log.has_local_log = false;
  no_log.logging_mode = LoggingMode::kClientLocal;  // Invalid combination.
  EXPECT_FALSE(cluster_->AddNode(no_log).ok());
  no_log.logging_mode = LoggingMode::kShipToOwner;
  ASSERT_OK_AND_ASSIGN(Node * diskless, cluster_->AddNode(no_log));
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, diskless->Begin());
  ASSERT_OK(diskless->Insert(txn, pid, "diskless").status());
  ASSERT_OK(diskless->Commit(txn));
}

}  // namespace
}  // namespace clog
