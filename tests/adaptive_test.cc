#include <gtest/gtest.h>

#include <string>

#include "core/cluster.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// Restart of an adaptive-logging loser (docs/PROTOCOLS.md "Redo skip
/// rule"). Page P holds a committed record; loser L overwrites it with a
/// logical record and never ends; a later commit on page Q forces L's
/// record into the durable log; then the node crashes.
class AdaptiveLoserTest : public ::testing::Test {
 protected:
  AdaptiveLoserTest() {
    ClusterOptions opts;
    opts.dir = dir_.path();
    // Two frames: caching Q and then R evicts P.
    opts.node_defaults.buffer_frames = 2;
    opts.node_defaults.logging_policy =
        LoggingPolicy().WithStrategy(LogStrategy::kAdaptive);
    cluster_ = std::make_unique<Cluster>(opts);
    node_ = *cluster_->AddNode();
  }

  /// Runs the history above. With `evict_p`, the committing transaction
  /// also touches page R, and caching R evicts P while L is live.
  void RunLoserHistory(bool evict_p) {
    ASSERT_OK_AND_ASSIGN(PageId p, node_->AllocatePage());
    ASSERT_OK_AND_ASSIGN(PageId q, node_->AllocatePage());
    ASSERT_OK_AND_ASSIGN(PageId r, node_->AllocatePage());
    ASSERT_OK_AND_ASSIGN(TxnId seed, node_->Begin());
    ASSERT_OK_AND_ASSIGN(rid_, node_->Insert(seed, p, "committed"));
    ASSERT_OK(node_->Commit(seed));

    ASSERT_OK_AND_ASSIGN(TxnId loser, node_->Begin());
    ASSERT_OK(node_->Update(loser, rid_, "uncommitted"));

    ASSERT_OK_AND_ASSIGN(TxnId later, node_->Begin());
    ASSERT_OK(node_->Insert(later, q, "later").status());
    if (evict_p) ASSERT_OK(node_->Insert(later, r, "later").status());
    ASSERT_OK(node_->Commit(later));
    EXPECT_EQ(node_->pool().Contains(p), !evict_p);
    // The steal barrier upgrades L only when P leaves the cache.
    EXPECT_EQ(node_->metrics().CounterValue("txn.upgrades"),
              evict_p ? 1u : 0u);

    ASSERT_OK(cluster_->CrashNode(node_->id()));
    ASSERT_OK(cluster_->RestartNode(node_->id()));
  }

  void ExpectCommittedValue() {
    ASSERT_OK_AND_ASSIGN(TxnId check, node_->Begin());
    ASSERT_OK_AND_ASSIGN(std::string v, node_->Read(check, rid_));
    EXPECT_EQ(v, "committed");
    ASSERT_OK(node_->Commit(check));
  }

  const RestartRecovery::Stats& Stats() const {
    return cluster_->recovery_stats().at(node_->id());
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* node_ = nullptr;
  RecordId rid_;
};

TEST_F(AdaptiveLoserTest, DurableLogicalLoserIsRedoSkipped) {
  RunLoserHistory(/*evict_p=*/false);
  // L's records are durable but were never backfilled: redo skips them,
  // and undo gives L an END record only.
  EXPECT_EQ(Stats().logical_losers_skipped, 1u);
  EXPECT_EQ(Stats().losers_undone, 1u);
  ExpectCommittedValue();
}

TEST_F(AdaptiveLoserTest, EvictedLogicalLoserIsUndoneFromItsBackfill) {
  RunLoserHistory(/*evict_p=*/true);
  // P reached the disk with L's update, so undo rolls L back with the
  // before-images its backfill record carries.
  EXPECT_EQ(Stats().logical_losers_skipped, 0u);
  EXPECT_EQ(Stats().losers_undone, 1u);
  ExpectCommittedValue();
}

}  // namespace
}  // namespace clog
