#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lock/deadlock_detector.h"
#include "lock/lock_cache.h"
#include "lock/lock_manager.h"
#include "tests/test_util.h"

namespace clog {
namespace {

PageId P(std::uint32_t n) { return PageId{0, n}; }

TEST(GlobalLockTableTest, SharedGrantsCoexist) {
  GlobalLockTable table;
  EXPECT_TRUE(table.TryGrant(P(1), 1, LockMode::kShared).granted);
  EXPECT_TRUE(table.TryGrant(P(1), 2, LockMode::kShared).granted);
  EXPECT_EQ(table.HeldBy(P(1), 1), LockMode::kShared);
  EXPECT_EQ(table.HoldersOf(P(1)).size(), 2u);
}

TEST(GlobalLockTableTest, ExclusiveConflictsReported) {
  GlobalLockTable table;
  EXPECT_TRUE(table.TryGrant(P(1), 1, LockMode::kExclusive).granted);
  GrantOutcome out = table.TryGrant(P(1), 2, LockMode::kShared);
  EXPECT_FALSE(out.granted);
  ASSERT_EQ(out.conflicting.size(), 1u);
  EXPECT_EQ(out.conflicting[0], 1u);
  // Nothing was recorded for the loser.
  EXPECT_EQ(table.HeldBy(P(1), 2), LockMode::kNone);
}

TEST(GlobalLockTableTest, SoleHolderUpgrades) {
  GlobalLockTable table;
  EXPECT_TRUE(table.TryGrant(P(1), 1, LockMode::kShared).granted);
  EXPECT_TRUE(table.TryGrant(P(1), 1, LockMode::kExclusive).granted);
  EXPECT_EQ(table.HeldBy(P(1), 1), LockMode::kExclusive);
}

TEST(GlobalLockTableTest, UpgradeBlockedByOtherSharers) {
  GlobalLockTable table;
  EXPECT_TRUE(table.TryGrant(P(1), 1, LockMode::kShared).granted);
  EXPECT_TRUE(table.TryGrant(P(1), 2, LockMode::kShared).granted);
  GrantOutcome out = table.TryGrant(P(1), 1, LockMode::kExclusive);
  EXPECT_FALSE(out.granted);
  EXPECT_EQ(out.conflicting, std::vector<NodeId>{2});
}

TEST(GlobalLockTableTest, DowngradeAndRelease) {
  GlobalLockTable table;
  EXPECT_TRUE(table.TryGrant(P(1), 1, LockMode::kExclusive).granted);
  table.Downgrade(P(1), 1);
  EXPECT_EQ(table.HeldBy(P(1), 1), LockMode::kShared);
  EXPECT_TRUE(table.TryGrant(P(1), 2, LockMode::kShared).granted);
  table.Release(P(1), 1);
  EXPECT_EQ(table.HeldBy(P(1), 1), LockMode::kNone);
  EXPECT_TRUE(table.TryGrant(P(1), 2, LockMode::kExclusive).granted);
}

TEST(GlobalLockTableTest, CrashHandlingReleasesSharedKeepsExclusive) {
  // Section 2.3.3: shared locks of the crashed node are released,
  // exclusive ones retained to fence unrecovered pages.
  GlobalLockTable table;
  EXPECT_TRUE(table.TryGrant(P(1), 7, LockMode::kShared).granted);
  EXPECT_TRUE(table.TryGrant(P(2), 7, LockMode::kExclusive).granted);
  EXPECT_TRUE(table.TryGrant(P(3), 8, LockMode::kShared).granted);
  table.ReleaseSharedOf(7);
  EXPECT_EQ(table.HeldBy(P(1), 7), LockMode::kNone);
  EXPECT_EQ(table.HeldBy(P(2), 7), LockMode::kExclusive);
  EXPECT_EQ(table.HeldBy(P(3), 8), LockMode::kShared);
  auto x_locks = table.ExclusiveLocksOf(7);
  ASSERT_EQ(x_locks.size(), 1u);
  EXPECT_EQ(x_locks[0].pid, P(2));
}

TEST(GlobalLockTableTest, LocksOfAndInstall) {
  GlobalLockTable table;
  table.Install(P(1), 3, LockMode::kShared);
  table.Install(P(2), 3, LockMode::kExclusive);
  table.Install(P(2), 4, LockMode::kNone);  // Ignored.
  auto locks = table.LocksOf(3);
  EXPECT_EQ(locks.size(), 2u);
  EXPECT_EQ(table.HeldBy(P(2), 4), LockMode::kNone);
  table.ReleaseAllOf(3);
  EXPECT_TRUE(table.LocksOf(3).empty());
}

// --- Requester-side lock cache ---

TEST(LockCacheTest, NeedsNodeLockFirst) {
  LockCache cache;
  LocalAcquire r = cache.AcquireForTxn(1, P(1), LockMode::kShared);
  EXPECT_EQ(r.outcome, LocalAcquire::Outcome::kNeedNodeLock);
  cache.RecordNodeLock(P(1), LockMode::kShared);
  r = cache.AcquireForTxn(1, P(1), LockMode::kShared);
  EXPECT_EQ(r.outcome, LocalAcquire::Outcome::kGranted);
  EXPECT_EQ(cache.TxnMode(1, P(1)), LockMode::kShared);
}

TEST(LockCacheTest, InterTransactionCaching) {
  // The defining behaviour (Section 2.1): node locks survive transaction
  // ends; the next transaction acquires locally with no owner round trip.
  LockCache cache;
  cache.RecordNodeLock(P(1), LockMode::kExclusive);
  EXPECT_EQ(cache.AcquireForTxn(1, P(1), LockMode::kExclusive).outcome,
            LocalAcquire::Outcome::kGranted);
  cache.ReleaseTxnLocks(1);
  EXPECT_EQ(cache.NodeMode(P(1)), LockMode::kExclusive);
  EXPECT_EQ(cache.AcquireForTxn(2, P(1), LockMode::kExclusive).outcome,
            LocalAcquire::Outcome::kGranted);
}

TEST(LockCacheTest, LocalWriteWriteConflict) {
  LockCache cache;
  cache.RecordNodeLock(P(1), LockMode::kExclusive);
  EXPECT_EQ(cache.AcquireForTxn(1, P(1), LockMode::kExclusive).outcome,
            LocalAcquire::Outcome::kGranted);
  LocalAcquire r = cache.AcquireForTxn(2, P(1), LockMode::kExclusive);
  EXPECT_EQ(r.outcome, LocalAcquire::Outcome::kLocalConflict);
  EXPECT_EQ(r.blockers, std::vector<TxnId>{1});
  // Shared readers coexist.
  cache.ReleaseTxnLocks(1);
  EXPECT_EQ(cache.AcquireForTxn(2, P(1), LockMode::kShared).outcome,
            LocalAcquire::Outcome::kGranted);
  EXPECT_EQ(cache.AcquireForTxn(3, P(1), LockMode::kShared).outcome,
            LocalAcquire::Outcome::kGranted);
}

TEST(LockCacheTest, CallbackBlockedByActiveUser) {
  LockCache cache;
  cache.RecordNodeLock(P(1), LockMode::kExclusive);
  EXPECT_EQ(cache.AcquireForTxn(1, P(1), LockMode::kExclusive).outcome,
            LocalAcquire::Outcome::kGranted);
  CallbackDecision dec = cache.CanComply(P(1), LockMode::kNone);
  EXPECT_FALSE(dec.can_comply);
  EXPECT_EQ(dec.blocking_txns, std::vector<TxnId>{1});
  // A demotion callback is blocked only by X users.
  dec = cache.CanComply(P(1), LockMode::kShared);
  EXPECT_FALSE(dec.can_comply);
  cache.ReleaseTxnLocks(1);
  EXPECT_TRUE(cache.CanComply(P(1), LockMode::kNone).can_comply);
}

TEST(LockCacheTest, DemotionCallbackAllowsActiveReaders) {
  LockCache cache;
  cache.RecordNodeLock(P(1), LockMode::kExclusive);
  EXPECT_EQ(cache.AcquireForTxn(1, P(1), LockMode::kShared).outcome,
            LocalAcquire::Outcome::kGranted);
  CallbackDecision dec = cache.CanComply(P(1), LockMode::kShared);
  EXPECT_TRUE(dec.can_comply);  // Reader keeps reading after demotion.
  cache.ApplyCallback(P(1), LockMode::kShared);
  EXPECT_EQ(cache.NodeMode(P(1)), LockMode::kShared);
}

TEST(LockCacheTest, ReleaseCallbackDropsEntry) {
  LockCache cache;
  cache.RecordNodeLock(P(1), LockMode::kExclusive);
  cache.ApplyCallback(P(1), LockMode::kNone);
  EXPECT_EQ(cache.NodeMode(P(1)), LockMode::kNone);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LockCacheTest, ReleaseTxnLocksDropsOnlyTheTransactionsHolds) {
  LockCache cache;
  const TxnId t = 1;
  const TxnId other = 2;
  // P1: t's page lock under a cached X node lock.
  cache.RecordNodeLock(P(1), LockMode::kExclusive);
  ASSERT_EQ(cache.AcquireForTxn(t, P(1), LockMode::kExclusive).outcome,
            LocalAcquire::Outcome::kGranted);
  // P2: t's record lock beside another transaction's page lock.
  cache.RecordNodeLock(P(2), LockMode::kShared);
  ASSERT_EQ(cache.AcquireRecordForTxn(t, P(2), 3, LockMode::kShared).outcome,
            LocalAcquire::Outcome::kGranted);
  ASSERT_EQ(cache.AcquireForTxn(other, P(2), LockMode::kShared).outcome,
            LocalAcquire::Outcome::kGranted);
  // P3: the node lock went while t held the page; only t's hold is left.
  cache.RecordNodeLock(P(3), LockMode::kShared);
  ASSERT_EQ(cache.AcquireForTxn(t, P(3), LockMode::kShared).outcome,
            LocalAcquire::Outcome::kGranted);
  cache.DropNodeLock(P(3));
  // P4: a callback dropped the whole entry while t held the page, and the
  // other transaction locked it anew.
  cache.RecordNodeLock(P(4), LockMode::kShared);
  ASSERT_EQ(cache.AcquireForTxn(t, P(4), LockMode::kShared).outcome,
            LocalAcquire::Outcome::kGranted);
  cache.ApplyCallback(P(4), LockMode::kNone);
  cache.RecordNodeLock(P(4), LockMode::kShared);
  ASSERT_EQ(cache.AcquireForTxn(other, P(4), LockMode::kShared).outcome,
            LocalAcquire::Outcome::kGranted);
  // P5: no node lock, only the other transaction's hold.
  cache.RecordNodeLock(P(5), LockMode::kShared);
  ASSERT_EQ(cache.AcquireForTxn(other, P(5), LockMode::kShared).outcome,
            LocalAcquire::Outcome::kGranted);
  cache.DropNodeLock(P(5));
  ASSERT_EQ(cache.size(), 5u);

  cache.ReleaseTxnLocks(t);
  EXPECT_EQ(cache.TxnMode(t, P(1)), LockMode::kNone);
  EXPECT_EQ(cache.NodeMode(P(1)), LockMode::kExclusive);  // Node lock kept.
  EXPECT_TRUE(cache.CanComply(P(1), LockMode::kNone).can_comply);
  // t's record lock is gone; the other transaction's page lock stays.
  EXPECT_EQ(cache.CanComply(P(2), LockMode::kNone).blocking_txns,
            std::vector<TxnId>{other});
  EXPECT_EQ(cache.TxnMode(other, P(2)), LockMode::kShared);
  EXPECT_EQ(cache.TxnMode(other, P(4)), LockMode::kShared);
  EXPECT_EQ(cache.TxnMode(other, P(5)), LockMode::kShared);
  // Only P3 had neither a node lock nor a hold left.
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.NodeMode(P(3)), LockMode::kNone);
  std::vector<PageId> active = cache.PagesWithActiveTxns();
  std::sort(active.begin(), active.end());
  EXPECT_EQ(active, (std::vector<PageId>{P(2), P(4), P(5)}));

  // Releasing a transaction that holds nothing changes nothing.
  cache.ReleaseTxnLocks(t);
  EXPECT_EQ(cache.size(), 4u);
  cache.ReleaseTxnLocks(other);
  EXPECT_TRUE(cache.PagesWithActiveTxns().empty());
  // P5 goes with its last hold; the node locks stay.
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.NodeMode(P(2)), LockMode::kShared);
  EXPECT_EQ(cache.NodeMode(P(4)), LockMode::kShared);
}

TEST(LockCacheTest, NodeLocksFilterByOwner) {
  LockCache cache;
  cache.RecordNodeLock(PageId{1, 1}, LockMode::kShared);
  cache.RecordNodeLock(PageId{2, 1}, LockMode::kExclusive);
  EXPECT_EQ(cache.NodeLocks().size(), 2u);
  auto of1 = cache.NodeLocks(NodeId{1});
  ASSERT_EQ(of1.size(), 1u);
  EXPECT_EQ(of1[0].pid, (PageId{1, 1}));
  EXPECT_EQ(of1[0].mode, LockMode::kShared);
}

// --- Deadlock detection ---

TEST(DeadlockDetectorTest, DirectCycle) {
  DeadlockDetector dd;
  dd.AddWaits(1, {2});
  EXPECT_FALSE(dd.CyclesThrough(1));
  dd.AddWaits(2, {1});
  EXPECT_TRUE(dd.CyclesThrough(2));
  EXPECT_TRUE(dd.CyclesThrough(1));
}

TEST(DeadlockDetectorTest, LongCycleAndBreaking) {
  DeadlockDetector dd;
  dd.AddWaits(1, {2});
  dd.AddWaits(2, {3});
  dd.AddWaits(3, {4});
  EXPECT_FALSE(dd.CyclesThrough(1));
  dd.AddWaits(4, {1});
  EXPECT_TRUE(dd.CyclesThrough(4));
  dd.RemoveTxn(3);  // Victim dies; cycle broken.
  EXPECT_FALSE(dd.CyclesThrough(4));
  EXPECT_FALSE(dd.CyclesThrough(1));
}

TEST(DeadlockDetectorTest, SelfEdgesIgnored) {
  DeadlockDetector dd;
  dd.AddWaits(1, {1});
  EXPECT_FALSE(dd.CyclesThrough(1));
  EXPECT_EQ(dd.EdgeCount(), 0u);
}

TEST(DeadlockDetectorTest, ClearWaitsOnGrant) {
  DeadlockDetector dd;
  dd.AddWaits(1, {2, 3});
  EXPECT_EQ(dd.EdgeCount(), 2u);
  dd.ClearWaits(1);
  EXPECT_EQ(dd.EdgeCount(), 0u);
  dd.AddWaits(2, {1});
  EXPECT_FALSE(dd.CyclesThrough(2));
}

}  // namespace
}  // namespace clog
