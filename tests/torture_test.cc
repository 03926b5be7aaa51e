#include <gtest/gtest.h>

#include "fault/torture.h"

namespace clog {
namespace {

/// Seeded crash-schedule exploration. Every test runs complete cluster
/// lifetimes through RunTortureSchedule — workload, injected faults,
/// crashes, recoveries — and requires the four torture invariants to hold.
/// A failure names the seed; replay it with `tools/torture --seed=N
/// --verbose` to get the exact schedule back.
///
/// The shard tests (label `torture` in ctest) cover 8 x 64 = 512 distinct
/// seeds. The smoke and determinism tests ride in tier1.

constexpr std::uint64_t kCorpusBase = 1000;
constexpr int kSeedsPerShard = 64;

class TortureShardTest : public ::testing::TestWithParam<int> {};

TEST_P(TortureShardTest, SixtyFourSeeds) {
  const int shard = GetParam();
  for (int i = 0; i < kSeedsPerShard; ++i) {
    TortureOptions opts;
    opts.seed = kCorpusBase + static_cast<std::uint64_t>(shard) *
        kSeedsPerShard + i;
    opts.keep_events = false;  // The CLI replays the trace on demand.
    TortureReport report = RunTortureSchedule(opts);
    ASSERT_TRUE(report.ok) << report.Summary()
                           << "\nreplay: tools/torture --seed=" << report.seed
                           << " --verbose";
  }
}

INSTANTIATE_TEST_SUITE_P(Torture, TortureShardTest, ::testing::Range(0, 8));

/// Crash-during-recovery corpus: every repair pass is forced to kill one
/// restarting node at a seeded phase boundary (docs/availability.md), so
/// each schedule exercises recovery re-entry on top of the usual fault
/// mix. Two 32-seed shards under the `torture` ctest label.
constexpr std::uint64_t kRecoveryCorpusBase = 9000;
constexpr int kRecoverySeedsPerShard = 32;

class CrashDuringRecoveryShardTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashDuringRecoveryShardTest, ThirtyTwoSeeds) {
  const int shard = GetParam();
  std::uint64_t total_recovery_crashes = 0;
  for (int i = 0; i < kRecoverySeedsPerShard; ++i) {
    TortureOptions opts;
    opts.seed = kRecoveryCorpusBase + static_cast<std::uint64_t>(shard) *
        kRecoverySeedsPerShard + i;
    opts.crash_during_recovery = true;
    opts.keep_events = false;
    TortureReport report = RunTortureSchedule(opts);
    ASSERT_TRUE(report.ok)
        << report.Summary() << "\nreplay: tools/torture --seed=" << report.seed
        << " --crash-during-recovery --verbose";
    total_recovery_crashes += report.recovery_crashes;
  }
  // The mode is not allowed to degenerate: across a whole shard, forced
  // arming must actually have killed nodes mid-recovery.
  EXPECT_GT(total_recovery_crashes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Torture, CrashDuringRecoveryShardTest,
                         ::testing::Range(0, 2));

/// Group-commit corpus: every node coalesces commit forces, so each
/// schedule exercises commit parking, absorbed forces, crash-while-parked
/// indeterminacy, and ATT draining at checkpoints. Two 32-seed shards.
constexpr std::uint64_t kGroupCommitCorpusBase = 17000;
constexpr int kGroupCommitSeedsPerShard = 32;

class GroupCommitShardTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupCommitShardTest, ThirtyTwoSeeds) {
  const int shard = GetParam();
  std::uint64_t total_parked = 0;
  for (int i = 0; i < kGroupCommitSeedsPerShard; ++i) {
    TortureOptions opts;
    opts.seed = kGroupCommitCorpusBase + static_cast<std::uint64_t>(shard) *
        kGroupCommitSeedsPerShard + i;
    opts.group_commit = true;
    opts.keep_events = false;
    TortureReport report = RunTortureSchedule(opts);
    ASSERT_TRUE(report.ok)
        << report.Summary() << "\nreplay: tools/torture --seed=" << report.seed
        << " --group-commit --verbose";
    total_parked += report.txns_parked;
  }
  // The mode is not allowed to degenerate: across a whole shard, commits
  // must actually have parked (the coalescing path must have run).
  EXPECT_GT(total_parked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Torture, GroupCommitShardTest,
                         ::testing::Range(0, 2));

/// Media-failure corpus: every node runs with fuzzy page archives, the
/// crash branch sometimes destroys a whole device (data or log) at the
/// crash point, and the transient page-read fault joins the armed I/O mix.
/// On top of the usual four invariants the harness checks archive
/// self-consistency and poison fencing (records on pages fenced as
/// unrecoverable must read back Corruption, never stale data). Two
/// 32-seed shards under the `media` ctest label.
constexpr std::uint64_t kMediaCorpusBase = 25000;
constexpr int kMediaSeedsPerShard = 32;

class MediaFailureShardTest : public ::testing::TestWithParam<int> {};

TEST_P(MediaFailureShardTest, ThirtyTwoSeeds) {
  const int shard = GetParam();
  std::uint64_t total_losses = 0;
  std::uint64_t total_log_losses = 0;
  for (int i = 0; i < kMediaSeedsPerShard; ++i) {
    TortureOptions opts;
    opts.seed = kMediaCorpusBase + static_cast<std::uint64_t>(shard) *
        kMediaSeedsPerShard + i;
    opts.media_failure = true;
    opts.keep_events = false;
    TortureReport report = RunTortureSchedule(opts);
    ASSERT_TRUE(report.ok)
        << report.Summary() << "\nreplay: tools/torture --seed=" << report.seed
        << " --media-failure --verbose";
    total_losses += report.device_losses;
    total_log_losses += report.log_losses;
  }
  // The mode is not allowed to degenerate: across a whole shard, devices
  // must actually have been destroyed, including some log devices (the
  // client-based-logging worst case: committed history lost at the top).
  EXPECT_GT(total_losses, 0u);
  EXPECT_GT(total_log_losses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Torture, MediaFailureShardTest,
                         ::testing::Range(0, 2));

/// Instant-restore hammer corpus: the media mix with instant restore on
/// every node, so data-device losses defer their rebuilds and the workload
/// keeps landing on half-restored nodes while the harness sweeps one page
/// per node per step. Two invariants on top of the media set: a restoring
/// page never serves stale data (every on-demand rebuild is model-checked),
/// and restore completion is crash-re-enterable without PSN regression.
/// Two 32-seed shards under the `restore` ctest label.
constexpr std::uint64_t kHammerCorpusBase = 33000;
constexpr int kHammerSeedsPerShard = 32;

class HammerRestoreShardTest : public ::testing::TestWithParam<int> {};

TEST_P(HammerRestoreShardTest, ThirtyTwoSeeds) {
  const int shard = GetParam();
  std::uint64_t total_losses = 0;
  std::uint64_t total_planned = 0;
  for (int i = 0; i < kHammerSeedsPerShard; ++i) {
    TortureOptions opts;
    opts.seed = kHammerCorpusBase + static_cast<std::uint64_t>(shard) *
        kHammerSeedsPerShard + i;
    opts.hammer_restore = true;
    opts.keep_events = false;
    TortureReport report = RunTortureSchedule(opts);
    ASSERT_TRUE(report.ok)
        << report.Summary() << "\nreplay: tools/torture --seed=" << report.seed
        << " --hammer-restore --verbose";
    total_losses += report.device_losses;
    total_planned += report.restore_planned;
  }
  // The mode is not allowed to degenerate: across a whole shard, devices
  // must actually have been destroyed AND pages must actually have been
  // deferred to instant restore (the eager path must not have absorbed
  // every loss before a plan was written).
  EXPECT_GT(total_losses, 0u);
  EXPECT_GT(total_planned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Torture, HammerRestoreShardTest,
                         ::testing::Range(0, 2));

/// Adaptive-logging corpus: the cluster policy is kAdaptive, and the
/// workload mixes per-transaction physical overrides, so every schedule
/// interleaves logical records, upgrades, backfills, and skip
/// classification with the usual fault mix.
/// One shard forces a crash into every repair pass so redo re-enters
/// mid-recovery on adaptive logs. The sixth invariant (logical records
/// replay to the same page bytes) is checked by the harness's final
/// double-recovery. Two 32-seed shards under the `adaptive` ctest label.
constexpr std::uint64_t kAdaptiveCorpusBase = 41000;
constexpr int kAdaptiveSeedsPerShard = 32;

class AdaptiveShardTest : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveShardTest, ThirtyTwoSeeds) {
  const int shard = GetParam();
  std::uint64_t total_adaptive = 0;
  for (int i = 0; i < kAdaptiveSeedsPerShard; ++i) {
    TortureOptions opts;
    opts.seed = kAdaptiveCorpusBase + static_cast<std::uint64_t>(shard) *
        kAdaptiveSeedsPerShard + i;
    opts.adaptive = true;
    // Shard 1: every repair pass also kills a restarting node at a seeded
    // phase boundary, so redo is re-entered from scratch mid-recovery.
    opts.crash_during_recovery = shard == 1;
    opts.keep_events = false;
    TortureReport report = RunTortureSchedule(opts);
    ASSERT_TRUE(report.ok)
        << report.Summary() << "\nreplay: tools/torture --seed=" << report.seed
        << " --adaptive" << (shard == 1 ? " --crash-during-recovery" : "")
        << " --verbose";
    total_adaptive += report.txns_adaptive;
  }
  // The mode is not allowed to degenerate: across a whole shard, the
  // workload must actually have run adaptive transactions.
  EXPECT_GT(total_adaptive, 0u);
}

INSTANTIATE_TEST_SUITE_P(Torture, AdaptiveShardTest, ::testing::Range(0, 2));

/// Elastic-membership corpus at 16 nodes: a seeded fraction of every
/// schedule's steps runs a membership operation — four-phase page handoff,
/// JoinNode, graceful LeaveNode — on top of the normal fault mix, and
/// three invariants ride on the usual four (exactly one durable owner per
/// page, no committed update lost across a transfer, no visible-PSN
/// regression at the new owner). Shard 1 arms every handoff to crash one
/// endpoint (source or target, seeded) at a seeded phase boundary, so the
/// durable handoff ledgers must re-enter on every single transfer. Two
/// 32-seed shards under the `elastic` ctest label.
constexpr std::uint64_t kElasticCorpusBase = 49000;
constexpr int kElasticSeedsPerShard = 32;

class ElasticShardTest : public ::testing::TestWithParam<int> {};

TEST_P(ElasticShardTest, ThirtyTwoSeeds) {
  const int shard = GetParam();
  std::uint64_t total_handoffs = 0;
  std::uint64_t total_handoff_crashes = 0;
  std::uint64_t total_membership = 0;
  for (int i = 0; i < kElasticSeedsPerShard; ++i) {
    TortureOptions opts;
    opts.seed = kElasticCorpusBase + static_cast<std::uint64_t>(shard) *
        kElasticSeedsPerShard + i;
    opts.elastic = true;
    opts.num_nodes = 16;
    opts.crash_during_handoff = shard == 1;
    opts.keep_events = false;
    TortureReport report = RunTortureSchedule(opts);
    ASSERT_TRUE(report.ok)
        << report.Summary() << "\nreplay: tools/torture --seed=" << report.seed
        << " --elastic --nodes=16"
        << (shard == 1 ? " --crash-during-handoff" : "") << " --verbose";
    total_handoffs += report.handoffs;
    total_handoff_crashes += report.handoff_crashes;
    total_membership += report.joins + report.leaves;
  }
  // The mode is not allowed to degenerate: across a whole shard, pages
  // must actually have changed owners and membership must actually have
  // churned; the crash shard must actually have killed endpoints at
  // handoff phase boundaries.
  EXPECT_GT(total_handoffs, 0u);
  EXPECT_GT(total_membership, 0u);
  if (shard == 1) {
    EXPECT_GT(total_handoff_crashes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Torture, ElasticShardTest, ::testing::Range(0, 2));

TEST(TortureSmoke, AFewSeedsPass) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 42ull}) {
    TortureOptions opts;
    opts.seed = seed;
    opts.keep_events = false;
    TortureReport report = RunTortureSchedule(opts);
    ASSERT_TRUE(report.ok) << report.Summary()
                           << "\nreplay: tools/torture --seed=" << report.seed
                           << " --verbose";
  }
}

TEST(TortureSmoke, SameSeedReplaysIdentically) {
  // The whole point of the seed: two runs of one seed must produce the
  // same schedule (hash over the event trace), the same verdict, and the
  // same counters — this is what makes `tools/torture --seed=N` a replay
  // and not a reroll.
  TortureOptions opts;
  opts.seed = 7;
  TortureReport a = RunTortureSchedule(opts);
  TortureReport b = RunTortureSchedule(opts);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.schedule_hash, b.schedule_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.Summary(), b.Summary());
  ASSERT_TRUE(a.ok) << a.Summary();
}

TEST(TortureSmoke, GroupCommitSeedsPassAndReplayIdentically) {
  // A couple of group-commit schedules ride in tier1 so the coalescing
  // path is torture-covered in every build, and the replay contract holds
  // with the policy on.
  for (std::uint64_t seed : {1ull, 5ull, 10ull}) {
    TortureOptions opts;
    opts.seed = seed;
    opts.group_commit = true;
    TortureReport a = RunTortureSchedule(opts);
    TortureReport b = RunTortureSchedule(opts);
    ASSERT_TRUE(a.ok) << a.Summary()
                      << "\nreplay: tools/torture --seed=" << a.seed
                      << " --group-commit --verbose";
    EXPECT_EQ(a.schedule_hash, b.schedule_hash);
    EXPECT_EQ(a.Summary(), b.Summary());
  }
}

TEST(TortureSmoke, MediaFailureSeedsPassAndReplayIdentically) {
  // A couple of media-failure schedules ride in tier1 so device loss,
  // archive restore, and poison fencing are covered in every build, and
  // the replay contract holds with the mode on.
  for (std::uint64_t seed : {25000ull, 25005ull}) {
    TortureOptions opts;
    opts.seed = seed;
    opts.media_failure = true;
    TortureReport a = RunTortureSchedule(opts);
    TortureReport b = RunTortureSchedule(opts);
    ASSERT_TRUE(a.ok) << a.Summary()
                      << "\nreplay: tools/torture --seed=" << a.seed
                      << " --media-failure --verbose";
    EXPECT_EQ(a.schedule_hash, b.schedule_hash);
    EXPECT_EQ(a.Summary(), b.Summary());
  }
}

TEST(TortureSmoke, GroupCommitStaysOnInMediaMode) {
  // Media mode sets the archive in the node defaults' logging policy; the
  // group-commit window must land in the same policy rather than be
  // dropped beside it. Checks the plumbing (commits park), not a verdict.
  TortureOptions opts;
  opts.seed = 5;
  opts.group_commit = true;
  opts.media_failure = true;
  opts.keep_events = false;
  TortureReport report = RunTortureSchedule(opts);
  EXPECT_GT(report.txns_parked, 0u) << report.Summary();
}

TEST(TortureSmoke, HammerRestoreSeedsPassAndReplayIdentically) {
  // A couple of hammer-restore schedules ride in tier1 so the on-demand
  // rebuild path is torture-covered in every build, and the replay
  // contract holds with the mode on.
  for (std::uint64_t seed : {33000ull, 33007ull}) {
    TortureOptions opts;
    opts.seed = seed;
    opts.hammer_restore = true;
    TortureReport a = RunTortureSchedule(opts);
    TortureReport b = RunTortureSchedule(opts);
    ASSERT_TRUE(a.ok) << a.Summary()
                      << "\nreplay: tools/torture --seed=" << a.seed
                      << " --hammer-restore --verbose";
    EXPECT_EQ(a.schedule_hash, b.schedule_hash);
    EXPECT_EQ(a.Summary(), b.Summary());
  }
}

TEST(TortureSmoke, ElasticSeedsPassAndReplayIdentically) {
  // A couple of elastic-membership schedules ride in tier1 (at the default
  // three nodes, so they stay cheap) so handoff, join, and leave paths are
  // torture-covered in every build, and the replay contract holds with
  // membership churn on.
  for (std::uint64_t seed : {49000ull, 49002ull}) {
    TortureOptions opts;
    opts.seed = seed;
    opts.elastic = true;
    TortureReport a = RunTortureSchedule(opts);
    TortureReport b = RunTortureSchedule(opts);
    ASSERT_TRUE(a.ok) << a.Summary()
                      << "\nreplay: tools/torture --seed=" << a.seed
                      << " --elastic --verbose";
    EXPECT_EQ(a.schedule_hash, b.schedule_hash);
    EXPECT_EQ(a.Summary(), b.Summary());
  }
}

TEST(TortureSmoke, AdaptiveSeedsPassAndReplayIdentically) {
  // A couple of adaptive schedules ride in tier1 so the logical-record,
  // upgrade, and redo-skip paths are torture-covered in every build, and
  // the replay contract holds with the mode on.
  for (std::uint64_t seed : {41000ull, 41003ull}) {
    TortureOptions opts;
    opts.seed = seed;
    opts.adaptive = true;
    TortureReport a = RunTortureSchedule(opts);
    TortureReport b = RunTortureSchedule(opts);
    ASSERT_TRUE(a.ok) << a.Summary()
                      << "\nreplay: tools/torture --seed=" << a.seed
                      << " --adaptive --verbose";
    EXPECT_EQ(a.schedule_hash, b.schedule_hash);
    EXPECT_EQ(a.Summary(), b.Summary());
  }
}

TEST(TortureSmoke, AdaptiveElasticSeedsPass) {
  // Adaptive schedules with membership churn, at the default three nodes.
  // The redo-fidelity check compares whole page images, checksum
  // included: an image read from a cached frame must be sealed first, or
  // its stale checksum field differs between two recoveries of one log
  // (seeds 19 and 23 failed that way).
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    TortureOptions opts;
    opts.seed = seed;
    opts.adaptive = true;
    opts.elastic = true;
    opts.keep_events = false;
    TortureReport report = RunTortureSchedule(opts);
    ASSERT_TRUE(report.ok) << report.Summary()
                           << "\nreplay: tools/torture --seed=" << report.seed
                           << " --adaptive --elastic --verbose";
  }
}

TEST(TortureSmoke, MediaModeOffLeavesSchedulesUntouched) {
  // The media machinery must be invisible when the mode is off: the same
  // seed with media_failure defaulted produces the exact same schedule and
  // structured-trace hashes as before the subsystem existed, so every
  // archived golden hash stays valid.
  TortureOptions opts;
  opts.seed = 7;
  TortureReport plain = RunTortureSchedule(opts);
  ASSERT_TRUE(plain.ok) << plain.Summary();
  EXPECT_EQ(plain.device_losses, 0u);
  EXPECT_EQ(plain.pages_poisoned, 0u);
}

TEST(TortureSmoke, DifferentSeedsDiverge) {
  TortureOptions a, b;
  a.seed = 11;
  b.seed = 12;
  TortureReport ra = RunTortureSchedule(a);
  TortureReport rb = RunTortureSchedule(b);
  EXPECT_NE(ra.schedule_hash, rb.schedule_hash);
}

}  // namespace
}  // namespace clog
