#include <gtest/gtest.h>

#include "common/random.h"
#include "core/cluster.h"
#include "core/workload.h"
#include "fault/fault_injector.h"
#include "fault/torture.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// The repository's core methodological claim (DESIGN.md Section 4):
/// identical seeds and call sequences reproduce identical histories —
/// including crash points, recovery work, message counts, and simulated
/// time. These tests run whole scenario scripts twice in independent
/// directories and require every observable counter to match exactly.

struct Trace {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sim_ns = 0;
  std::uint64_t committed = 0;
  std::uint64_t log_records_owner = 0;
  std::uint64_t log_records_client = 0;
  std::uint64_t analysis_records = 0;
  std::uint64_t redo_applied = 0;

  friend bool operator==(const Trace&, const Trace&) = default;
};

Trace RunScenario(const std::string& dir, std::uint64_t seed) {
  ClusterOptions opts;
  opts.dir = dir;
  opts.node_defaults.buffer_frames = 10;
  Cluster cluster(opts);
  Node* owner = *cluster.AddNode();
  Node* client = *cluster.AddNode();
  auto pages = *AllocatePopulatedPages(&cluster, owner->id(), 5, 6, 40, seed);

  WorkloadConfig config;
  config.seed = seed;
  config.txns_per_session = 15;
  config.ops_per_txn = 5;
  config.records_per_page = 6;
  config.payload_bytes = 40;
  WorkloadDriver driver(&cluster, config,
                        {{owner->id(), pages}, {client->id(), pages}});
  EXPECT_OK(driver.Run());

  EXPECT_OK(cluster.CrashNode(owner->id()));
  EXPECT_OK(cluster.RestartNode(owner->id()));
  const auto& stats = cluster.recovery_stats().at(owner->id());

  Trace trace;
  trace.messages = cluster.network().metrics().CounterValue("msg.total");
  trace.bytes = cluster.network().metrics().CounterValue("bytes.total");
  trace.sim_ns = cluster.clock().NowNanos();
  trace.committed = driver.stats().committed;
  trace.log_records_owner = owner->log().appended_records();
  trace.log_records_client = client->log().appended_records();
  trace.analysis_records = stats.analysis_records;
  trace.redo_applied = stats.redo_applied;
  return trace;
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalHistories) {
  TempDir a, b;
  Trace first = RunScenario(a.path(), 4242);
  Trace second = RunScenario(b.path(), 4242);
  EXPECT_EQ(first, second);
  // Sanity: the trace is non-trivial.
  EXPECT_GT(first.messages, 0u);
  EXPECT_GT(first.committed, 0u);
  EXPECT_GT(first.analysis_records, 0u);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  TempDir a, b;
  Trace first = RunScenario(a.path(), 1);
  Trace second = RunScenario(b.path(), 2);
  EXPECT_NE(first, second);
}

/// Same contract under the availability layer: with message drops live and
/// the retry envelope enabled (docs/availability.md), identical seeds must
/// reproduce identical retry counts, backoff time, and final state — the
/// jittered backoff schedule is part of the deterministic history.
struct RetryTrace {
  std::uint64_t messages = 0;
  std::uint64_t sim_ns = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted_availability = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_retry_success = 0;
  std::uint64_t backoff_ns = 0;
  std::uint64_t hb_probes = 0;

  friend bool operator==(const RetryTrace&, const RetryTrace&) = default;
};

RetryTrace RunRetryHeavyScenario(const std::string& dir, std::uint64_t seed) {
  FaultInjector injector(seed);
  FaultConfig cfg;
  cfg.net_drop_p = 0.25;  // Every remote hop is a coin flip.
  injector.set_config(cfg);
  injector.set_enabled(false);

  ClusterOptions opts;
  opts.dir = dir;
  opts.fault_injector = &injector;
  opts.retry_policy.enabled = true;
  opts.retry_policy.jitter_seed = seed;
  opts.node_defaults.buffer_frames = 10;
  Cluster cluster(opts);
  Node* owner = *cluster.AddNode();
  Node* client = *cluster.AddNode();
  auto pages = *AllocatePopulatedPages(&cluster, owner->id(), 3, 6, 40, seed);

  WorkloadConfig config;
  config.seed = seed;
  config.txns_per_session = 10;
  config.ops_per_txn = 4;
  config.records_per_page = 6;
  config.payload_bytes = 40;
  WorkloadDriver driver(&cluster, config,
                        {{owner->id(), pages}, {client->id(), pages}});
  injector.set_enabled(true);
  EXPECT_OK(driver.Run());
  injector.set_enabled(false);

  const Metrics& m = cluster.network().metrics();
  RetryTrace trace;
  trace.messages = m.CounterValue("msg.total");
  trace.sim_ns = cluster.clock().NowNanos();
  trace.committed = driver.stats().committed;
  trace.aborted_availability = driver.stats().aborted_availability;
  trace.rpc_retries = m.CounterValue("rpc.retries");
  trace.rpc_retry_success = m.CounterValue("rpc.retry_success");
  trace.backoff_ns = m.CounterValue("rpc.backoff_ns");
  trace.hb_probes = m.CounterValue("hb.probes");
  return trace;
}

TEST(DeterminismTest, RetryHeavySchedulesReplayIdentically) {
  TempDir a, b;
  RetryTrace first = RunRetryHeavyScenario(a.path(), 777);
  RetryTrace second = RunRetryHeavyScenario(b.path(), 777);
  EXPECT_EQ(first, second);
  // Sanity: the envelope actually worked for a living.
  EXPECT_GT(first.rpc_retries, 0u);
  EXPECT_GT(first.backoff_ns, 0u);
  EXPECT_GT(first.committed, 0u);
}

TEST(DeterminismTest, RetryHeavySeedsDiverge) {
  TempDir a, b;
  RetryTrace first = RunRetryHeavyScenario(a.path(), 101);
  RetryTrace second = RunRetryHeavyScenario(b.path(), 102);
  EXPECT_NE(first, second);
}

/// Pinned schedule/trace hashes for the reference torture seeds, captured
/// before the executor-seam refactor (docs/architecture_modes.md). The
/// simulation engine's contract is *byte-identical* behaviour across that
/// refactor: a virtual clock, an inline executor, and leaf-level mutexes
/// must not move a single event. If this test fails, simulation mode's
/// history changed — that is a regression even if every invariant still
/// holds, because recorded repro seeds and cross-run diffs stop lining up.
/// Do not re-pin these constants without a deliberate, documented schedule
/// change.
TEST(DeterminismTest, TortureHashesMatchPreRefactorBaseline) {
  struct Pin {
    std::uint64_t seed;
    std::uint64_t schedule_hash;
    std::uint64_t trace_hash;
  };
  // Values from `tools/torture --seed=42 --count=3` at the pre-refactor
  // commit (defaults: steps=40, nodes=3, pages=2, records=4). The schedule
  // hashes never moved; the trace hashes were re-pinned since:
  //  - seed 42 once, because it rebuilds a torn page, and the rebuild
  //    became a restore plan drained before the node opens, which adds the
  //    RESTORE_PLAN, PAGE_RESTORED and RESTORE_DONE events;
  //  - all three once, because RPC events carry the numeric MsgType, and
  //    adding kLogShipReply and deleting the never-sent DPT push message
  //    renumbered the values between them. With the old numbering the old
  //    trace hashes return;
  //  - seeds 43 and 44 once, because an owner that installs a page shipped
  //    from a client clears the image's LSN (one of the client's log), so
  //    handing the page on no longer forces the owner's own log: a
  //    LOG_FORCE event each is gone. The forces cost no simulated time
  //    those schedules depend on, so their schedule hashes stayed.
  const Pin kPins[] = {
      {42, 0xd8d97f8d90e6c8a6ull, 0xbd5723ffdce373a8ull},
      {43, 0x3db5d038aa7e045eull, 0x5f5823d880953795ull},
      {44, 0x36678826b5c6b96bull, 0x15c02edab75c86e0ull},
  };
  for (const Pin& pin : kPins) {
    TortureOptions opts;
    opts.seed = pin.seed;
    opts.keep_events = false;  // CLI default; hashes cover the full trace.
    TortureReport report = RunTortureSchedule(opts);
    EXPECT_TRUE(report.ok) << "seed " << pin.seed << ": " << report.failure;
    EXPECT_EQ(report.schedule_hash, pin.schedule_hash)
        << "seed " << pin.seed << " schedule hash drifted";
    EXPECT_EQ(report.trace_hash, pin.trace_hash)
        << "seed " << pin.seed << " trace hash drifted";
  }
}

/// The pinned baselines above run with the default LoggingPolicy — all
/// physical — which is exactly the guarantee adaptive logging makes: when
/// the policy is off, schedules and traces stay byte-identical to
/// pre-adaptive builds. Adaptive schedules carry their own (unpinned)
/// determinism contract instead: one seed, one history.
TEST(DeterminismTest, AdaptiveTortureSchedulesReplayIdentically) {
  TortureOptions opts;
  opts.seed = 4242;
  opts.adaptive = true;
  opts.keep_events = false;
  TortureReport first = RunTortureSchedule(opts);
  TortureReport second = RunTortureSchedule(opts);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_TRUE(second.ok) << second.failure;
  EXPECT_EQ(first.schedule_hash, second.schedule_hash);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  // Sanity: the mix actually produced adaptive transactions.
  EXPECT_GT(first.txns_adaptive, 0u);
}

TEST(DeterminismTest, RecoveryItselfIsDeterministic) {
  // Crash the same pre-state twice (via a second process-replacement
  // restart of the same files): both recoveries do identical work.
  TempDir dir;
  ClusterOptions opts;
  opts.dir = dir.path();
  Cluster cluster(opts);
  Node* owner = *cluster.AddNode();
  Node* client = *cluster.AddNode();
  PageId pid = *owner->AllocatePage();
  TxnId txn = *client->Begin();
  RecordId rid = *client->Insert(txn, pid, "x");
  ASSERT_OK(client->Commit(txn));
  ASSERT_OK_AND_ASSIGN(TxnId pull, owner->Begin());
  ASSERT_OK(owner->Read(pull, rid).status());
  ASSERT_OK(owner->Commit(pull));
  const_cast<BufferPool&>(client->pool()).Drop(pid);

  ASSERT_OK(cluster.CrashNode(owner->id()));
  ASSERT_OK(cluster.RestartNode(owner->id()));
  auto first = cluster.recovery_stats().at(owner->id());

  ASSERT_OK(cluster.CrashNode(owner->id()));
  ASSERT_OK(cluster.RestartNode(owner->id()));
  auto second = cluster.recovery_stats().at(owner->id());

  // The second crash happens right after a post-recovery checkpoint, so
  // its analysis is shorter — but the structural work (nothing left to
  // redo; recovered state already forced) must be stable.
  EXPECT_EQ(second.own_pages_recovered, 0u);
  EXPECT_EQ(second.losers_undone, 0u);
  EXPECT_LE(second.analysis_records, first.analysis_records);
}

}  // namespace
}  // namespace clog
