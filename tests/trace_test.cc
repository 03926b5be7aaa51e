// Tests for the deterministic structured-event tracing layer
// (src/trace/) and its wiring: ring-buffer semantics, trace-hash
// determinism across whole torture schedules (including crash/restart),
// zero-emission when no sink is attached, latency histogram population,
// and the text/Chrome/binary exporters.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "fault/torture.h"
#include "net/message.h"
#include "tests/test_util.h"
#include "trace/trace_export.h"
#include "trace/trace_sink.h"

namespace clog {
namespace {

using testing::TempDir;

// ---------------------------------------------------------------------------
// TraceSink unit behavior
// ---------------------------------------------------------------------------

TEST(TraceSinkTest, RingWrapKeepsNewestEvents) {
  TraceSink sink(/*capacity_per_node=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.Emit(0, TraceEventType::kTxnBegin, /*a=*/i);
  }
  EXPECT_EQ(sink.emitted(0), 10u);
  std::vector<TraceEvent> events = sink.Events(0);
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first within the retained window: events 6,7,8,9 survive.
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].a, 6u + k);
    EXPECT_EQ(events[k].seq, 6u + k);
  }
}

TEST(TraceSinkTest, HashCoversOverwrittenEvents) {
  // Two sinks emit the same first 4 events; one then wraps past them. The
  // hash must diverge even though the retained windows could coincide.
  TraceSink a(/*capacity_per_node=*/2);
  TraceSink b(/*capacity_per_node=*/2);
  for (std::uint64_t i = 0; i < 4; ++i) {
    a.Emit(0, TraceEventType::kLogAppend, i);
    b.Emit(0, TraceEventType::kLogAppend, i);
  }
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Emit(0, TraceEventType::kLogAppend, 99);
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(TraceSinkTest, PerNodeStreamsAndCombinedHash) {
  TraceSink sink;
  sink.Emit(2, TraceEventType::kTxnBegin, 1);
  sink.Emit(0, TraceEventType::kTxnBegin, 2);
  sink.Emit(2, TraceEventType::kTxnCommit, 1);
  std::vector<NodeId> nodes = sink.Nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], 0u);
  EXPECT_EQ(nodes[1], 2u);
  EXPECT_EQ(sink.emitted(2), 2u);
  EXPECT_EQ(sink.total_emitted(), 3u);
  EXPECT_NE(sink.Hash(), 0u);
  EXPECT_NE(sink.Hash(0), sink.Hash(2));
  // Per-node sequence numbers are independent and monotonic.
  EXPECT_EQ(sink.Events(2)[0].seq, 0u);
  EXPECT_EQ(sink.Events(2)[1].seq, 1u);
  EXPECT_EQ(sink.Events(0)[0].seq, 0u);
}

// ---------------------------------------------------------------------------
// Cluster wiring: emission, determinism, zero-overhead off
// ---------------------------------------------------------------------------

/// Runs a fixed little workload (insert/update/commit/abort + crash and
/// restart of the client) and returns the cluster's metrics-visible state.
struct DrivenRun {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t schedule_marker = 0;  ///< txn.commits on the client node.
};

DrivenRun DriveWorkload(const std::string& dir, TraceSink* sink) {
  ClusterOptions opts;
  opts.dir = dir;
  opts.node_defaults.buffer_frames = 4;
  opts.trace_sink = sink;
  Cluster cluster(opts);
  Node* owner = *cluster.AddNode();
  Node* client = *cluster.AddNode();

  PageId pid = *owner->AllocatePage();
  std::vector<RecordId> rids;
  for (int i = 0; i < 4; ++i) {
    TxnHandle txn = *TxnHandle::Begin(client);
    rids.push_back(*txn.Insert(pid, "v" + std::to_string(i)));
    EXPECT_TRUE(txn.Commit().ok());
  }
  {
    TxnHandle txn = *TxnHandle::Begin(client);
    EXPECT_TRUE(txn.Update(rids[0], "updated").ok());
    EXPECT_TRUE(txn.Abort().ok());
  }
  EXPECT_TRUE(cluster.CrashNode(client->id()).ok());
  EXPECT_TRUE(cluster.RestartNode(client->id()).ok());
  client = cluster.node(client->id());
  {
    TxnHandle txn = *TxnHandle::Begin(client);
    EXPECT_EQ(*txn.Read(rids[0]), "v0");
    EXPECT_TRUE(txn.Commit().ok());
  }

  DrivenRun out;
  out.schedule_marker = client->metrics().CounterValue("txn.commits");
  if (sink != nullptr) {
    out.trace_hash = sink->Hash();
    out.events = sink->total_emitted();
  }
  return out;
}

TEST(TraceClusterTest, SameScheduleSameTraceHash) {
  TempDir d1, d2;
  TraceSink s1, s2;
  DrivenRun r1 = DriveWorkload(d1.path(), &s1);
  DrivenRun r2 = DriveWorkload(d2.path(), &s2);
  EXPECT_GT(r1.events, 0u);
  EXPECT_NE(r1.trace_hash, 0u);
  EXPECT_EQ(r1.trace_hash, r2.trace_hash);
  EXPECT_EQ(r1.events, r2.events);
}

TEST(TraceClusterTest, AttachingSinkDoesNotPerturbSchedule) {
  TempDir d1, d2;
  TraceSink sink;
  DrivenRun with = DriveWorkload(d1.path(), &sink);
  DrivenRun without = DriveWorkload(d2.path(), nullptr);
  EXPECT_EQ(with.schedule_marker, without.schedule_marker);
  EXPECT_EQ(without.events, 0u);
  EXPECT_EQ(without.trace_hash, 0u);
}

TEST(TraceClusterTest, DetachedSinkSeesNothing) {
  TempDir dir;
  TraceSink unattached;
  DriveWorkload(dir.path(), nullptr);
  EXPECT_EQ(unattached.total_emitted(), 0u);
  EXPECT_TRUE(unattached.Nodes().empty());
  EXPECT_EQ(unattached.Hash(), 0u);
}

TEST(TraceClusterTest, EventTaxonomyShowsUp) {
  TempDir dir;
  TraceSink sink;
  DriveWorkload(dir.path(), &sink);
  bool saw_begin = false, saw_commit = false, saw_abort = false;
  bool saw_append = false, saw_force = false, saw_crash = false;
  bool saw_recovery = false;
  for (NodeId node : sink.Nodes()) {
    for (const TraceEvent& e : sink.Events(node)) {
      switch (e.type) {
        case TraceEventType::kTxnBegin: saw_begin = true; break;
        case TraceEventType::kTxnCommit: saw_commit = true; break;
        case TraceEventType::kTxnAbort: saw_abort = true; break;
        case TraceEventType::kLogAppend: saw_append = true; break;
        case TraceEventType::kLogForce: saw_force = true; break;
        case TraceEventType::kNodeCrash: saw_crash = true; break;
        case TraceEventType::kRecoveryPhase: saw_recovery = true; break;
        default: break;
      }
    }
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_abort);
  EXPECT_TRUE(saw_append);
  EXPECT_TRUE(saw_force);
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_recovery);
}

TEST(TraceClusterTest, LatencyHistogramsPopulated) {
  TempDir dir;
  ClusterOptions opts;
  opts.dir = dir.path();
  Cluster cluster(opts);
  Node* owner = *cluster.AddNode();
  Node* client = *cluster.AddNode();
  PageId pid = *owner->AllocatePage();
  for (int i = 0; i < 3; ++i) {
    TxnHandle txn = *TxnHandle::Begin(client);
    ASSERT_TRUE(txn.Insert(pid, "payload").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  HistogramStat commit = client->metrics().HistogramValue("commit.latency_ns");
  EXPECT_EQ(commit.count, 3u);
  EXPECT_GT(commit.mean, 0.0);
  EXPECT_GE(commit.p99, commit.p50);
  HistogramStat force = client->metrics().HistogramValue("force.latency_ns");
  EXPECT_GT(force.count, 0u);
  // The client fetched the owner's page over the wire at least once.
  HistogramStat rtt =
      cluster.network().metrics().HistogramValue("rpc.rtt_ns");
  EXPECT_GT(rtt.count, 0u);
  EXPECT_GT(rtt.max, 0u);
  // The quantiles fold into the printable report.
  std::string report = client->metrics().ToString();
  EXPECT_NE(report.find("commit.latency_ns"), std::string::npos);
  EXPECT_NE(report.find("p99"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Torture integration: full crash/restart schedules
// ---------------------------------------------------------------------------

TEST(TraceTortureTest, SameSeedSameTraceHash) {
  TortureOptions opts;
  opts.seed = 11;
  opts.steps = 30;
  opts.keep_events = false;
  TortureReport r1 = RunTortureSchedule(opts);
  TortureReport r2 = RunTortureSchedule(opts);
  ASSERT_TRUE(r1.ok) << r1.failure;
  ASSERT_TRUE(r2.ok) << r2.failure;
  EXPECT_NE(r1.trace_hash, 0u);
  EXPECT_EQ(r1.trace_hash, r2.trace_hash);
  EXPECT_EQ(r1.schedule_hash, r2.schedule_hash);
}

TEST(TraceTortureTest, DifferentSeedsDifferentTraceHash) {
  TortureOptions opts;
  opts.steps = 20;
  opts.keep_events = false;
  opts.seed = 3;
  TortureReport r1 = RunTortureSchedule(opts);
  opts.seed = 4;
  TortureReport r2 = RunTortureSchedule(opts);
  ASSERT_TRUE(r1.ok) << r1.failure;
  ASSERT_TRUE(r2.ok) << r2.failure;
  EXPECT_NE(r1.trace_hash, r2.trace_hash);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(TraceExportTest, TextFormatAndTail) {
  TraceSink sink(/*capacity_per_node=*/8);
  sink.Emit(0, TraceEventType::kTxnBegin, MakeTxnId(0, 1));
  sink.Emit(0, TraceEventType::kTxnCommit, MakeTxnId(0, 1));
  sink.Emit(1, TraceEventType::kDeadlock, MakeTxnId(1, 9));
  std::string text = FormatTrace(sink);
  EXPECT_NE(text.find("TXN_BEGIN"), std::string::npos);
  EXPECT_NE(text.find("TXN_COMMIT"), std::string::npos);
  EXPECT_NE(text.find("DEADLOCK"), std::string::npos);
  EXPECT_NE(text.find("node 0:"), std::string::npos);
  EXPECT_NE(text.find("node 1:"), std::string::npos);
  // tail=1 keeps only the newest event per node.
  std::string tail = FormatTrace(sink, /*tail=*/1);
  EXPECT_EQ(tail.find("TXN_BEGIN"), std::string::npos);
  EXPECT_NE(tail.find("TXN_COMMIT"), std::string::npos);
}

TEST(TraceExportTest, MsgNameResolverUsed) {
  TraceSink sink;
  sink.Emit(0, TraceEventType::kRpcSend, /*a=*/1, /*b=*/64,
            static_cast<std::uint32_t>(MsgType::kPageShip));
  TraceFormatOptions fmt;
  fmt.msg_name = [](std::uint32_t t) {
    return MsgTypeName(static_cast<MsgType>(t));
  };
  std::string with = FormatTrace(sink, 0, fmt);
  EXPECT_NE(with.find("page_ship"), std::string::npos) << with;
  std::string without = FormatTrace(sink);
  EXPECT_NE(without.find("msg#"), std::string::npos) << without;
}

TEST(TraceExportTest, RestoreEventsFormatTheirPayload) {
  TraceSink sink;
  const PageId pid{1, 7};
  sink.Emit(0, TraceEventType::kPageRestored, pid.Pack(), /*b=*/42,
            /*c=*/1);
  std::string text = FormatTrace(sink);
  EXPECT_NE(text.find("PAGE_RESTORED"), std::string::npos) << text;
  EXPECT_NE(text.find("page=" + pid.ToString() + " psn=42 source=peer_cache"),
            std::string::npos)
      << text;
}

TEST(TraceExportTest, ChromeJsonSpans) {
  TempDir dir;
  TraceSink sink;
  DriveWorkload(dir.path(), &sink);
  std::string json = ChromeTraceJson(sink);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);  // txn span open
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);  // txn span close
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // recovery phase
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);     // per-node pid
}

TEST(TraceExportTest, BinaryRoundTrip) {
  TempDir dir;
  TraceSink sink(/*capacity_per_node=*/4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    sink.Emit(0, TraceEventType::kLogAppend, i, i * 10, 3);
  }
  sink.Emit(1, TraceEventType::kNodeCrash);
  std::string path = dir.path() + "/trace.bin";
  ASSERT_TRUE(sink.WriteBinaryFile(path).ok());

  TraceSink loaded;
  ASSERT_TRUE(loaded.ReadBinaryFile(path).ok());
  EXPECT_EQ(loaded.capacity_per_node(), sink.capacity_per_node());
  EXPECT_EQ(loaded.Hash(), sink.Hash());
  EXPECT_EQ(loaded.emitted(0), sink.emitted(0));
  std::vector<TraceEvent> a = sink.Events(0);
  std::vector<TraceEvent> b = loaded.Events(0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].seq, b[k].seq);
    EXPECT_EQ(a[k].a, b[k].a);
    EXPECT_EQ(a[k].type, b[k].type);
  }
}

TEST(TraceExportTest, BinaryRejectsMalformedRings) {
  TempDir dir;
  const std::string path = dir.path() + "/crafted.bin";
  TraceSink sink;
  sink.Emit(3, TraceEventType::kNodeCrash);
  const std::uint64_t hash = sink.Hash();

  // 7 events emitted into a ring of 4, but only 2 retained: Events() would
  // index past the ring to find the wrap point.
  ASSERT_OK(testing::WriteCraftedTraceFile(path, /*capacity=*/4,
                                           /*emitted=*/7, /*retained=*/2,
                                           /*present=*/2));
  Status st = sink.ReadBinaryFile(path);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // A retained count consistent with the header but far past the end of
  // the file: trusting it would reserve terabytes.
  ASSERT_OK(testing::WriteCraftedTraceFile(path, /*capacity=*/1ull << 40,
                                           /*emitted=*/1ull << 40,
                                           /*retained=*/1ull << 40,
                                           /*present=*/1));
  st = sink.ReadBinaryFile(path);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // A failed read leaves the sink as it was.
  EXPECT_EQ(sink.Hash(), hash);
  EXPECT_EQ(sink.capacity_per_node(), TraceSink::kDefaultCapacityPerNode);

  // The same header with every event present reads back.
  ASSERT_OK(testing::WriteCraftedTraceFile(path, /*capacity=*/4,
                                           /*emitted=*/7, /*retained=*/4,
                                           /*present=*/4));
  ASSERT_OK(sink.ReadBinaryFile(path));
  EXPECT_EQ(sink.Events(0).size(), 4u);
  EXPECT_EQ(sink.emitted(0), 7u);
}

TEST(TraceExportTest, BinaryRejectsGarbage) {
  TempDir dir;
  std::string path = dir.path() + "/garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a trace file at all";
  }
  TraceSink sink;
  EXPECT_FALSE(sink.ReadBinaryFile(path).ok());
}

}  // namespace
}  // namespace clog
