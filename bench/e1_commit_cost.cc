// E1 — Commit cost: client-based logging vs log shipping vs page forcing.
//
// Paper claim (Sections 1.1, 3.1): "Local logging eliminates the need to
// send log records to remote nodes during transaction execution and at
// transaction commit." A single client updates server-owned pages; we
// sweep updates-per-transaction and measure, per commit: messages, bytes,
// and simulated commit latency, for the paper's protocol and both
// baselines. Expectation: kClientLocal pays one local log force and zero
// messages regardless of transaction size; kShipToOwner's cost grows with
// the log volume; kForceAtTransfer's with the page count.

#include "bench/bench_util.h"

using namespace clog;
using namespace clog::bench;

namespace {

struct Row {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sim_ns = 0;
  // Commit-latency quantiles (ns) from the client's commit.latency_ns
  // histogram, covering only the measured loop.
  double p50_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;
};

Row MeasureCommit(LoggingMode mode, std::size_t updates_per_txn,
                  std::size_t txns) {
  BenchCluster bc(std::string("e1_") + std::string(LoggingModeName(mode)),
                  mode, /*buffer_frames=*/256);
  Node* server = Value(bc->AddNode(), "server");
  Node* client = Value(bc->AddNode(), "client");
  auto pages = Value(
      AllocatePopulatedPages(&bc.get(), server->id(), 8, 8, 64, 1), "pages");

  // Warm the client's cache and locks so the measured loop isolates
  // commit-protocol cost, not cold fetches.
  Random rng(7);
  TxnHandle warm = Value(TxnHandle::Begin(client), "warm");
  for (PageId pid : pages) {
    Check(warm.Update(RecordId{pid, 0}, rng.Bytes(64)), "warm op");
  }
  Check(warm.Commit(), "warm commit");
  // Drop the warm-up from the histograms so the quantiles below cover only
  // the measured commits. Reset keeps entries in place, so any cached
  // handles inside the node stay valid.
  client->metrics().Reset();

  std::uint64_t msgs0 = bc->network().metrics().CounterValue("msg.total");
  std::uint64_t bytes0 = bc->network().metrics().CounterValue("bytes.total");
  std::uint64_t t0 = bc->clock().NowNanos();
  for (std::size_t i = 0; i < txns; ++i) {
    TxnHandle txn = Value(TxnHandle::Begin(client), "begin");
    for (std::size_t u = 0; u < updates_per_txn; ++u) {
      RecordId rid{pages[u % pages.size()],
                   static_cast<SlotId>(u / pages.size() % 8)};
      Check(txn.Update(rid, rng.Bytes(64)), "update");
    }
    Check(txn.Commit(), "commit");
  }
  Row row;
  row.msgs = bc->network().metrics().CounterValue("msg.total") - msgs0;
  row.bytes = bc->network().metrics().CounterValue("bytes.total") - bytes0;
  row.sim_ns = bc->clock().NowNanos() - t0;
  row.msgs /= txns;
  row.bytes /= txns;
  row.sim_ns /= txns;
  HistogramStat lat = client->metrics().HistogramValue("commit.latency_ns");
  row.p50_ns = lat.p50;
  row.p95_ns = lat.p95;
  row.p99_ns = lat.p99;
  return row;
}

// Group commit (GroupCommitPolicy): four sessions committing concurrently
// on one client node over disjoint pages. The policy's claim is purely a
// force-count one — with coalescing on, the shared force amortizes across
// the group and the commit path charges well under one force per
// transaction; everything else (commits, schedules) is identical because
// the driver is deterministic.
struct GroupRow {
  double forces_per_commit = 0.0;
  double tps = 0.0;
  std::uint64_t parks = 0;
};

GroupRow MeasureGroupCommit(bool enabled) {
  std::string dir = "/tmp/clog_bench_e1_group";
  std::system(("rm -rf " + dir).c_str());
  ClusterOptions options;
  options.dir = dir;
  if (enabled) {
    options.node_defaults.logging_policy =
        LoggingPolicy().WithGroupCommitWindow(2'000'000, 4);
  }
  Cluster cluster(options);
  Node* node = Value(cluster.AddNode(), "node");
  auto pages = Value(
      AllocatePopulatedPages(&cluster, node->id(), 4, 8, 64, 1), "pages");
  std::vector<std::pair<NodeId, std::vector<PageId>>> sessions;
  for (std::size_t s = 0; s < 4; ++s) {
    sessions.push_back({node->id(), {pages[s]}});
  }
  WorkloadConfig config;
  config.seed = 31337;
  config.txns_per_session = 50;
  config.ops_per_txn = 4;
  config.records_per_page = 8;
  WorkloadDriver driver(&cluster, config, sessions);
  std::uint64_t forces0 = node->log().forces();
  std::uint64_t commits0 = node->metrics().CounterValue("txn.commits");
  std::uint64_t t0 = cluster.clock().NowNanos();
  Check(driver.Run(), "group-commit driver");
  std::uint64_t commits = node->metrics().CounterValue("txn.commits") -
                          commits0;
  GroupRow row;
  row.forces_per_commit =
      commits == 0 ? 0.0
                   : static_cast<double>(node->log().forces() - forces0) /
                         static_cast<double>(commits);
  row.tps = Tps(commits, cluster.clock().NowNanos() - t0);
  row.parks = driver.stats().commit_parks;
  std::system(("rm -rf " + dir).c_str());
  return row;
}

// Flat metric map for scripts/check_bench_regression.py. Every value here
// is *simulated* and therefore deterministic: the regression gate compares
// exact reruns, not noisy wall clock.
void WriteJson(const std::string& path,
               const std::vector<std::pair<std::string, double>>& kv) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH FATAL cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < kv.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.6f%s\n", kv[i].first.c_str(), kv[i].second,
                 i + 1 < kv.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  Banner("E1 (commit cost)",
         "Messages, bytes, and simulated latency per committed transaction "
         "vs transaction size, for client-local logging (paper), "
         "ship-to-owner (B1, ARIES/CSA-like), force-at-transfer (B2, "
         "Rdb/VMS-like).");

  const std::size_t kTxns = 50;
  std::printf("%-10s | %-23s | %-23s | %-23s\n", "", "client-local",
              "ship-to-owner (B1)", "force-at-transfer (B2)");
  std::printf("%-10s | %6s %8s %7s | %6s %8s %7s | %6s %8s %7s\n",
              "updates", "msgs", "bytes", "ms", "msgs", "bytes", "ms", "msgs",
              "bytes", "ms");
  Row local8, ship8, force8;
  for (std::size_t updates : {1, 2, 4, 8, 16, 32, 64}) {
    Row local = MeasureCommit(LoggingMode::kClientLocal, updates, kTxns);
    Row ship = MeasureCommit(LoggingMode::kShipToOwner, updates, kTxns);
    Row force = MeasureCommit(LoggingMode::kForceAtTransfer, updates, kTxns);
    if (updates == 8) {
      local8 = local;
      ship8 = ship;
      force8 = force;
    }
    std::printf(
        "%-10zu | %6llu %8llu %7.2f | %6llu %8llu %7.2f | %6llu %8llu "
        "%7.2f\n",
        updates, static_cast<unsigned long long>(local.msgs),
        static_cast<unsigned long long>(local.bytes), Ms(local.sim_ns),
        static_cast<unsigned long long>(ship.msgs),
        static_cast<unsigned long long>(ship.bytes), Ms(ship.sim_ns),
        static_cast<unsigned long long>(force.msgs),
        static_cast<unsigned long long>(force.bytes), Ms(force.sim_ns));
  }
  std::printf(
      "\nexpected shape: client-local stays at 0 msgs / flat latency; B1 "
      "grows with log volume; B2 grows with touched pages.\n");

  // Commit-latency quantiles (commit.latency_ns histogram, measured loop
  // only) for the updates=8 point of each protocol.
  std::printf(
      "\n--- commit latency quantiles at updates=8 (ms, simulated) ---\n");
  std::printf("%-24s | %8s %8s %8s\n", "mode", "p50", "p95", "p99");
  struct {
    const char* name;
    const Row* row;
  } qrows[] = {{"client-local", &local8},
               {"ship-to-owner (B1)", &ship8},
               {"force-at-transfer (B2)", &force8}};
  for (const auto& q : qrows) {
    std::printf("%-24s | %8.3f %8.3f %8.3f\n", q.name, Ms(q.row->p50_ns),
                Ms(q.row->p95_ns), Ms(q.row->p99_ns));
  }

  std::printf(
      "\n--- group commit: 4 concurrent committers, disjoint pages ---\n");
  GroupRow off = MeasureGroupCommit(false);
  GroupRow on = MeasureGroupCommit(true);
  std::printf("%-10s | %16s | %10s | %8s\n", "policy", "forces/commit",
              "txn/s(sim)", "parks");
  std::printf("%-10s | %16.3f | %10.0f | %8llu\n", "off",
              off.forces_per_commit, off.tps,
              static_cast<unsigned long long>(off.parks));
  std::printf("%-10s | %16.3f | %10.0f | %8llu\n", "on",
              on.forces_per_commit, on.tps,
              static_cast<unsigned long long>(on.parks));
  std::printf(
      "\nexpected shape: coalescing drops forces/commit well under 1.0 with "
      "no change in committed work.\n");

  if (!json_path.empty()) {
    WriteJson(json_path,
              {{"e1_local_commit_ms", Ms(local8.sim_ns)},
               {"e1_b1_commit_ms", Ms(ship8.sim_ns)},
               {"e1_b2_commit_ms", Ms(force8.sim_ns)},
               {"e1_local_commit_p50_ms", Ms(local8.p50_ns)},
               {"e1_local_commit_p95_ms", Ms(local8.p95_ns)},
               {"e1_local_commit_p99_ms", Ms(local8.p99_ns)},
               {"e1_local_msgs", static_cast<double>(local8.msgs)},
               {"e1_group_off_forces_per_commit", off.forces_per_commit},
               {"e1_group_on_forces_per_commit", on.forces_per_commit},
               {"e1_group_off_tps", off.tps},
               {"e1_group_on_tps", on.tps}});
  }
  return 0;
}
