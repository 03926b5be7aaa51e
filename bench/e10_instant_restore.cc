#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fault/fault_injector.h"

/// \file
/// E10: instant restore vs eager media recovery (docs/RECOVERY_WALKTHROUGH.md
/// "Instant restore"). A node loses its data device and restarts. Both
/// variants plan the rebuild of every lost page and run the same rebuild
/// ladder. Eager recovery fetches the pages a peer caches during restart and
/// drains the other plans before opening; instant restore opens right after
/// planning and rebuilds pages at first touch. The interesting numbers are
/// time-to-first-commit after the restart and the commit latency tail while
/// the backlog drains. Recorded by scripts/run_bench.sh into
/// BENCH_restore.json; not regression-gated (the cost model, not the shape,
/// moves when recovery internals change).

namespace clog::bench {
namespace {

constexpr int kPages = 32;
constexpr int kCommitsDuringRebuild = 64;

struct VariantRow {
  double first_commit_ms = 0;      ///< Restart begun -> first commit done.
  double commit_p50_ms = 0;        ///< Commit latency while backlog drains.
  double commit_p99_ms = 0;
  /// Eager plans only the pages no peer caches; instant plans them all.
  std::uint64_t pages_planned = 0;
};

double QuantileMs(std::vector<std::uint64_t> ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  std::size_t i = static_cast<std::size_t>(q * static_cast<double>(ns.size()));
  if (i >= ns.size()) i = ns.size() - 1;
  return Ms(ns[i]);
}

VariantRow RunVariant(bool instant) {
  const std::string dir =
      std::string("/tmp/clog_bench_e10_") + (instant ? "instant" : "eager");
  std::system(("rm -rf " + dir).c_str());
  FaultInjector injector(/*seed=*/1);
  ClusterOptions options;
  options.dir = dir;
  options.fault_injector = &injector;
  options.node_defaults.logging_policy = LoggingPolicy().WithArchive(true);
  options.node_defaults.instant_restore.enabled = instant;
  Cluster cluster(options);
  Node* a = Value(cluster.AddNode(), "AddNode a");
  Node* b = Value(cluster.AddNode(), "AddNode b");

  // Seed kPages committed records on A, seal an archive pass, then layer
  // post-archive history so rebuilds exercise both redo and peer copies:
  // B updates the first quarter (peer-cached copies), A the second.
  std::vector<PageId> pids;
  std::vector<RecordId> rids;
  for (int p = 0; p < kPages; ++p) {
    PageId pid = Value(a->AllocatePage(), "AllocatePage");
    pids.push_back(pid);
    RecordId rid;
    Check(cluster.RunTransaction(a->id(), [&](TxnHandle& txn) {
      CLOG_ASSIGN_OR_RETURN(rid, txn.Insert(pid, "seed-" + std::to_string(p)));
      return Status::OK();
    }), "seed insert");
    rids.push_back(rid);
  }
  Check(a->Checkpoint(), "checkpoint");
  for (int p = 0; p < kPages; ++p) {
    NodeId updater = p < kPages / 4 ? b->id() : a->id();
    if (p >= kPages / 2) break;  // Second half: archive image is current.
    Check(cluster.RunTransaction(updater, [&](TxnHandle& txn) {
      return txn.Update(rids[p], "aged-" + std::to_string(p));
    }), "aging update");
  }

  // Lose A's data device, crash, restart, and commit once. Eager recovery
  // pays the whole rebuild inside RestartNodes; instant restore only plans.
  injector.ArmDeviceFault(a->id(), DeviceFault::kDestroyDataFile);
  Check(cluster.CrashNode(a->id()), "crash");
  const std::uint64_t t0 = cluster.clock().NowNanos();
  Check(cluster.RestartNodes({a->id()}), "restart");
  Check(cluster.RunTransaction(a->id(), [&](TxnHandle& txn) {
    return txn.Update(rids[kPages - 1], "first-after-restart");
  }), "first commit");
  VariantRow row;
  row.first_commit_ms = Ms(cluster.clock().NowNanos() - t0);
  row.pages_planned = a->metrics().CounterValue("restore.pages_planned");

  // Commit latency while the backlog drains: each transaction touches the
  // next cold page (first touch rebuilds it in the instant variant) while
  // the sim-mode sweeper retires one more page per commit behind it.
  std::vector<std::uint64_t> commit_ns;
  for (int i = 0; i < kCommitsDuringRebuild; ++i) {
    const RecordId rid = rids[i % kPages];
    const std::uint64_t c0 = cluster.clock().NowNanos();
    Check(cluster.RunTransaction(a->id(), [&](TxnHandle& txn) {
      return txn.Update(rid, "drain-" + std::to_string(i));
    }), "drain commit");
    commit_ns.push_back(cluster.clock().NowNanos() - c0);
  }
  row.commit_p50_ms = QuantileMs(commit_ns, 0.50);
  row.commit_p99_ms = QuantileMs(commit_ns, 0.99);

  while (a->RestorePendingCount() != 0) {
    if (a->SweepRestore(kPages) == 0) break;
  }
  std::system(("rm -rf " + dir).c_str());
  return row;
}

}  // namespace
}  // namespace clog::bench

int main(int argc, char** argv) {
  using namespace clog::bench;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  Banner("E10 (instant restore)",
         "Availability after losing a data device: eager media recovery "
         "rebuilds every page before the node opens, instant restore opens "
         "after planning and rebuilds on demand. Simulated time.");

  VariantRow eager = RunVariant(/*instant=*/false);
  VariantRow instant = RunVariant(/*instant=*/true);

  std::printf("%-28s %18s %18s\n", "", "eager", "instant");
  std::printf("%-28s %18.3f %18.3f\n", "first commit after restart (ms)",
              eager.first_commit_ms, instant.first_commit_ms);
  std::printf("%-28s %18.3f %18.3f\n", "commit p50 during rebuild (ms)",
              eager.commit_p50_ms, instant.commit_p50_ms);
  std::printf("%-28s %18.3f %18.3f\n", "commit p99 during rebuild (ms)",
              eager.commit_p99_ms, instant.commit_p99_ms);
  std::printf("%-28s %18llu %18llu\n", "pages planned",
              (unsigned long long)eager.pages_planned,
              (unsigned long long)instant.pages_planned);

  if (!json_path.empty()) {
    WriteJsonKv(
        json_path,
        {{"e10_first_commit_ms_eager", eager.first_commit_ms},
         {"e10_first_commit_ms_instant", instant.first_commit_ms},
         {"e10_commit_p50_ms_during_rebuild", instant.commit_p50_ms},
         {"e10_commit_p99_ms_during_rebuild", instant.commit_p99_ms},
         {"e10_commit_p99_ms_eager", eager.commit_p99_ms},
         {"e10_pages_planned", (double)instant.pages_planned}});
  }
  return 0;
}
