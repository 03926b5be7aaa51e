// E3 — No page forcing at commit or replacement.
//
// Paper claim (key advantage (1), Section 4): "updated pages are not
// forced to disk at transaction commit time or when they are replaced
// from a node cache." A cache-pressure workload (working set larger than
// the client's pool) drives steady replacement traffic; we count forced
// page writes at the owner per committed transaction for the paper's
// protocol vs the force-at-transfer baseline.

#include "bench/bench_util.h"

using namespace clog;
using namespace clog::bench;

namespace {

struct Row {
  std::uint64_t forced_writes = 0;
  std::uint64_t page_ships = 0;
  std::uint64_t committed = 0;
  std::uint64_t makespan_ns = 0;
};

Row Measure(LoggingMode mode, std::size_t buffer_frames) {
  BenchCluster bc(std::string("e3_") + std::string(LoggingModeName(mode)) +
                      std::to_string(buffer_frames),
                  mode, /*buffer_frames=*/512);
  Node* server = Value(bc->AddNode(), "server");
  NodeOptions small;
  small.logging_mode = mode;
  small.buffer_frames = buffer_frames;  // Pressure point.
  Node* client = Value(bc->AddNode(), "client");
  (void)client;
  Node* tiny = Value(bc->AddNode(small), "tiny");

  auto pages = Value(
      AllocatePopulatedPages(&bc.get(), server->id(), 24, 8, 64, 3), "pages");

  std::uint64_t writes0 = server->disk().writes();
  WorkloadConfig config;
  config.seed = 5;
  config.txns_per_session = 40;
  config.ops_per_txn = 6;
  config.update_fraction = 1.0;
  config.records_per_page = 8;
  config.payload_bytes = 64;
  bc->network().ResetBusy();
  WorkloadDriver driver(&bc.get(), config, {{tiny->id(), pages}});
  Check(driver.Run(), "workload");

  Row row;
  row.forced_writes = server->disk().writes() - writes0;
  // Pages shipped home. Client-local ships only replaced pages, many inside
  // the page request of the miss that replaced them, so the client's own
  // count covers both transports. B2 never carries a page but also ships
  // every page it transferred at commit: its PageShip messages count all.
  row.page_ships =
      mode == LoggingMode::kClientLocal
          ? tiny->metrics().CounterValue("pages.shipped_on_replacement")
          : bc->network().metrics().CounterValue("msg.page_ship");
  row.committed = driver.stats().committed;
  row.makespan_ns = bc->network().MaxBusyNanos();
  return row;
}

}  // namespace

int main() {
  Banner("E3 (no force)",
         "Owner disk writes per committed txn under cache pressure: "
         "replaced dirty pages ship home WITHOUT a disk force "
         "(client-local) vs forced at every transfer (B2).");

  std::printf("%-8s | %-30s | %-30s\n", "", "client-local",
              "force-at-transfer (B2)");
  std::printf("%-8s | %6s %6s %8s %7s | %6s %6s %8s %7s\n", "frames",
              "writes", "ships", "w/txn", "ms", "writes", "ships", "w/txn",
              "ms");
  for (std::size_t frames : {4, 8, 16, 32}) {
    Row local = Measure(LoggingMode::kClientLocal, frames);
    Row force = Measure(LoggingMode::kForceAtTransfer, frames);
    std::printf(
        "%-8zu | %6llu %6llu %8.2f %7.1f | %6llu %6llu %8.2f %7.1f\n", frames,
        static_cast<unsigned long long>(local.forced_writes),
        static_cast<unsigned long long>(local.page_ships),
        local.committed ? static_cast<double>(local.forced_writes) /
                              local.committed
                        : 0,
        Ms(local.makespan_ns),
        static_cast<unsigned long long>(force.forced_writes),
        static_cast<unsigned long long>(force.page_ships),
        force.committed ? static_cast<double>(force.forced_writes) /
                              force.committed
                        : 0,
        Ms(force.makespan_ns));
  }
  std::printf(
      "\nexpected shape: B2 pays roughly one disk write per transferred "
      "page; client-local writes only on owner-side eviction, far fewer "
      "per committed transaction, and the gap widens as the cache "
      "shrinks.\n");
  return 0;
}
