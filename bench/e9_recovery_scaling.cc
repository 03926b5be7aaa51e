// E9 — Recovery cost vs number of involved nodes; no log merging ever
// (Section 2.3 vs the fast/super-fast schemes of Mohan & Narang [14],
// which merge private logs even for a single crash).
//
// m nodes take committed turns updating the owner's pages, then the owner
// crashes with its cache lost and nobody holding the pages. Restart must
// interleave redo from all m logs in PSN order. We report per-node log
// scan work, coordination messages, and redo rounds as m grows — and
// assert that no step ever reads more than one log at a time (structural:
// the API only exposes a node's own log to its own scanner).

#include "bench/bench_util.h"

using namespace clog;
using namespace clog::bench;

namespace {

void RunRow(std::size_t involved) {
  BenchCluster bc("e9_" + std::to_string(involved),
                  LoggingMode::kClientLocal, 64);
  Node* owner = Value(bc->AddNode(), "owner");
  std::vector<Node*> nodes{owner};
  for (std::size_t i = 1; i < involved; ++i) {
    nodes.push_back(Value(bc->AddNode(), "client"));
  }
  auto pages = Value(
      AllocatePopulatedPages(&bc.get(), owner->id(), 4, 8, 64, 77), "pages");

  // Round-robin committed updates: every node contributes interleaved
  // PSN runs on every page.
  Random rng(6);
  for (int round = 0; round < 6; ++round) {
    for (Node* n : nodes) {
      TxnId txn = Value(n->Begin(), "begin");
      for (PageId pid : pages) {
        Check(n->Update(txn, RecordId{pid, static_cast<SlotId>(round % 8)},
                        rng.Bytes(64)),
              "update");
      }
      Check(n->Commit(txn), "commit");
    }
  }
  // Make sure no cache holds the pages: call them home then drop the
  // owner's own copies with the crash itself; drop client copies first.
  for (PageId pid : pages) {
    TxnId txn = Value(owner->Begin(), "reclaim");
    Check(owner->Update(txn, RecordId{pid, 0}, rng.Bytes(64)), "touch");
    Check(owner->Commit(txn), "touch commit");
  }

  std::uint64_t msgs0 = bc->network().metrics().CounterValue("msg.total");
  Check(bc->CrashNode(owner->id()), "crash");
  Check(bc->RestartNode(owner->id()), "restart");
  const auto& s = bc->recovery_stats().at(owner->id());
  std::uint64_t msgs =
      bc->network().metrics().CounterValue("msg.total") - msgs0;
  std::uint64_t peer_scans = 0;
  for (Node* n : nodes) {
    peer_scans += n->metrics().CounterValue("recovery.records_scanned");
  }

  TxnId check = Value(nodes.back()->Begin(), "check");
  for (PageId pid : pages) {
    Check(nodes.back()->ScanPage(check, pid).status(), "scan");
  }
  Check(nodes.back()->Commit(check), "check commit");

  std::printf("%-9zu %9llu %10llu %9llu %9llu %8llu %9.2f\n", involved,
              static_cast<unsigned long long>(s.analysis_records),
              static_cast<unsigned long long>(peer_scans),
              static_cast<unsigned long long>(s.redo_rounds),
              static_cast<unsigned long long>(s.redo_applied),
              static_cast<unsigned long long>(msgs), Ms(s.sim_ns));
}

// Strategy-mix axis (docs/PROTOCOLS.md "Adaptive logging"): the cluster
// runs LogStrategy::kAdaptive, and the workload dials the fraction of
// transactions left adaptive (the rest override to kPhysical per
// transaction via TxnOptions). Every session writes only its own pages, so
// adaptive transactions stay logical to commit and restart redoes each
// page in one round on its owner's log. One loser per node, open at the
// crash, exercises the redo skip rule. Reported: log bytes written
// (compact logical records shrink the log), redo rounds, pages and
// records, logical losers skipped, and recovery sim time.
void RunMixRow(int pct_adaptive) {
  LoggingPolicy policy = LoggingPolicy().WithStrategy(LogStrategy::kAdaptive);
  BenchCluster bc("e9_mix_" + std::to_string(pct_adaptive),
                  LoggingMode::kClientLocal, 64, 0, policy);
  std::vector<Node*> nodes;
  std::vector<std::vector<PageId>> pages;
  for (int i = 0; i < 3; ++i) {
    Node* n = Value(bc->AddNode(), "node");
    nodes.push_back(n);
    pages.push_back(Value(
        AllocatePopulatedPages(&bc.get(), n->id(), 4, 8, 64, 91 + i),
        "pages"));
  }

  Random rng(17);
  std::uint64_t adaptive_txns = 0;
  std::uint64_t physical_txns = 0;
  for (int round = 0; round < 8; ++round) {
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
      Node* n = nodes[ni];
      TxnOptions topts;
      if (rng.Uniform(100) >= static_cast<std::uint64_t>(pct_adaptive)) {
        topts.strategy = LogStrategy::kPhysical;
      }
      TxnId txn = Value(n->Begin(topts), "begin");
      const PageId pid = pages[ni][round % pages[ni].size()];
      for (int u = 0; u < 4; ++u) {
        Check(n->Update(txn, RecordId{pid, static_cast<SlotId>(u * 2)},
                        rng.Bytes(64)),
              "update");
      }
      Check(n->Commit(txn), "commit");
      topts.strategy.has_value() ? ++physical_txns : ++adaptive_txns;
    }
  }
  // One adaptive loser per node, left OPEN at the crash: a pure-logical
  // loser's compact records carry no undo images and no commit, so
  // restart recovery redo-skips them and undoes nothing (the skip rule).
  // A trailing committed transaction on a different page forces the log
  // past the loser's records — an unforced tail would simply vanish in
  // the crash and there would be nothing to skip.
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    TxnId txn = Value(nodes[ni]->Begin(), "loser begin");
    Check(nodes[ni]->Update(txn, RecordId{pages[ni][0], 1}, rng.Bytes(64)),
          "loser update");
    TxnId flush = Value(nodes[ni]->Begin(), "flusher begin");
    Check(nodes[ni]->Update(flush, RecordId{pages[ni][1], 3}, rng.Bytes(64)),
          "flusher update");
    Check(nodes[ni]->Commit(flush), "flusher commit");
  }

  std::uint64_t log_bytes = 0;
  for (Node* n : nodes) log_bytes += n->log().appended_bytes();

  for (Node* n : nodes) Check(bc->CrashNode(n->id()), "crash");
  Check(bc->RestartNodes(bc->NodeIds()), "restart");

  std::uint64_t rounds = 0, own_pages = 0, applied = 0, skipped = 0;
  std::uint64_t sim_ns = 0;
  for (const auto& [id, s] : bc->recovery_stats()) {
    rounds += s.redo_rounds;
    own_pages += s.own_pages_recovered;
    applied += s.redo_applied;
    skipped += s.logical_losers_skipped;
    sim_ns += s.sim_ns;
  }

  // Committed state must be readable afterwards regardless of the mix.
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    TxnId check = Value(nodes[ni]->Begin(), "check");
    for (PageId pid : pages[ni]) {
      Check(nodes[ni]->ScanPage(check, pid).status(), "scan");
    }
    Check(nodes[ni]->Commit(check), "check commit");
  }

  std::printf("%-7d %9llu %9llu %10llu %7llu %9llu %9llu %8llu %9.2f\n",
              pct_adaptive, static_cast<unsigned long long>(adaptive_txns),
              static_cast<unsigned long long>(physical_txns),
              static_cast<unsigned long long>(log_bytes),
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(own_pages),
              static_cast<unsigned long long>(applied),
              static_cast<unsigned long long>(skipped), Ms(sim_ns));
}

}  // namespace

int main() {
  Banner("E9 (recovery scaling, no log merge)",
         "Owner restart with m nodes' interleaved updates: per-node log "
         "scans and PSN-ordered redo rounds; logs are never merged.");
  std::printf("%-9s %9s %10s %9s %9s %8s %9s\n", "involved", "analyzed",
              "peer_scan", "rounds", "applied", "msgs", "sim_ms");
  for (std::size_t m : {1, 2, 3, 4, 6}) RunRow(m);
  std::printf(
      "\nexpected shape: redo rounds grow with the number of PSN run "
      "alternations (~ m x pages), peer scan work with each node's own "
      "log length — the merge-free property the paper claims over the "
      "fast/super-fast schemes of [14].\n");

  Banner("E9b (strategy mix, adaptive logging)",
         "Whole-cluster crash under LogStrategy::kAdaptive, sweeping the "
         "fraction of transactions left adaptive (rest override to "
         "kPhysical per txn). Every page is self-only and redone in one "
         "round on its owner's log; one adaptive loser per node, open at "
         "the crash, exercises the redo skip rule.");
  std::printf("%-7s %9s %9s %10s %7s %9s %9s %8s %9s\n", "mix%", "adaptive",
              "physical", "log_bytes", "rounds", "own_pages", "applied",
              "skipped", "sim_ms");
  for (int pct : {0, 25, 50, 75, 100}) RunMixRow(pct);
  std::printf(
      "\nexpected shape: log bytes fall as the adaptive fraction rises "
      "(compact logical records carry no undo image); redo rounds, pages "
      "and records stay flat — redo is strategy-agnostic, only the skip "
      "rule distinguishes loser records.\n");
  return 0;
}
