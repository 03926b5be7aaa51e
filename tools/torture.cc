// Seeded crash-schedule torture runner (see docs/fault_injection.md).
//
//   tools/torture --seed=N [--count=K] [--steps=S] [--nodes=N] [--verbose]
//
// Runs K schedules starting at the given seed and prints one verdict line
// per seed. The same seed always replays the same schedule the tests ran —
// a failing test names its seed, this binary shows the event trace. Exits
// non-zero if any schedule fails.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fault/torture.h"

namespace {

bool ParseU64(const char* arg, const char* name, std::uint64_t* out) {
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::strtoull(arg + len + 1, nullptr, 10);
  return true;
}

void Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --seed=N [--count=K] [--steps=S] [--nodes=N]\n"
               "          [--pages=P] [--records=R] [--crash-during-recovery]\n"
               "          [--group-commit] [--adaptive] [--media-failure]\n"
               "          [--hammer-restore] [--elastic]\n"
               "          [--crash-during-handoff] [--verbose]\n"
               "\n"
               "Replays the deterministic fault/crash schedule for each seed\n"
               "and checks the four torture invariants. --verbose prints the\n"
               "full event trace of every schedule. --crash-during-recovery\n"
               "forces a mid-recovery crash into every repair pass (a node\n"
               "dies at a seeded phase boundary and must be re-recovered).\n"
               "--group-commit runs every node with commit-force coalescing\n"
               "on; commits park and the harness polls for their acks.\n"
               "--adaptive runs the cluster under LogStrategy::kAdaptive,\n"
               "mixes per-transaction physical overrides into the workload,\n"
               "and checks the redo-fidelity invariant (logical records\n"
               "replay to the same page bytes) on the final joint recovery.\n"
               "--media-failure mixes whole-device losses (data and log)\n"
               "into the schedule, runs every node with fuzzy page archives,\n"
               "and checks the archive-consistency and poison-fencing\n"
               "invariants on top of the usual four.\n"
               "--hammer-restore layers instant restore on the media mix:\n"
               "every node rebuilds lost pages on demand while serving\n"
               "traffic, the harness sweeps one page per node per step, and\n"
               "two more invariants hold — a restoring page never serves\n"
               "stale data, and restore completion survives crashes without\n"
               "PSN regression.\n"
               "--elastic mixes membership churn into the schedule: page\n"
               "handoffs between nodes via the four-phase crash-restartable\n"
               "protocol, node joins, and graceful leaves, with three extra\n"
               "invariants (exactly one durable owner per page, no committed\n"
               "update lost across a transfer, no durable PSN regression at\n"
               "the new owner). --crash-during-handoff forces every handoff\n"
               "to kill one endpoint at a seeded phase boundary, so the\n"
               "durable ledgers re-enter on every transfer.\n",
               prog);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  std::uint64_t count = 1;
  std::uint64_t steps = 40;
  std::uint64_t nodes = 3;
  std::uint64_t pages = 2;
  std::uint64_t records = 4;
  bool have_seed = false;
  bool verbose = false;
  bool crash_during_recovery = false;
  bool group_commit = false;
  bool adaptive = false;
  bool media_failure = false;
  bool hammer_restore = false;
  bool elastic = false;
  bool crash_during_handoff = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::uint64_t v = 0;
    if (ParseU64(arg, "--seed", &v)) {
      seed = v;
      have_seed = true;
    } else if (ParseU64(arg, "--count", &count) ||
               ParseU64(arg, "--steps", &steps) ||
               ParseU64(arg, "--nodes", &nodes) ||
               ParseU64(arg, "--pages", &pages) ||
               ParseU64(arg, "--records", &records)) {
      // Parsed into its variable.
    } else if (std::strcmp(arg, "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(arg, "--crash-during-recovery") == 0) {
      crash_during_recovery = true;
    } else if (std::strcmp(arg, "--group-commit") == 0) {
      group_commit = true;
    } else if (std::strcmp(arg, "--adaptive") == 0) {
      adaptive = true;
    } else if (std::strcmp(arg, "--media-failure") == 0) {
      media_failure = true;
    } else if (std::strcmp(arg, "--hammer-restore") == 0) {
      hammer_restore = true;
    } else if (std::strcmp(arg, "--elastic") == 0) {
      elastic = true;
    } else if (std::strcmp(arg, "--crash-during-handoff") == 0) {
      crash_during_handoff = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (!have_seed || count == 0) {
    Usage(argv[0]);
    return 2;
  }

  int failures = 0;
  for (std::uint64_t s = seed; s < seed + count; ++s) {
    clog::TortureOptions opts;
    opts.seed = s;
    opts.steps = static_cast<int>(steps);
    opts.num_nodes = static_cast<int>(nodes);
    opts.pages_per_node = static_cast<int>(pages);
    opts.records_per_page = static_cast<int>(records);
    opts.keep_events = verbose;
    opts.crash_during_recovery = crash_during_recovery;
    opts.group_commit = group_commit;
    opts.adaptive = adaptive;
    opts.media_failure = media_failure;
    opts.hammer_restore = hammer_restore;
    opts.elastic = elastic;
    opts.crash_during_handoff = crash_during_handoff;
    clog::TortureReport report = clog::RunTortureSchedule(opts);
    if (verbose) {
      for (const std::string& e : report.events) {
        std::printf("  %s\n", e.c_str());
      }
    }
    std::printf("%s\n", report.Summary().c_str());
    if (!report.ok) {
      if (!report.trace_tail.empty()) {
        std::printf("--- trace tail (newest events per node) ---\n%s",
                    report.trace_tail.c_str());
      }
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d of %llu schedule(s) FAILED\n", failures,
                 static_cast<unsigned long long>(count));
    return 1;
  }
  return 0;
}
