#ifndef CLOG_NODE_OPTIONS_H_
#define CLOG_NODE_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/sim_clock.h"

namespace clog {

class FaultInjector;
class TraceSink;

/// Which logging protocol a node runs. kClientLocal is the paper's
/// contribution; the other two are the related-work baselines the benchmark
/// harness compares against (DESIGN.md Section 2).
enum class LoggingMode : std::uint8_t {
  /// Paper: all log records written to the node's local log; commit is
  /// local; crash recovery per Sections 2.3/2.4.
  kClientLocal = 0,
  /// Baseline B1 (ARIES/CSA-like): log records are shipped to the owner
  /// node — on dirty-page replacement and, with a force, at commit. The
  /// owner's log is the only log for the client's updates.
  kShipToOwner = 1,
  /// Baseline B2 (Rdb/VMS-like): updated pages are forced to the owner's
  /// disk at commit and before every inter-node transfer; undo-only local
  /// logging.
  kForceAtTransfer = 2,
};

std::string_view LoggingModeName(LoggingMode m);

/// Commit-time force coalescing (group commit — the force discipline ARIES
/// and ARIES/CSA assume as their baseline). When enabled, a committing
/// transaction appends its commit record and *parks* instead of forcing
/// immediately; one shared force — triggered by the group filling, the
/// coalescing window expiring, or any other force on the same log — covers
/// every parked commit LSN at once. A transaction is never acknowledged
/// before its commit record is durable; the only thing traded away is
/// latency inside the window. Applies to LoggingMode::kClientLocal (the
/// paper's protocol — the one whose commit force is purely local).
struct GroupCommitPolicy {
  bool enabled = false;
  /// Longest a committer parks (simulated time) before the group forces
  /// anyway. 0 = force immediately (coalescing only via group size).
  std::uint64_t window_ns = 1'000'000;
  /// Force as soon as this many committers are parked.
  std::size_t max_group_size = 8;
};

/// Fuzzy online page archiving (media recovery, docs/RECOVERY_WALKTHROUGH.md).
/// When enabled, the node incrementally snapshots its owned pages into a
/// side archive file ("node.archive") — no quiescing: pages are copied at
/// whatever PSN they currently have, dirty or clean, and the distributed
/// redo collection replays them forward from exactly that PSN after a data
/// device loss. Off by default: no archive file is created, no hot-path
/// branch is taken, trace hashes and benchmarks are byte-identical to a
/// build without the subsystem.
struct ArchiveOptions {
  /// Take one incremental archive pass at every completed checkpoint. The
  /// pass only rewrites pages whose PSN moved since they were last archived.
  bool enabled = false;
};

/// Instant restore (docs/RECOVERY_WALKTHROUGH.md "Instant restore"). Restart
/// recovery plans the rebuild of every own page it cannot read (torn, or
/// lost with the data device), and one rebuild ladder runs every plan; this
/// option decides only when. On, the node opens for traffic at once, each
/// planned page is rebuilt on first touch (synchronously for the toucher),
/// and a background sweep drains the cold tail. Off (the default), restart
/// drains every plan before the node opens.
struct InstantRestoreOptions {
  bool enabled = false;
};

/// What kind of update record a transaction writes (adaptive logging,
/// docs/PROTOCOLS.md "Adaptive logging"; after arxiv 1503.03653).
enum class LogStrategy : std::uint8_t {
  /// Full physical ARIES records (redo + undo image) for every update.
  /// The default; recovery behavior is byte-identical to earlier builds.
  kPhysical = 0,
  /// Compact redo-only records while the transaction stays single-node on
  /// its own pages; the node upgrades it to physical records (backfilling
  /// the stashed before-images into the log) the moment a cross-node
  /// dependency or a page steal appears.
  kAdaptive = 1,
};

std::string_view LogStrategyName(LogStrategy s);

/// The unified logging policy: strategy selection, commit-force coalescing
/// and archiving in one value type, replacing the scattered per-feature
/// option structs.
///
/// Named setters chain, so call sites read as one declaration:
///
///   opts.logging_policy = LoggingPolicy()
///       .WithStrategy(LogStrategy::kAdaptive)
///       .WithGroupCommit(true);
struct LoggingPolicy {
  LogStrategy strategy = LogStrategy::kPhysical;
  GroupCommitPolicy group_commit;
  ArchiveOptions archive;

  LoggingPolicy& WithStrategy(LogStrategy s) {
    strategy = s;
    return *this;
  }
  LoggingPolicy& WithGroupCommit(bool on) {
    group_commit.enabled = on;
    return *this;
  }
  LoggingPolicy& WithGroupCommitWindow(std::uint64_t window_ns,
                                       std::size_t max_group_size) {
    group_commit.enabled = true;
    group_commit.window_ns = window_ns;
    group_commit.max_group_size = max_group_size;
    return *this;
  }
  /// Takes a fuzzy archive pass at every checkpoint.
  LoggingPolicy& WithArchive(bool on) {
    archive.enabled = on;
    return *this;
  }
};

/// Per-transaction options (TxnHandle::Begin / Node::Begin overloads).
struct TxnOptions {
  /// Overrides the node policy's LogStrategy for this transaction only;
  /// unset = inherit. An override to kAdaptive still obeys every gate
  /// (own pages, kClientLocal mode, page-granular locking).
  std::optional<LogStrategy> strategy;
};

/// Static configuration of one node.
struct NodeOptions {
  /// Directory for this node's database, log, and side files.
  std::string dir;
  /// Buffer pool capacity in frames.
  std::size_t buffer_frames = 256;
  /// Logging protocol (paper vs baselines).
  LoggingMode logging_mode = LoggingMode::kClientLocal;
  /// Bounded log capacity in bytes; 0 = unbounded (Section 2.5 off).
  std::uint64_t log_capacity_bytes = 0;
  /// Whether the node keeps a local log at all. Nodes without local logs
  /// may participate (paper Figure 1) but must use kShipToOwner.
  bool has_local_log = true;
  /// Fine-granularity extension (paper Section 4, the EDBT'96 follow-up):
  /// when true, *local* transactions lock individual records, so several
  /// of them can concurrently use different records of one page.
  /// Inter-node locking and callbacks stay page-granular, preserving the
  /// per-page PSN total order the recovery algorithms require.
  bool local_record_locking = false;
  /// Per-node log-force cost override in nanoseconds; 0 uses the cluster
  /// cost model. Lets benchmarks model asymmetric hardware (fast server
  /// log, slow client disk — the 1996 objection to client logging).
  std::uint64_t log_force_ns_override = 0;
  /// Ablation switch (bench A2): when false, the owner does not send
  /// Section 2.5 flush notifications after forcing a page, so replacers'
  /// DPT entries never advance or drop. Shows why the paper's
  /// notification bookkeeping is load-bearing for log reclamation.
  bool send_flush_notifications = true;
  /// Optional fault injector shared by the whole cluster (not owned); wired
  /// into this node's DiskManager and LogManager on open. nullptr = off.
  FaultInjector* fault_injector = nullptr;
  /// The unified logging policy (strategy, group commit, archiving,
  /// redo parallelism). A cluster-wide policy is set on
  /// ClusterOptions::node_defaults.
  LoggingPolicy logging_policy;
  /// When planned lost-page rebuilds run: at first touch while the node
  /// serves traffic, or (the default) all before the node opens.
  InstantRestoreOptions instant_restore;
  /// Optional structured-event trace sink shared by the whole cluster (not
  /// owned). nullptr = tracing off: every emit point is guarded by one
  /// branch on this pointer, so the default costs nothing.
  TraceSink* trace_sink = nullptr;
};

}  // namespace clog

#endif  // CLOG_NODE_OPTIONS_H_
