#ifndef CLOG_FAULT_FAULT_INJECTOR_H_
#define CLOG_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/types.h"

/// \file
/// Deterministic fault-injection layer. One FaultInjector is shared by a
/// whole cluster and consulted at the three I/O choke points:
///
///  - Network (every accounted wire message): drop the request before it
///    reaches the peer, charge extra latency, duplicate idempotent
///    notifications, and partition links.
///  - DiskManager (page writes / fdatasync): fail a write cleanly, tear it
///    (persist only the first half of the page), or fail a sync.
///  - LogManager (Abandon / Flush): persist a torn prefix of the buffered
///    log tail when a crash abandons it, and fail the fsync of a flush.
///
/// Every decision is drawn from one seeded PRNG, so a whole cluster history
/// — workload, faults, crashes, recoveries — replays exactly from a single
/// uint64 seed. Probabilistic faults only fire while `enabled()`; the
/// torture harness disables the injector around restart recovery (faults
/// quiesce before repair, the standard torture-harness contract).
///
/// Fault semantics are chosen so that no injected fault can violate the
/// system's correctness contract by construction:
///  - messages are dropped *before* dispatch (the peer never sees them), so
///    a drop is indistinguishable from the peer being down — a condition
///    every caller already handles;
///  - only one-way idempotent notices are duplicated;
///  - disk and log write faults fail *before* any byte reaches the file
///    (or tear it in a way recovery treats as a crash artifact), and the
///    harness fail-stops the node the fault fired on, which is the
///    standard model for I/O errors (think PostgreSQL's fsync panic).

namespace clog {

/// Probabilities of the stochastic faults. One-shot disk/log-write faults
/// are armed explicitly instead (see ArmIoFault), because they require the
/// harness to fail-stop the victim node when they fire.
struct FaultConfig {
  // --- Network (checked per wire message while enabled) ---
  double net_drop_p = 0.0;       ///< Request lost before dispatch.
  double net_delay_p = 0.0;      ///< Extra latency charged to the clock.
  std::uint64_t net_delay_min_ns = 100'000;
  std::uint64_t net_delay_max_ns = 5'000'000;
  double net_duplicate_p = 0.0;  ///< Idempotent notices delivered twice.

  // --- Log tail (checked when a crash abandons the buffered tail) ---
  double torn_tail_p = 0.0;          ///< Persist a prefix of the lost tail.
  double torn_tail_corrupt_p = 0.5;  ///< ...and flip a byte of the prefix.
};

/// One-shot I/O faults armed on a specific node. The fault fires on that
/// node's next matching I/O and is then cleared; the fired node is recorded
/// so a harness can fail-stop it.
enum class IoFault : std::uint8_t {
  kNone = 0,
  kFailPageWrite,  ///< pwrite fails; nothing reaches the file.
  kTornPageWrite,  ///< Only the first half of the page reaches the file.
  kFailDiskSync,   ///< DiskManager::Sync fails.
  kFailLogSync,    ///< LogManager::Flush fails before writing anything.
  kFailPageRead,   ///< pread fails once, transiently; a retry succeeds.
};

/// Whole-device loss, consumed at the next crash of the armed node (media
/// failure happens *with* the crash: a live process never observes its own
/// device vanishing mid-operation under the fail-stop model). The harness
/// arms one, crashes the node, and restart recovery finds the file gone.
enum class DeviceFault : std::uint8_t {
  kNone = 0,
  kDestroyDataFile,  ///< node.db truncated to nothing at the crash point.
  kDestroyLogFile,   ///< node.log (and its master pointer) destroyed.
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed, FaultConfig config = {});

  std::uint64_t seed() const { return seed_; }
  const FaultConfig& config() const { return config_; }
  void set_config(const FaultConfig& config) { config_ = config; }

  /// Master switch. While disabled every hook reports "no fault" without
  /// consuming randomness, and partitions do not block links.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // --- Network hooks (called by Network) --------------------------------

  /// True if the link between `a` and `b` is partitioned (symmetric).
  bool LinkBlocked(NodeId a, NodeId b) const;

  /// Called by Network when a partition refused a message (counters only).
  void NoteBlockedMessage() { ++counters_.blocked_msgs; }

  /// True if this request should be lost before dispatch.
  bool DropMessage(NodeId from, NodeId to);

  /// Extra nanoseconds of latency for this message; 0 = none.
  std::uint64_t DelayNanos(NodeId from, NodeId to);

  /// True if this (idempotent, one-way) notice should be delivered twice.
  bool DuplicateNotice(NodeId from, NodeId to);

  // --- Partitions (explicit state set by the harness) -------------------

  void BlockLink(NodeId a, NodeId b);
  void HealAllLinks();
  bool AnyLinkBlocked() const { return !blocked_links_.empty(); }

  // --- Disk / log hooks -------------------------------------------------

  /// Arms a one-shot I/O fault on `node`.
  void ArmIoFault(NodeId node, IoFault fault);

  /// Called by DiskManager before a page write; returns and clears any
  /// armed write fault for `node`.
  IoFault OnPageWrite(NodeId node);

  /// Called by DiskManager before a page read; true = fail this read
  /// (clears the arm, so the caller's single retry succeeds). Transient by
  /// design: the node is NOT recorded as fired — a retried read is not a
  /// lying device, so fail-stop does not apply.
  bool OnPageRead(NodeId node);

  /// Called by DiskManager before fdatasync; true = fail (clears the arm).
  bool OnDiskSync(NodeId node);

  /// Called by LogManager::Flush before writing; true = fail the force
  /// (clears the arm). Nothing reaches the file, so the flushed records
  /// were never durable — exactly a lost log tail.
  bool OnLogSync(NodeId node);

  /// Called by LogManager::Abandon with the size of the buffered (never
  /// acknowledged) tail about to be lost in a crash.
  struct TornTail {
    bool tear = false;            ///< Persist `keep_bytes` of the tail.
    std::size_t keep_bytes = 0;   ///< Prefix length to write to the file.
    bool corrupt_last = false;    ///< Flip a byte at the end of the prefix.
  };
  TornTail OnAbandon(NodeId node, std::size_t buffered_bytes);

  // --- Media failure (device loss) --------------------------------------

  /// Arms a device loss on `node`, consumed at its next crash.
  void ArmDeviceFault(NodeId node, DeviceFault fault);

  /// Called by Node::Crash after volatile state is dropped and files are
  /// closed; returns and clears the armed device fault for `node`. Fires
  /// even while the injector is disabled: a device armed during the fault
  /// window is already doomed, quiescing faults for recovery must not
  /// un-destroy it.
  DeviceFault OnCrash(NodeId node);

  // --- Fail-stop bookkeeping --------------------------------------------

  /// Nodes on which a one-shot I/O fault has fired since the last call;
  /// clears the set. The harness crashes these (fail-stop on I/O error).
  std::vector<NodeId> TakeFiredNodes();

  // --- Counters (observability / reports) -------------------------------

  struct Counters {
    std::uint64_t dropped_msgs = 0;
    std::uint64_t delayed_msgs = 0;
    std::uint64_t duplicated_msgs = 0;
    std::uint64_t blocked_msgs = 0;   ///< Messages refused by a partition.
    std::uint64_t torn_tails = 0;
    std::uint64_t torn_page_writes = 0;
    std::uint64_t failed_page_writes = 0;
    std::uint64_t failed_syncs = 0;   ///< Disk and log syncs combined.
    std::uint64_t failed_page_reads = 0;  ///< Transient read faults fired.
    std::uint64_t data_devices_lost = 0;  ///< kDestroyDataFile consumed.
    std::uint64_t log_devices_lost = 0;   ///< kDestroyLogFile consumed.
  };
  const Counters& counters() const { return counters_; }

 private:
  std::uint64_t seed_;
  FaultConfig config_;
  bool enabled_ = true;
  Random rng_;

  std::set<std::pair<NodeId, NodeId>> blocked_links_;  ///< Normalized pairs.
  std::map<NodeId, IoFault> armed_;
  std::map<NodeId, DeviceFault> armed_device_;
  std::set<NodeId> fired_nodes_;
  Counters counters_;
};

}  // namespace clog

#endif  // CLOG_FAULT_FAULT_INJECTOR_H_
