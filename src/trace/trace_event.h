#ifndef CLOG_TRACE_TRACE_EVENT_H_
#define CLOG_TRACE_TRACE_EVENT_H_

#include <cstdint>
#include <string_view>

#include "common/types.h"

namespace clog {

/// Typed protocol events. One entry per observable step of the paper's
/// protocols: transaction lifecycle, the WAL commit path, page traffic
/// (Section 2.2), locking, RPCs, and restart recovery (Sections 2.3/2.4).
///
/// The numeric values are part of the on-disk trace format and of the
/// deterministic trace hash — append new types at the end, never renumber.
enum class TraceEventType : std::uint16_t {
  kNone = 0,
  // Transaction lifecycle. a = txn id.
  kTxnBegin = 1,
  kTxnCommit = 2,   // sync commit acked durable
  kTxnAbort = 3,
  // WAL. kLogAppend: a = lsn, b = encoded bytes, c = record type.
  // kLogForce: a = flushed-up-to lsn, b = bytes written by this force.
  kLogAppend = 4,
  kLogForce = 5,
  // Group commit. a = txn id, b = commit lsn.
  kGroupCommitPark = 6,
  kGroupCommitCover = 7,  // parked commit completed by a covering force
  // Page traffic. a = PageId::Pack(), b = psn, c = peer node
  // (fetch: source; ship: the other endpoint; evict: dirty flag).
  kPageFetch = 8,
  kPageShip = 9,
  kPageEvict = 10,
  kFlushNotify = 11,  // received FlushNotify; b = flushed psn, c = owner
  // Locking. kLockWait: a = PageId::Pack(), b = requester node, c = mode.
  // kDeadlock: a = waiting txn id (emitted on the waiter's node).
  kLockWait = 12,
  kDeadlock = 13,
  // RPC envelope. send/recv: a = peer, b = bytes, c = MsgType.
  // retry: a = destination, b = backoff ns, c = attempt number.
  // park: a = recovering owner the request parked on.
  kRpcSend = 14,
  kRpcRecv = 15,
  kRpcRetry = 16,
  kRpcPark = 17,
  // Restart recovery. a = RecoveryPhase value, b = phase duration ns.
  kRecoveryPhase = 18,
  // Checkpoint. a = begin/end record lsn.
  kCheckpointBegin = 19,
  kCheckpointEnd = 20,
  // Node crash (fault injection or Cluster::CrashNode).
  kNodeCrash = 21,
  // Fuzzy archive pass sealed. a = pass seq, b = pages written this pass,
  // c = total pages in the archive.
  kArchivePass = 22,
  // Page poisoned: its committed state is unrecoverable (media failure).
  // a = PageId::Pack(), b = needed PSN (max u64 = permanent).
  kPagePoison = 23,
  // Media recovery summary for one restart. a = lost-page candidates,
  // b = planned pages rebuilt before the node opened (0 with instant
  // restore on), c = pages poisoned outside those rebuilds (whose verdicts
  // show as PAGE_RESTORED with source 4).
  kMediaRecovery = 24,
  // Restart recovery planned the rebuild of pages it could not read (torn,
  // or on a lost data device). a = pages planned, b = pages with at least
  // one peer-cache candidate.
  kRestorePlan = 25,
  // One planned page finished rebuilding (drained before the node opened,
  // on demand, or by the sweeper).
  // a = PageId::Pack(), b = resulting psn, c = source (0 = already durable,
  // 1 = peer cache, 2 = archive + redo, 3 = seed + redo, 4 = poisoned).
  kPageRestored = 26,
  // The restore backlog drained: the node left degraded mode.
  // a = pages restored this epoch, b = epoch duration ns (from the drain's
  // start, or from the node opening with plans pending).
  kRestoreDone = 27,
};

/// Stable upper-case name, for tracedump and torture tails.
std::string_view TraceEventTypeName(TraceEventType type);

/// One fixed-width trace record. Stamped by TraceSink with the SimClock
/// time and a per-node monotonic sequence number, so a deterministic run
/// produces a byte-identical event stream.
///
/// Serialization and hashing walk the fields explicitly (never memcpy the
/// struct): padding bytes are not part of the format.
struct TraceEvent {
  std::uint64_t time_ns = 0;  // SimClock::NowNanos() at emit
  std::uint64_t seq = 0;      // per-node emit index, starts at 0
  std::uint64_t a = 0;        // per-type payload, see TraceEventType
  std::uint64_t b = 0;
  std::uint32_t c = 0;
  NodeId node = kInvalidNodeId;       // ring this event belongs to
  TraceEventType type = TraceEventType::kNone;
  std::uint16_t reserved = 0;
};

}  // namespace clog

#endif  // CLOG_TRACE_TRACE_EVENT_H_
