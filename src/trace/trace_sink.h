#ifndef CLOG_TRACE_TRACE_SINK_H_
#define CLOG_TRACE_TRACE_SINK_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "trace/trace_event.h"

namespace clog {

/// Deterministic structured-event trace: one fixed-capacity ring buffer of
/// TraceEvents per node, stamped with the simulated clock and a per-node
/// monotonic sequence number. Identical seeds produce byte-identical event
/// streams; `Hash()` folds the *entire* stream (not just the retained
/// window) through FNV-1a so tests can assert trace determinism even after
/// the ring has wrapped.
///
/// Wiring: set `ClusterOptions::trace_sink` (or per-node
/// `NodeOptions::trace_sink`) to a sink owned by the caller. The Cluster
/// binds its SimClock; every subsystem emit point is guarded by a branch on
/// the raw pointer, so a null sink (the default) costs nothing.
///
/// Emitting never touches the clock or any RNG — attaching a sink cannot
/// perturb a deterministic schedule. In real-threads mode node threads
/// emit concurrently, so the ring map is guarded by one internal mutex;
/// the zero-overhead-when-off property is untouched because every emit
/// call site still branches on the raw sink pointer before calling in.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacityPerNode = 4096;

  explicit TraceSink(std::size_t capacity_per_node = kDefaultCapacityPerNode);

  /// Clock used to stamp events. Unbound (events stamped 0) until the
  /// owning Cluster calls this from its constructor.
  void BindClock(const Clock* clock) { clock_ = clock; }

  /// Records one event in `node`'s ring. The newest events win: once a
  /// ring holds `capacity_per_node` events the oldest is overwritten.
  void Emit(NodeId node, TraceEventType type, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint32_t c = 0);

  /// Nodes that have emitted at least one event, ascending.
  std::vector<NodeId> Nodes() const;

  /// Retained events for `node`, oldest first.
  std::vector<TraceEvent> Events(NodeId node) const;

  /// Total events ever emitted by `node` (>= Events(node).size()).
  std::uint64_t emitted(NodeId node) const;
  std::uint64_t total_emitted() const;
  std::size_t capacity_per_node() const { return capacity_; }

  /// FNV-1a over every event `node` ever emitted (including overwritten
  /// ones), field by field. 0 only for a node that never emitted.
  std::uint64_t Hash(NodeId node) const;

  /// Combined hash over all nodes in ascending id order.
  std::uint64_t Hash() const;

  /// Drops all events and hashes; keeps the clock binding.
  void Clear() {
    std::lock_guard<std::mutex> lk(mu_);
    rings_.clear();
  }

  /// Binary trace file I/O, for `tools/tracedump`: a checksummed record
  /// file (common/fsutil.h) of little-endian, fixed-width fields, version 3
  /// (docs/observability.md). A damaged or malformed file reads as
  /// Corruption and leaves the sink unchanged.
  Status WriteBinaryFile(const std::string& path) const;
  Status ReadBinaryFile(const std::string& path);

 private:
  struct Ring {
    std::vector<TraceEvent> buf;  // grows to capacity_, then wraps
    std::uint64_t emitted = 0;
    std::uint64_t hash = 0;  // running FNV-1a, seeded at first emit
  };

  std::vector<NodeId> NodesLocked() const;
  std::vector<TraceEvent> EventsLocked(NodeId node) const;
  std::uint64_t HashLocked(NodeId node) const;

  const Clock* clock_ = nullptr;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<NodeId, Ring> rings_;
};

}  // namespace clog

#endif  // CLOG_TRACE_TRACE_SINK_H_
