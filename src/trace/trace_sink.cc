#include "trace/trace_sink.h"

#include <algorithm>

#include "common/codec.h"
#include "common/fsutil.h"

namespace clog {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t MixEvent(std::uint64_t h, const TraceEvent& e) {
  // Field by field — struct padding is not part of the hash.
  h = FnvMix64(h, e.time_ns);
  h = FnvMix64(h, e.seq);
  h = FnvMix64(h, e.a);
  h = FnvMix64(h, e.b);
  h = FnvMix64(h, e.c);
  h = FnvMix64(h, e.node);
  h = FnvMix64(h, static_cast<std::uint64_t>(e.type));
  return h;
}

// Trace file: a record file (common/fsutil.h) under magic "CLTR" whose
// body is, all little-endian:
//   u32 version, u64 capacity_per_node, u32 node_count
//   per node: u32 node, u64 emitted, u64 hash, u64 retained,
//             retained * { u64 time_ns, seq, a, b; u32 c, node, type }
// The version also covers the numbering of the MsgType values that RPC
// events carry in `c`: a file from a build that numbered them differently
// is refused, not mislabelled.
constexpr std::uint32_t kTraceMagic = 0x52544C43u;  // "CLTR"
constexpr std::uint32_t kTraceVersion = 3;
constexpr std::size_t kEventBytes = 4 * 8 + 3 * 4;

}  // namespace

std::string_view TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kNone: return "NONE";
    case TraceEventType::kTxnBegin: return "TXN_BEGIN";
    case TraceEventType::kTxnCommit: return "TXN_COMMIT";
    case TraceEventType::kTxnAbort: return "TXN_ABORT";
    case TraceEventType::kLogAppend: return "LOG_APPEND";
    case TraceEventType::kLogForce: return "LOG_FORCE";
    case TraceEventType::kGroupCommitPark: return "GC_PARK";
    case TraceEventType::kGroupCommitCover: return "GC_COVER";
    case TraceEventType::kPageFetch: return "PAGE_FETCH";
    case TraceEventType::kPageShip: return "PAGE_SHIP";
    case TraceEventType::kPageEvict: return "PAGE_EVICT";
    case TraceEventType::kFlushNotify: return "FLUSH_NOTIFY";
    case TraceEventType::kLockWait: return "LOCK_WAIT";
    case TraceEventType::kDeadlock: return "DEADLOCK";
    case TraceEventType::kRpcSend: return "RPC_SEND";
    case TraceEventType::kRpcRecv: return "RPC_RECV";
    case TraceEventType::kRpcRetry: return "RPC_RETRY";
    case TraceEventType::kRpcPark: return "RPC_PARK";
    case TraceEventType::kRecoveryPhase: return "RECOVERY_PHASE";
    case TraceEventType::kCheckpointBegin: return "CKPT_BEGIN";
    case TraceEventType::kCheckpointEnd: return "CKPT_END";
    case TraceEventType::kNodeCrash: return "NODE_CRASH";
    case TraceEventType::kArchivePass: return "ARCHIVE_PASS";
    case TraceEventType::kPagePoison: return "PAGE_POISON";
    case TraceEventType::kMediaRecovery: return "MEDIA_RECOVERY";
    case TraceEventType::kRestorePlan: return "RESTORE_PLAN";
    case TraceEventType::kPageRestored: return "PAGE_RESTORED";
    case TraceEventType::kRestoreDone: return "RESTORE_DONE";
  }
  return "UNKNOWN";
}

TraceSink::TraceSink(std::size_t capacity_per_node)
    : capacity_(capacity_per_node == 0 ? 1 : capacity_per_node) {}

void TraceSink::Emit(NodeId node, TraceEventType type, std::uint64_t a,
                     std::uint64_t b, std::uint32_t c) {
  std::lock_guard<std::mutex> lk(mu_);
  Ring& ring = rings_[node];
  if (ring.emitted == 0) {
    ring.hash = kFnvOffset;
    ring.buf.reserve(std::min<std::size_t>(capacity_, 64));
  }
  TraceEvent e;
  e.time_ns = clock_ != nullptr ? clock_->NowNanos() : 0;
  e.seq = ring.emitted;
  e.a = a;
  e.b = b;
  e.c = c;
  e.node = node;
  e.type = type;
  if (ring.buf.size() < capacity_) {
    ring.buf.push_back(e);
  } else {
    ring.buf[ring.emitted % capacity_] = e;
  }
  ++ring.emitted;
  ring.hash = MixEvent(ring.hash, e);
}

std::vector<NodeId> TraceSink::Nodes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return NodesLocked();
}

std::vector<NodeId> TraceSink::NodesLocked() const {
  std::vector<NodeId> out;
  out.reserve(rings_.size());
  for (const auto& [node, ring] : rings_) out.push_back(node);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TraceEvent> TraceSink::Events(NodeId node) const {
  std::lock_guard<std::mutex> lk(mu_);
  return EventsLocked(node);
}

std::vector<TraceEvent> TraceSink::EventsLocked(NodeId node) const {
  std::vector<TraceEvent> out;
  auto it = rings_.find(node);
  if (it == rings_.end()) return out;
  const Ring& ring = it->second;
  out.reserve(ring.buf.size());
  if (ring.emitted <= capacity_) {
    out = ring.buf;
  } else {
    const std::size_t start = ring.emitted % capacity_;
    out.insert(out.end(), ring.buf.begin() + start, ring.buf.end());
    out.insert(out.end(), ring.buf.begin(), ring.buf.begin() + start);
  }
  return out;
}

std::uint64_t TraceSink::emitted(NodeId node) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(node);
  return it == rings_.end() ? 0 : it->second.emitted;
}

std::uint64_t TraceSink::total_emitted() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const auto& [node, ring] : rings_) total += ring.emitted;
  return total;
}

std::uint64_t TraceSink::HashLocked(NodeId node) const {
  auto it = rings_.find(node);
  return it == rings_.end() ? 0 : it->second.hash;
}

std::uint64_t TraceSink::Hash(NodeId node) const {
  std::lock_guard<std::mutex> lk(mu_);
  return HashLocked(node);
}

std::uint64_t TraceSink::Hash() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (rings_.empty()) return 0;  // Nothing emitted anywhere.
  std::uint64_t h = kFnvOffset;
  for (NodeId node : NodesLocked()) {
    h = FnvMix64(h, node);
    h = FnvMix64(h, HashLocked(node));
  }
  return h;
}

Status TraceSink::WriteBinaryFile(const std::string& path) const {
  std::string body;
  Encoder enc(&body);
  enc.PutU32(kTraceVersion);
  {
    std::lock_guard<std::mutex> lk(mu_);
    enc.PutU64(capacity_);
    const std::vector<NodeId> nodes = NodesLocked();
    enc.PutU32(static_cast<std::uint32_t>(nodes.size()));
    for (NodeId node : nodes) {
      const Ring& ring = rings_.at(node);
      const std::vector<TraceEvent> events = EventsLocked(node);
      enc.PutU32(node);
      enc.PutU64(ring.emitted);
      enc.PutU64(ring.hash);
      enc.PutU64(events.size());
      for (const TraceEvent& e : events) {
        enc.PutU64(e.time_ns);
        enc.PutU64(e.seq);
        enc.PutU64(e.a);
        enc.PutU64(e.b);
        enc.PutU32(e.c);
        enc.PutU32(e.node);
        enc.PutU32(static_cast<std::uint32_t>(e.type));
      }
    }
  }
  return WriteRecordFile(path, kTraceMagic, body);
}

Status TraceSink::ReadBinaryFile(const std::string& path) {
  std::string body;
  CLOG_RETURN_IF_ERROR(ReadRecordFile(path, kTraceMagic, &body));
  Decoder dec(body);
  std::uint32_t version = 0, node_count = 0;
  std::uint64_t capacity = 0;
  CLOG_RETURN_IF_ERROR(dec.GetU32(&version));
  if (version != kTraceVersion) {
    return Status::Corruption("unsupported trace version " +
                              std::to_string(version));
  }
  CLOG_RETURN_IF_ERROR(dec.GetU64(&capacity));
  CLOG_RETURN_IF_ERROR(dec.GetU32(&node_count));
  capacity = std::max<std::uint64_t>(capacity, 1);
  std::unordered_map<NodeId, Ring> rings;
  for (std::uint32_t i = 0; i < node_count; ++i) {
    std::uint32_t node = 0;
    std::uint64_t retained = 0;
    Ring ring;
    CLOG_RETURN_IF_ERROR(dec.GetU32(&node));
    CLOG_RETURN_IF_ERROR(dec.GetU64(&ring.emitted));
    CLOG_RETURN_IF_ERROR(dec.GetU64(&ring.hash));
    CLOG_RETURN_IF_ERROR(dec.GetU64(&retained));
    // A ring retains exactly its newest min(emitted, capacity) events;
    // Events() and Emit() index the ring on that assumption.
    if (retained != std::min(ring.emitted, capacity) ||
        retained > dec.remaining() / kEventBytes) {
      return Status::Corruption("bad retained count for trace node " +
                                std::to_string(node));
    }
    ring.buf.resize(static_cast<std::size_t>(retained));
    for (TraceEvent& e : ring.buf) {
      std::uint32_t type = 0;
      CLOG_RETURN_IF_ERROR(dec.GetU64(&e.time_ns));
      CLOG_RETURN_IF_ERROR(dec.GetU64(&e.seq));
      CLOG_RETURN_IF_ERROR(dec.GetU64(&e.a));
      CLOG_RETURN_IF_ERROR(dec.GetU64(&e.b));
      CLOG_RETURN_IF_ERROR(dec.GetU32(&e.c));
      CLOG_RETURN_IF_ERROR(dec.GetU32(&e.node));
      CLOG_RETURN_IF_ERROR(dec.GetU32(&type));
      e.type = static_cast<TraceEventType>(type);
    }
    // Events() reconstructs oldest-first from the wrap position, so store
    // the retained window back in ring order.
    if (ring.emitted > capacity) {
      std::rotate(ring.buf.begin(),
                  ring.buf.begin() + static_cast<std::ptrdiff_t>(
                                         capacity - ring.emitted % capacity),
                  ring.buf.end());
    }
    if (!rings.emplace(node, std::move(ring)).second) {
      return Status::Corruption("duplicate trace node " +
                                std::to_string(node));
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = static_cast<std::size_t>(capacity);
  rings_ = std::move(rings);
  return Status::OK();
}

}  // namespace clog
