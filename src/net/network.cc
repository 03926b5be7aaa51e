#include "net/network.h"
#include <algorithm>

#include <string>

#include "fault/fault_injector.h"
#include "trace/trace_sink.h"

namespace clog {
namespace {

/// Fixed per-message envelope (headers, ids, modes) used for byte
/// accounting; payload bytes are added per call site.
constexpr std::uint64_t kEnvelopeBytes = 32;

std::uint64_t EncodedSize(const std::vector<LogRecord>& records) {
  std::uint64_t bytes = 0;
  std::string scratch;
  for (const LogRecord& r : records) {
    scratch.clear();
    r.EncodeTo(&scratch);
    bytes += scratch.size() + 8;  // body + frame
  }
  return bytes;
}

}  // namespace

Network::Network(Clock* clock, CostModel cost) : clock_(clock), cost_(cost) {
  for (std::size_t t = 0; t < kNumMsgTypes; ++t) {
    msg_counters_[t] = &metrics_.GetCounter(
        "msg." + std::string(MsgTypeName(static_cast<MsgType>(t))));
  }
}

void Network::RegisterNode(NodeId id, NodeService* svc) {
  std::lock_guard<std::mutex> lk(mu_);
  peers_[id] = Peer{svc, true};
  // A re-registration is a restarted process: its busy-time accounting
  // starts over. Cluster-lifetime traffic counters (msg.*, bytes.*) are
  // deliberately left alone — they describe the wire, not the process.
  {
    std::lock_guard<std::mutex> blk(busy_mu_);
    busy_ns_.erase(id);
  }
  detector_.Invalidate(id);
}

void Network::SetNodeUp(NodeId id, bool up) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = peers_.find(id);
  if (it != peers_.end()) it->second.up = up;
  // Any liveness transition makes every cached view of this node stale.
  detector_.Invalidate(id);
}

bool Network::IsUp(NodeId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = peers_.find(id);
  return it != peers_.end() && it->second.up;
}

void Network::SetNodeDeparted(NodeId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = peers_.find(id);
  if (it != peers_.end()) {
    it->second.up = false;
    it->second.departed = true;
  }
  detector_.Invalidate(id);
}

bool Network::IsDeparted(NodeId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = peers_.find(id);
  return it != peers_.end() && it->second.departed;
}

std::vector<NodeId> Network::AllNodes() const {
  std::vector<NodeId> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [id, peer] : peers_) {
      if (!peer.departed) out.push_back(id);
    }
  }
  // peers_ is a hash map; callers (and determinism) expect id order.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Network::OperationalNodes(NodeId except) const {
  std::vector<NodeId> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [id, peer] : peers_) {
      if (peer.up && !peer.departed && id != except) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status Network::CheckSenderUp(NodeId from) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = peers_.find(from);
  if (it != peers_.end() && !it->second.up) {
    return Status::NodeDown("node " + std::to_string(from) +
                            " is disconnected");
  }
  return Status::OK();
}

Result<NodeService*> Network::Endpoint(NodeId to) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = peers_.find(to);
  if (it == peers_.end()) {
    return Status::NotFound("unknown node " + std::to_string(to));
  }
  if (!it->second.up) {
    return Status::NodeDown("node " + std::to_string(to) + " is down");
  }
  return it->second.svc;
}

Status Network::Deliver(NodeId to, const std::function<void()>& fn) {
  if (executor_ == nullptr) {
    fn();
    return Status::OK();
  }
  if (!executor_->Run(to, fn)) {
    return Status::NodeDown("node " + std::to_string(to) +
                            " execution context stopped");
  }
  return Status::OK();
}

Result<NodeService*> Network::Route(NodeId from, NodeId to) {
  CLOG_RETURN_IF_ERROR(CheckSenderUp(from));
  CLOG_ASSIGN_OR_RETURN(NodeService * endpoint, Endpoint(to));
  if (fault_ != nullptr && from != to) {
    if (fault_->LinkBlocked(from, to)) {
      fault_->NoteBlockedMessage();
      return Status::NodeDown("fault injection: link " + std::to_string(from) +
                              "<->" + std::to_string(to) + " partitioned");
    }
    // Dropped before Charge: a lost request costs the sender nothing but
    // the timeout, which the simulation does not model.
    if (fault_->DropMessage(from, to)) {
      return Status::NodeDown("fault injection: request " +
                              std::to_string(from) + "->" +
                              std::to_string(to) + " dropped");
    }
    std::uint64_t delay = fault_->DelayNanos(from, to);
    if (delay > 0) {
      if (clock_ != nullptr) clock_->Advance(delay);
      AddBusy(from, delay);
    }
  }
  return endpoint;
}

PeerHealth Network::ProbePeer(NodeId from, NodeId to) {
  std::uint64_t now = clock_ != nullptr ? clock_->NowNanos() : 0;
  NodeService* svc = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = peers_.find(to);
    if (it != peers_.end() && it->second.departed) {
      // Departed for good: authoritative, free, and terminal — callers
      // must not treat this like a crash they should wait out.
      return PeerHealth::kDeparted;
    }
    if (it == peers_.end() || !it->second.up) {
      // Connection refused: authoritative and free, so no caching needed.
      return PeerHealth::kDown;
    }
    if (auto cached = detector_.Fresh(from, to, now,
                                      retry_policy_.heartbeat_interval_ns)) {
      metrics_.GetCounter("hb.probe_cached").Add(1);
      return *cached;
    }
    svc = it->second.svc;
  }
  metrics_.GetCounter("hb.probes").Add(1);
  if (fault_ != nullptr && from != to && fault_->LinkBlocked(from, to)) {
    // The probe is lost in the partition. Like a dropped request, a lost
    // probe costs the sender nothing the simulation models.
    std::lock_guard<std::mutex> lk(mu_);
    detector_.Record(from, to, PeerHealth::kDown, now);
    return PeerHealth::kDown;
  }
  Charge(MsgType::kPing, 0, from, to);
  // Pings bypass the mailbox: HandlePing reads one atomic state word, and
  // a probe must answer even while the target's worker is wedged.
  PeerHealth health = svc->HandlePing();
  Charge(MsgType::kPingReply, 1, from, to);
  // The view is as fresh as the reply, not the request: the charges above
  // advanced the clock by the round trip, and stamping the earlier time
  // would age the entry by a full round trip before anyone reads it.
  std::lock_guard<std::mutex> lk(mu_);
  detector_.Record(from, to, health,
                   clock_ != nullptr ? clock_->NowNanos() : 0);
  return health;
}

Result<NodeService*> Network::AdmitWithRetry(NodeId from, NodeId to) {
  Result<NodeService*> first = Route(from, to);
  if (first.ok() || !retry_policy_.enabled || !first.status().IsNodeDown()) {
    return first;
  }
  // A disconnected sender cannot reach anyone; retrying is pointless.
  if (!CheckSenderUp(from).ok()) return first;
  std::uint64_t start = clock_ != nullptr ? clock_->NowNanos() : 0;
  Status original = first.status();
  for (int attempt = 1; attempt < retry_policy_.max_attempts; ++attempt) {
    if (ProbePeer(from, to) != PeerHealth::kUp) {
      // Down, recovering, or partitioned: not a transient loss, and the
      // caller has crash-handling for exactly this error. Fail fast.
      return original;
    }
    // The target is alive and reachable, so the admission failure was a
    // random drop. Wait out the backoff on the sender and resend.
    std::uint64_t backoff;
    {
      std::lock_guard<std::mutex> lk(mu_);
      backoff = BackoffNanos(retry_policy_, attempt, &backoff_rng_);
    }
    if (clock_ != nullptr) clock_->Advance(backoff);
    AddBusy(from, backoff);
    metrics_.GetCounter("rpc.retries").Add(1);
    metrics_.GetCounter("rpc.backoff_ns").Add(backoff);
    if (trace_ != nullptr) {
      trace_->Emit(from, TraceEventType::kRpcRetry, to, backoff,
                   static_cast<std::uint32_t>(attempt));
    }
    Result<NodeService*> again = Route(from, to);
    if (again.ok()) {
      metrics_.GetCounter("rpc.retry_success").Add(1);
      return again;
    }
    if (!again.status().IsNodeDown()) return again;
    if (clock_ != nullptr &&
        clock_->NowNanos() - start >= retry_policy_.deadline_ns) {
      break;
    }
  }
  // Budget or deadline exhausted: surface the *original* admission error,
  // not whatever the last probe/resend happened to see.
  metrics_.GetCounter("rpc.retry_exhausted").Add(1);
  return original;
}

std::uint64_t Network::MaxBusyNanos() const {
  std::lock_guard<std::mutex> lk(busy_mu_);
  std::uint64_t max = 0;
  for (const auto& [_, ns] : busy_ns_) max = std::max(max, ns);
  return max;
}

void Network::Charge(MsgType type, std::uint64_t bytes, NodeId from,
                     NodeId to) {
  bytes += kEnvelopeBytes;
  msg_counters_[static_cast<std::size_t>(type)]->Add(1);
  msg_total_->Add(1);
  bytes_total_->Add(bytes);
  std::uint64_t ns = cost_.network_msg_ns + bytes * cost_.network_byte_ns;
  if (clock_ != nullptr) clock_->Advance(ns);
  // Both endpoints spend the wire time (send + receive handling).
  AddBusy(from, ns);
  AddBusy(to, ns);
  if (trace_ != nullptr) {
    const std::uint32_t mt = static_cast<std::uint32_t>(type);
    trace_->Emit(from, TraceEventType::kRpcSend, to, bytes, mt);
    trace_->Emit(to, TraceEventType::kRpcRecv, from, bytes, mt);
  }
}

Status Network::LockPage(NodeId from, NodeId to, PageId pid, LockMode mode,
                         bool want_page, LockPageReply* reply,
                         const Page* carried) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kLockPageRequest, carried != nullptr ? kPageSize : 0, from,
         to);
  Status st;
  CLOG_RETURN_IF_ERROR(Deliver(to, [&] {
    st = svc->HandleLockPage(from, pid, mode, want_page, carried, reply);
  }));
  Charge(MsgType::kLockPageReply, reply->page ? kPageSize : 0, from, to);
  RecordRtt(t0);
  return st;
}

Status Network::Callback(NodeId from, NodeId to, PageId pid,
                         LockMode downgrade_to, CallbackReply* reply) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kCallback, 0, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleCallback(from, pid, downgrade_to, reply); }));
  Charge(MsgType::kCallbackReply, reply->page ? kPageSize : 0, from, to);
  RecordRtt(t0);
  return st;
}

Status Network::UnlockNotice(NodeId from, NodeId to, PageId pid) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kUnlockNotice, 0, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleUnlockNotice(from, pid); }));
  RecordRtt(t0);
  return st;
}

Status Network::PageShip(NodeId from, NodeId to, const Page& page) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kPageShip, kPageSize, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandlePageShip(from, page); }));
  RecordRtt(t0);
  return st;
}

Status Network::FlushRequest(NodeId from, NodeId to, PageId pid) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kFlushRequest, 0, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleFlushRequest(from, pid); }));
  RecordRtt(t0);
  return st;
}

Status Network::FlushNotify(NodeId from, NodeId to, PageId pid,
                            Psn flushed_psn) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kFlushNotify, 0, from, to);
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { svc->HandleFlushNotify(from, pid, flushed_psn); }));
  RecordRtt(t0);
  // FlushNotify is a one-way idempotent notice: re-delivery just re-asserts
  // a durability watermark the replacer already recorded.
  if (fault_ != nullptr && from != to && fault_->DuplicateNotice(from, to)) {
    Charge(MsgType::kFlushNotify, 0, from, to);
    (void)Deliver(to, [&] { svc->HandleFlushNotify(from, pid, flushed_psn); });
  }
  return Status::OK();
}

Status Network::LogShip(NodeId from, NodeId to,
                        const std::vector<LogRecord>& records, bool force) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kLogShip, EncodedSize(records), from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleLogShip(from, records, force); }));
  // A commit-time ship waits for the owner's force: a round trip.
  if (force) Charge(MsgType::kLogShipReply, 0, from, to);
  RecordRtt(t0);
  return st;
}

Status Network::RecoveryQuery(NodeId from, NodeId to,
                              RecoveryQueryReply* reply) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kRecoveryQuery, 0, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleRecoveryQuery(from, reply); }));
  std::uint64_t bytes = reply->cached_pages_of_crashed.size() * 8 +
                        reply->dpt_entries_for_crashed.size() * 32 +
                        reply->locks_i_hold_on_crashed.size() * 9 +
                        reply->x_locks_crashed_held_here.size() * 9;
  Charge(MsgType::kRecoveryQueryReply, bytes, from, to);
  RecordRtt(t0);
  return st;
}

Status Network::FetchCachedPage(NodeId from, NodeId to, PageId pid,
                                std::shared_ptr<Page>* page) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kFetchCachedPage, 0, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleFetchCachedPage(from, pid, page); }));
  Charge(MsgType::kFetchCachedPageReply, *page ? kPageSize : 0, from, to);
  RecordRtt(t0);
  return st;
}

Status Network::BuildPsnList(NodeId from, NodeId to,
                             const std::vector<PageId>& pages,
                             bool full_history, PsnListReply* reply) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kBuildPsnList, pages.size() * 8 + 1, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleBuildPsnList(from, pages, full_history, reply); }));
  std::uint64_t entries = 0;
  for (const auto& v : reply->per_page) entries += v.size();
  Charge(MsgType::kBuildPsnListReply, entries * 16, from, to);
  RecordRtt(t0);
  return st;
}

Status Network::RecoverPage(NodeId from, NodeId to, PageId pid,
                            const Page& page_in, bool has_bound, Psn bound,
                            RecoverPageReply* reply) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kRecoverPage, kPageSize, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(Deliver(to, [&] {
    st = svc->HandleRecoverPage(from, pid, page_in, has_bound, bound,
                                reply);
  }));
  Charge(MsgType::kRecoverPageReply, reply->page ? kPageSize : 0, from, to);
  RecordRtt(t0);
  return st;
}

Status Network::NodeRecovered(NodeId from, NodeId to, NodeId who) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kNodeRecovered, 4, from, to);
  CLOG_RETURN_IF_ERROR(Deliver(to, [&] { svc->HandleNodeRecovered(who); }));
  RecordRtt(t0);
  // The broadcast doubles as an event-driven heartbeat: the receiver now
  // knows `who` is up without ever probing it.
  {
    std::lock_guard<std::mutex> lk(mu_);
    detector_.Record(to, who, PeerHealth::kUp,
                     clock_ != nullptr ? clock_->NowNanos() : 0);
  }
  // NodeRecovered is likewise idempotent: it clears crash-recovery state
  // for `who`, and clearing twice is a no-op.
  if (fault_ != nullptr && from != to && fault_->DuplicateNotice(from, to)) {
    Charge(MsgType::kNodeRecovered, 4, from, to);
    (void)Deliver(to, [&] { svc->HandleNodeRecovered(who); });
  }
  return Status::OK();
}

Status Network::HandoffOfferRpc(NodeId from, NodeId to,
                                const HandoffOffer& offer,
                                HandoffOfferReply* reply) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kHandoffOffer,
         kPageSize + offer.replacers.size() * 4 + offer.holders.size() * 5,
         from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleHandoffOffer(from, offer, reply); }));
  Charge(MsgType::kHandoffOfferReply, 1, from, to);
  RecordRtt(t0);
  return st;
}

Status Network::HandoffQueryRpc(NodeId from, NodeId to, PageId pid,
                                HandoffQueryReply* reply) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kHandoffQuery, 8, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleHandoffQuery(from, pid, reply); }));
  Charge(MsgType::kHandoffQueryReply, 9, from, to);
  RecordRtt(t0);
  return st;
}

Status Network::LogLossNotice(NodeId from, NodeId to,
                              const std::vector<PageId>& pages) {
  const std::uint64_t t0 = Now();
  CLOG_ASSIGN_OR_RETURN(NodeService * svc, AdmitWithRetry(from, to));
  Charge(MsgType::kLogLossNotice, pages.size() * 8, from, to);
  Status st;
  CLOG_RETURN_IF_ERROR(
      Deliver(to, [&] { st = svc->HandleLogLossNotice(from, pages); }));
  RecordRtt(t0);
  // Idempotent one-way notice: poisoning an already-poisoned page is a
  // no-op, so duplication is safe.
  if (st.ok() && fault_ != nullptr && from != to &&
      fault_->DuplicateNotice(from, to)) {
    Charge(MsgType::kLogLossNotice, pages.size() * 8, from, to);
    (void)Deliver(to, [&] { (void)svc->HandleLogLossNotice(from, pages); });
  }
  return st;
}

}  // namespace clog
