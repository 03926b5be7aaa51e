#ifndef CLOG_NET_NETWORK_H_
#define CLOG_NET_NETWORK_H_

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/types.h"
#include "net/executor.h"
#include "net/failure_detector.h"
#include "net/message.h"

/// \file
/// The cluster interconnect. Dispatch is a synchronous in-process call into
/// the target node's NodeService, but every call is accounted as the two
/// wire messages (request + reply) the real system would send: per-type
/// message counters, byte counters, and simulated latency charged to the
/// cluster SimClock. Crashed nodes are unreachable (NodeDown).
///
/// An optional FaultInjector makes the interconnect lossy: requests can be
/// dropped before dispatch, delayed, or refused by a link partition (all
/// surfacing as NodeDown, the condition every caller already tolerates),
/// and idempotent one-way notices can be duplicated.
///
/// When a RetryPolicy is enabled, every RPC runs inside an idempotent
/// envelope (docs/availability.md): an admission failure — drop, partition,
/// endpoint down — happens strictly *before* dispatch, so the handler never
/// ran and resending is always safe regardless of handler idempotency. The
/// envelope probes the target (heartbeat), and only while the target looks
/// *up* (i.e. the loss was a transient drop) does it back off — capped
/// exponential with seeded jitter, charged to the simulated clock — and
/// resend, up to a retry budget and per-message deadline. Down, recovering,
/// and partitioned targets fail fast, preserving crash semantics.

namespace clog {

class FaultInjector;
class TraceSink;

/// The RPC surface a node exposes to its peers. One method per request
/// MsgType; replies are out-parameters. Implemented by node::Node.
class NodeService {
 public:
  virtual ~NodeService() = default;

  // --- Normal processing (Section 2.2) ---

  /// Owner-side: grant `mode` on `pid` to node `from`, running callbacks to
  /// conflicting holders first. Fills the page image if `want_page`. First
  /// installs `carried`, if set, as HandlePageShip would: a replaced dirty
  /// copy of another of my pages that rode the request home.
  virtual Status HandleLockPage(NodeId from, PageId pid, LockMode mode,
                                bool want_page, const Page* carried,
                                LockPageReply* reply) = 0;

  /// Holder-side: release (downgrade_to == kNone) or demote
  /// (downgrade_to == kShared) the cached lock on `pid`; ship the cached
  /// copy when dirty.
  virtual Status HandleCallback(NodeId from, PageId pid, LockMode downgrade_to,
                                CallbackReply* reply) = 0;

  /// Owner-side: node `from` voluntarily dropped its cached lock on `pid`.
  virtual Status HandleUnlockNotice(NodeId from, PageId pid) = 0;

  /// Owner-side: a replaced dirty copy of one of my pages arrives.
  virtual Status HandlePageShip(NodeId from, const Page& page) = 0;

  /// Owner-side: force `pid` to disk now (Section 2.5 log-space pressure).
  virtual Status HandleFlushRequest(NodeId from, PageId pid) = 0;

  /// Replacer-side: owner reports `pid` durable at `flushed_psn`.
  virtual void HandleFlushNotify(NodeId from, PageId pid, Psn flushed_psn) = 0;

  /// Owner-side (baseline B1 only): client ships log records; `force` asks
  /// for a commit-time log force.
  virtual Status HandleLogShip(NodeId from,
                               const std::vector<LogRecord>& records,
                               bool force) = 0;

  // --- Crash recovery (Sections 2.3, 2.4) ---

  /// Peer-side: restarting node `crashed` gathers my cache/DPT/lock state
  /// relevant to it; I release shared locks it held here and retain its
  /// exclusive ones (Section 2.3.3).
  virtual Status HandleRecoveryQuery(NodeId crashed,
                                     RecoveryQueryReply* reply) = 0;

  /// Peer-side: ship my cached copy of `pid` to the recovering owner
  /// (Section 2.3.1: cached copies supersede recovery).
  virtual Status HandleFetchCachedPage(NodeId from, PageId pid,
                                       std::shared_ptr<Page>* page) = 0;

  /// Peer-side: scan my log and build NodePSNLists for `pages`
  /// (Section 2.3.4). With `full_history` the scan starts at the log's
  /// first record and ignores the DPT — needed when the requester is
  /// rebuilding a torn on-disk page from its space-map PSN seed.
  virtual Status HandleBuildPsnList(NodeId from,
                                    const std::vector<PageId>& pages,
                                    bool full_history,
                                    PsnListReply* reply) = 0;

  /// Peer-side: apply my redo records for `pid` to `page`, stopping at the
  /// first record whose PSN exceeds `bound` (if `has_bound`).
  virtual Status HandleRecoverPage(NodeId from, PageId pid,
                                   const Page& page_in, bool has_bound,
                                   Psn bound, RecoverPageReply* reply) = 0;

  /// Any-side: `who` finished restart recovery and is operational again.
  virtual void HandleNodeRecovered(NodeId who) = 0;

  /// Owner-side (media failure): restarting node `from` lost its log
  /// device; `pages` are pages I own on which `from` held exclusive locks,
  /// so their newest committed versions existed only in `from`'s destroyed
  /// log. I must poison them — refusing service beats serving stale data.
  /// Idempotent one-way notice.
  virtual Status HandleLogLossNotice(NodeId from,
                                     const std::vector<PageId>& pages) = 0;

  // --- Availability layer ---

  /// Heartbeat probe: how alive is this process? Only reachable while the
  /// endpoint is registered as up, so the default covers every service that
  /// has no recovering state; node::Node reports kRecovering while its
  /// restart recovery is in flight.
  virtual PeerHealth HandlePing() { return PeerHealth::kUp; }

  // --- Elastic membership (ownership handoff) ---

  /// New-owner side: adopt `offer.pid` — durably store the image and the
  /// transferred recovery residue, register as current owner, and notify
  /// the inherited replacers. Defaulted so services that never participate
  /// in handoffs (mocks, baselines) need no stub.
  virtual Status HandleHandoffOffer(NodeId from, const HandoffOffer& offer,
                                    HandoffOfferReply* reply) {
    (void)from;
    (void)offer;
    reply->accepted = false;
    return Status::NotSupported("handoff not supported");
  }

  /// New-owner side: crash re-entry probe — did `pid` make it into my
  /// durable handoff ledger?
  virtual Status HandleHandoffQuery(NodeId from, PageId pid,
                                    HandoffQueryReply* reply) {
    (void)from;
    (void)pid;
    reply->adopted = false;
    return Status::OK();
  }
};

/// Routes calls between nodes and accounts for them.
///
/// Dual-mode delivery (docs/architecture_modes.md): with no executor
/// attached (or the inline one), a handler runs synchronously on the
/// calling thread — the deterministic simulation. With a real-threads
/// executor attached, the handler is delivered to the target node's worker
/// thread through its bounded mailbox and the caller blocks for the reply;
/// registration, liveness, and busy-time state are mutex-guarded so
/// concurrent node threads can route safely.
class Network {
 public:
  Network(Clock* clock, CostModel cost);

  /// Attaches the execution backend handlers are delivered through
  /// (nullptr = inline, the default). Not owned; must outlive the network
  /// while attached. Set once at cluster construction, before traffic.
  void set_executor(Executor* executor) { executor_ = executor; }
  Executor* executor() { return executor_; }

  /// Attaches a fault injector (nullptr detaches). Not owned; must outlive
  /// the network while attached.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }
  FaultInjector* fault_injector() { return fault_; }

  /// Attaches a trace sink emitting RPC_SEND/RPC_RECV per accounted wire
  /// message and RPC_RETRY per envelope resend (nullptr detaches). Not
  /// owned; must outlive the network while attached.
  void set_trace_sink(TraceSink* trace) { trace_ = trace; }

  /// Installs the availability policy. Reseeds the jitter PRNG so the
  /// retry schedule is a pure function of the policy seed.
  void set_retry_policy(const RetryPolicy& policy) {
    retry_policy_ = policy;
    backoff_rng_ = Random(policy.jitter_seed);
  }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Heartbeat probe from `from`'s point of view: answers from the view
  /// table when fresh (within heartbeat_interval_ns), otherwise charges a
  /// ping round-trip. Down endpoints and partitioned links answer kDown for
  /// free — the probe is lost, and a lost probe costs the sender nothing
  /// the simulation models (same rule as dropped requests).
  PeerHealth ProbePeer(NodeId from, NodeId to);

  /// Registers (or re-registers) a node's service endpoint; nodes start up.
  void RegisterNode(NodeId id, NodeService* svc);

  /// Marks a node crashed (calls to it fail with NodeDown) or back up.
  void SetNodeUp(NodeId id, bool up);
  bool IsUp(NodeId id) const;

  /// Marks a node as permanently departed (elastic membership): calls to it
  /// fail with NodeDown, probes answer kDeparted authoritatively and for
  /// free, and it disappears from OperationalNodes — so recovery protocols
  /// never wait on it the way they would on a merely-down peer.
  void SetNodeDeparted(NodeId id);
  bool IsDeparted(NodeId id) const;

  /// All registered node ids (departed members excluded).
  std::vector<NodeId> AllNodes() const;

  /// Registered nodes currently up, excluding `except` and departed peers.
  std::vector<NodeId> OperationalNodes(NodeId except = kInvalidNodeId) const;

  // --- Accounted RPC wrappers (one per request type) ---
  /// `carried`, if set, rides the request (charged kPageSize): a replaced
  /// dirty page of `to`'s, so the miss needs no separate PageShip.
  Status LockPage(NodeId from, NodeId to, PageId pid, LockMode mode,
                  bool want_page, LockPageReply* reply,
                  const Page* carried = nullptr);
  Status Callback(NodeId from, NodeId to, PageId pid, LockMode downgrade_to,
                  CallbackReply* reply);
  Status UnlockNotice(NodeId from, NodeId to, PageId pid);
  Status PageShip(NodeId from, NodeId to, const Page& page);
  Status FlushRequest(NodeId from, NodeId to, PageId pid);
  Status FlushNotify(NodeId from, NodeId to, PageId pid, Psn flushed_psn);
  Status LogShip(NodeId from, NodeId to, const std::vector<LogRecord>& records,
                 bool force);
  Status RecoveryQuery(NodeId from, NodeId to, RecoveryQueryReply* reply);
  Status FetchCachedPage(NodeId from, NodeId to, PageId pid,
                         std::shared_ptr<Page>* page);
  Status BuildPsnList(NodeId from, NodeId to, const std::vector<PageId>& pages,
                      bool full_history, PsnListReply* reply);
  Status RecoverPage(NodeId from, NodeId to, PageId pid, const Page& page_in,
                     bool has_bound, Psn bound, RecoverPageReply* reply);
  Status NodeRecovered(NodeId from, NodeId to, NodeId who);
  Status LogLossNotice(NodeId from, NodeId to,
                       const std::vector<PageId>& pages);
  Status HandoffOfferRpc(NodeId from, NodeId to, const HandoffOffer& offer,
                         HandoffOfferReply* reply);
  Status HandoffQueryRpc(NodeId from, NodeId to, PageId pid,
                         HandoffQueryReply* reply);

  /// Traffic metrics ("msg.<type>", "msg.total", "bytes.total") and the
  /// "rpc.rtt_ns" round-trip histogram (one sample per RPC wrapper call,
  /// measured on the simulated clock from admission to reply).
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  Clock* clock() { return clock_; }
  const CostModel& cost_model() const { return cost_; }

  /// Per-node busy-time accounting: the simulation is single-threaded, so
  /// the shared clock measures the *sequential* critical path; per-node
  /// busy time lets benchmarks compute the parallel makespan
  /// (max over nodes) of a workload, which is what distinguishes "every
  /// node forces its own log" from "every commit funnels through the
  /// server" (DESIGN.md E2).
  void AddBusy(NodeId node, std::uint64_t ns) {
    std::lock_guard<std::mutex> lk(busy_mu_);
    busy_ns_[node] += ns;
  }
  std::uint64_t BusyNanos(NodeId node) const {
    std::lock_guard<std::mutex> lk(busy_mu_);
    auto it = busy_ns_.find(node);
    return it == busy_ns_.end() ? 0 : it->second;
  }
  /// Largest per-node busy time (the parallel makespan lower bound).
  std::uint64_t MaxBusyNanos() const;
  void ResetBusy() {
    std::lock_guard<std::mutex> lk(busy_mu_);
    busy_ns_.clear();
  }

 private:
  /// Looks up a live endpoint or returns NodeDown/NotFound.
  Result<NodeService*> Endpoint(NodeId to) const;

  /// A disconnected sender cannot reach anyone (links are bidirectional).
  Status CheckSenderUp(NodeId from) const;

  /// Runs `fn` (one handler invocation) in `to`'s execution context:
  /// inline without an executor, else through Executor::Run. A rejected
  /// delivery (the target's worker stopped mid-flight) surfaces as
  /// NodeDown — the same error a crashed endpoint produces at admission.
  Status Deliver(NodeId to, const std::function<void()>& fn);

  /// Full per-request admission path: sender up, endpoint live, link not
  /// partitioned, request not dropped by the fault injector (both surface
  /// as NodeDown), injected delay charged.
  Result<NodeService*> Route(NodeId from, NodeId to);

  /// The idempotent RPC envelope: Route, and on a transient admission
  /// failure (target probes as *up*, so the loss was a random drop) back
  /// off and resend within the retry budget and deadline. Every RPC
  /// wrapper routes here; with the policy disabled it is exactly Route.
  Result<NodeService*> AdmitWithRetry(NodeId from, NodeId to);

  /// Accounts one wire message of `bytes` payload between two endpoints.
  void Charge(MsgType type, std::uint64_t bytes, NodeId from, NodeId to);

  /// Records one "rpc.rtt_ns" sample: simulated time elapsed since `t0`.
  void RecordRtt(std::uint64_t t0) {
    if (clock_ != nullptr) rtt_hist_->Record(clock_->NowNanos() - t0);
  }

  /// Simulated now, for RecordRtt start stamps.
  std::uint64_t Now() const { return clock_ != nullptr ? clock_->NowNanos() : 0; }

  struct Peer {
    NodeService* svc = nullptr;
    bool up = false;
    bool departed = false;
  };

  Clock* clock_;
  CostModel cost_;
  Executor* executor_ = nullptr;
  FaultInjector* fault_ = nullptr;
  /// Guards peers_, the failure-detector view table, and the backoff PRNG
  /// against concurrent node threads in real mode. Never held across a
  /// handler dispatch — only around the leaf map/table accesses — so the
  /// locking cannot deadlock with reentrant RPC chains.
  mutable std::mutex mu_;
  /// Separate guard for busy_ns_: AddBusy is called from inside Charge
  /// while callers may hold nothing, and keeping it off mu_ keeps the
  /// accounting path contention-free.
  mutable std::mutex busy_mu_;
  // Hash maps: Endpoint/Route and AddBusy sit on the per-message dispatch
  // path, where the O(log n) red-black walk was pure overhead. Everything
  // that *iterates* (AllNodes, OperationalNodes) sorts its output so node
  // orderings — and with them, recovery and schedule determinism — are
  // unchanged.
  std::unordered_map<NodeId, Peer> peers_;
  std::unordered_map<NodeId, std::uint64_t> busy_ns_;
  Metrics metrics_;
  /// Pre-registered "rpc.rtt_ns" handle: Metrics elements are
  /// reference-stable, so the hot wrappers record without a string hash.
  Histogram* rtt_hist_ = &metrics_.GetHistogram("rpc.rtt_ns");
  /// Pre-registered Charge handles, one "msg.<type>" counter per MsgType
  /// plus the totals: every wire message is charged on its sender's
  /// thread, which would otherwise build a name and take the registry
  /// mutex three times per message.
  std::array<Counter*, kNumMsgTypes> msg_counters_{};
  Counter* msg_total_ = &metrics_.GetCounter("msg.total");
  Counter* bytes_total_ = &metrics_.GetCounter("bytes.total");
  TraceSink* trace_ = nullptr;
  RetryPolicy retry_policy_;
  Random backoff_rng_{0xC10CBEEFull};
  FailureDetector detector_;
};

}  // namespace clog

#endif  // CLOG_NET_NETWORK_H_
