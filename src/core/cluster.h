#ifndef CLOG_CORE_CLUSTER_H_
#define CLOG_CORE_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/types.h"
#include "core/membership.h"
#include "lock/deadlock_detector.h"
#include "net/executor.h"
#include "net/network.h"
#include "node/node.h"
#include "recovery/distributed_recovery.h"

/// \file
/// Public entry point: a Cluster owns the simulated interconnect, the
/// shared clock, the deadlock detector, and the set of nodes (paper
/// Figure 1). Applications create nodes, allocate pages on owner nodes,
/// run transactions anywhere, and crash/restart nodes at will.

namespace clog {

class TxnHandle;

/// Cluster-wide configuration.
struct ClusterOptions {
  /// Base directory; node k lives in "<dir>/node<k>".
  std::string dir;
  /// Execution backend (docs/architecture_modes.md). kSimulation (the
  /// default) is the deterministic single-threaded engine on a SimClock —
  /// every pre-existing test and bench runs unchanged. kRealThreads gives
  /// each node a run token and a worker thread, a mutex-guarded mailbox
  /// network, a wall clock, and real fsync latencies on log force.
  ExecutionMode execution_mode = ExecutionMode::kSimulation;
  /// Simulated network/disk cost model (DESIGN.md Section 2).
  CostModel cost;
  /// Defaults applied to every node unless overridden in AddNode.
  NodeOptions node_defaults;
  /// Optional fault injector (not owned; must outlive the cluster). Wired
  /// into the network and every node; see src/fault/fault_injector.h.
  FaultInjector* fault_injector = nullptr;
  /// Availability layer (docs/availability.md): retry envelope, heartbeat
  /// failure detector, and request parking. Disabled by default so
  /// fail-fast crash semantics stay exactly as before unless opted in.
  RetryPolicy retry_policy;
  /// Optional structured-event trace sink (not owned; must outlive the
  /// cluster). The cluster binds its SimClock to the sink and wires it
  /// into the network and every node; see docs/observability.md. nullptr
  /// (the default) disables tracing at zero cost.
  TraceSink* trace_sink = nullptr;
};

/// Phase boundaries of a node's restart recovery, in execution order.
/// RestartNodes reports each one through the recovery phase hook; a hook
/// that crashes the node there exercises crash-during-recovery restart.
enum class RecoveryPhase : int {
  kAnalyzed = 0,   ///< Local log analysis done; node now kRecovering.
  kExchanged = 1,  ///< Peer state queried, lock tables reconstructed.
  kRedone = 2,     ///< Redo pass over its pages complete.
  kFinished = 3,   ///< Losers undone; node is up.
};

/// Phase boundaries of a page-ownership handoff (docs/PROTOCOLS.md,
/// "Membership & ownership handoff"), in execution order. HandoffPage
/// reports each one through the handoff phase hook; a hook that crashes
/// either endpoint there exercises crash-during-handoff re-entry.
enum class HandoffPhase : int {
  kPrepared = 0,     ///< Page fenced, durable intent at the source.
  kShipped = 1,      ///< Source's durable copy is the latest version.
  kTransferred = 2,  ///< Target durably adopted (the commit point).
  kCompleted = 3,    ///< Source durably ceded; volatile state dropped.
};

/// The distributed system under test. In simulation mode, deterministic
/// and single-threaded: identical seeds and call sequences reproduce
/// identical histories, including crash/recovery interleavings. In
/// real-threads mode the same API runs on real threads: public entry points
/// that touch node state route through the executor, which runs node code
/// only under that node's run token, so node internals stay confined.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Creates and starts the next node (ids are assigned 0,1,2,...).
  /// `overrides` replaces the default NodeOptions except for the directory,
  /// which is always derived from the cluster directory.
  Result<Node*> AddNode(
      std::optional<NodeOptions> overrides = std::nullopt);

  /// Node accessor (nullptr if unknown).
  Node* node(NodeId id);

  /// All node ids, in creation order.
  std::vector<NodeId> NodeIds() const;

  /// Crashes a node: volatile state lost, files intact, peers see it down.
  Status CrashNode(NodeId id);

  /// Restarts one crashed node through the full Section 2.3 protocol.
  Status RestartNode(NodeId id);

  /// Restarts several crashed nodes together (Section 2.4): every node
  /// completes log analysis before any exchanges recovery state.
  ///
  /// Crash-during-recovery (docs/availability.md): a node that crashes at
  /// a phase boundary — the phase hook fired, or a peer it depended on
  /// vanished mid-phase (NodeDown) — is *abandoned*, not an error, and the
  /// loss voids the whole round: every entry that has not yet gone
  /// operational is fail-stopped back to kDown (Section 2.4 recovery is
  /// only sound when all participants' exchanged state survives to the
  /// end) and a later RestartNodes re-enters the set from scratch.
  /// Callers that need every node up loop until no node remains down.
  Status RestartNodes(const std::vector<NodeId>& ids);

  /// Installs (or clears, with nullptr) the per-phase recovery callback.
  /// Called as hook(node, phase) after each node completes each phase; the
  /// hook may CrashNode(node) to simulate dying at that boundary.
  void set_recovery_phase_hook(
      std::function<void(NodeId, RecoveryPhase)> hook) {
    recovery_phase_hook_ = std::move(hook);
  }

  /// Takes a node off the network WITHOUT crashing it (paper Section 1.2:
  /// orderly disconnection, "a rare event [that] can be handled in an
  /// orderly fashion"). Volatile state survives: the node keeps executing
  /// and committing transactions against its cached, locked pages; peers
  /// see it as unreachable.
  Status DisconnectNode(NodeId id);

  /// Reattaches a disconnected node. No recovery runs — nothing was lost.
  Status ReconnectNode(NodeId id);

  /// Replaces the crashed node's process entirely — a fresh Node object
  /// (think hot standby or a rebooted machine) attaches to the same
  /// database/log directory and runs restart recovery. Exercises the
  /// paper's Section 2.3 remark that "any node that has access to the
  /// database and the log file of the crashed node" can perform recovery:
  /// nothing of the old in-memory object survives.
  Status ReplaceAndRestartNode(NodeId id);

  /// Stats of the most recent restart (per node id).
  const std::map<NodeId, RestartRecovery::Stats>& recovery_stats() const {
    return recovery_stats_;
  }

  // --- Elastic membership (docs/PROTOCOLS.md) ---------------------------

  /// Adds a node to a LIVE cluster (same as AddNode; the epoch bump marks
  /// the membership change for observers).
  Result<Node*> JoinNode(std::optional<NodeOptions> overrides = std::nullopt);

  /// Gracefully retires a node: every page it currently owns is handed off
  /// round-robin to the remaining up members, then the node is marked
  /// departed (permanent — it can never be restarted) and halted. Fails
  /// without departing if a drain handoff cannot run (Busy page, no
  /// recipient); pages already moved stay moved and the caller may retry.
  Status LeaveNode(NodeId id);

  /// Moves one page from its current owner to `to` via the four-phase
  /// crash-restartable protocol. The handoff phase hook fires after each
  /// durable boundary; if a hook crashes an endpoint the call returns
  /// NodeDown and the ledgers re-enter the handoff at the next restart /
  /// ResolveHandoffs.
  Status HandoffPage(PageId pid, NodeId to);

  /// Re-enters any in-flight handoffs on all up nodes (the live-node
  /// counterpart of the restart-time resolution). `resolved` (optional)
  /// returns how many ledger records were settled.
  Status ResolveHandoffs(std::size_t* resolved = nullptr);

  /// Current owner of `pid` per the shared directory (the home node unless
  /// the page was handed off).
  NodeId CurrentOwner(PageId pid) const { return directory_.OwnerOf(pid); }

  /// The cluster-shared ownership directory.
  OwnershipDirectory& directory() { return directory_; }

  /// True if `id` left the cluster through LeaveNode.
  bool IsDeparted(NodeId id) const { return departed_.count(id) != 0; }

  /// Installs (or clears, with nullptr) the per-phase handoff callback.
  /// Called as hook(pid, phase) after each completed handoff phase; the
  /// hook may CrashNode either endpoint to simulate dying at that boundary.
  void set_handoff_phase_hook(
      std::function<void(PageId, HandoffPhase)> hook) {
    handoff_phase_hook_ = std::move(hook);
  }

  // --- Transaction convenience -----------------------------------------

  /// Runs `body` as a transaction on `node_id` with automatic retry on
  /// Busy and abort-and-retry on deadlock (at most `max_attempts`). The
  /// body returning non-OK aborts the transaction and stops.
  ///
  /// Commit/abort are driven by the cluster through the handle; bodies
  /// should use the TxnHandle lifecycle API (`Commit()`, `Abort()`,
  /// `CommitRequest()`/`PollCommit()`) for any manual control. Reaching
  /// through the handle (`handle.node()->Commit(handle.id())`) is
  /// deprecated: it bypasses the handle's own lifecycle surface.
  Status RunTransaction(NodeId node_id,
                        const std::function<Status(TxnHandle&)>& body,
                        int max_attempts = 8);

  /// Registers a Busy result in the waits-for graph; returns true when the
  /// wait closes a cycle (caller must abort its transaction).
  bool NoteBusyAndCheckDeadlock(TxnId waiter,
                                const std::vector<TxnId>& blockers);

  /// Runs `fn` in `id`'s execution context: inline in simulation mode; in
  /// real-threads mode under the node's run token, on this thread when the
  /// node is idle, else by the token holder (blocking for completion). The
  /// escape hatch for tests/benchmarks that poke node state directly —
  /// direct Node method calls from foreign threads would race with the
  /// token holder. NodeDown if the node's context is stopped.
  Status Execute(NodeId id, const std::function<void()>& fn);

  // --- Infrastructure ----------------------------------------------------

  Network& network() { return network_; }
  Clock& clock() { return *clock_; }
  Executor& executor() { return *executor_; }
  ExecutionMode execution_mode() const { return options_.execution_mode; }
  DeadlockDetector& detector() { return detector_; }

  /// Sum of a metrics counter across all nodes.
  std::uint64_t SumCounter(const std::string& name);

 private:
  /// Fail-stops one node, real-threads aware: peers see it down, its
  /// execution context is stopped (worker joined, token holder waited
  /// for), then Crash() drops volatile state.
  /// No-op if already down.
  void HaltNode(Node* n);

  /// RunTransaction's retry loop; runs on the node's execution context.
  Status RunTransactionImpl(NodeId node_id,
                            const std::function<Status(TxnHandle&)>& body,
                            int max_attempts);

  /// Joins and discards every background restore sweeper thread.
  void JoinRestoreSweepers();

  ClusterOptions options_;
  std::unique_ptr<Clock> clock_;
  std::unique_ptr<Executor> executor_;
  Network network_;
  DeadlockDetector detector_;
  std::map<NodeId, std::unique_ptr<Node>> nodes_;
  NodeId next_id_ = 0;
  std::map<NodeId, RestartRecovery::Stats> recovery_stats_;
  std::function<void(NodeId, RecoveryPhase)> recovery_phase_hook_;
  std::function<void(PageId, HandoffPhase)> handoff_phase_hook_;
  /// Cluster-shared volatile ownership directory; every node routes
  /// OwnerOf through it. Ground truth is the per-node durable ledgers.
  OwnershipDirectory directory_;
  /// Nodes retired via LeaveNode. Permanent: excluded from NodeIds and
  /// refused by RestartNodes.
  std::set<NodeId> departed_;
  /// Real-threads mode: one background thread per restart that left a node
  /// with instant-restore work pending, draining the cold tail through the
  /// node's execution context. Sim mode drains inline instead (each
  /// successful RunTransaction sweeps a batch).
  std::vector<std::thread> restore_sweepers_;
};

/// Ergonomic wrapper binding (node, transaction id); used by examples and
/// the RunTransaction body callback.
class TxnHandle {
 public:
  TxnHandle(Node* node, TxnId id) : node_(node), id_(id) {}

  /// Begins a new transaction on `node` and wraps it in a handle — the
  /// usual way to obtain one outside RunTransaction.
  static Result<TxnHandle> Begin(Node* node) {
    CLOG_ASSIGN_OR_RETURN(TxnId id, node->Begin());
    return TxnHandle(node, id);
  }

  /// Begins a transaction with per-transaction options — most notably a
  /// LogStrategy override trumping the node's LoggingPolicy for this one
  /// transaction (adaptive logging, docs/PROTOCOLS.md).
  static Result<TxnHandle> Begin(Node& node, TxnOptions opts) {
    CLOG_ASSIGN_OR_RETURN(TxnId id, node.Begin(opts));
    return TxnHandle(&node, id);
  }

  TxnId id() const { return id_; }
  Node* node() { return node_; }

  // --- Lifecycle ---------------------------------------------------------

  /// Commits this transaction (forces the log per the node's LoggingMode;
  /// with group commit enabled, parks until a covering force completes).
  Status Commit() { return node_->Commit(id_); }

  /// Aborts this transaction, undoing all of its updates.
  Status Abort() { return node_->Abort(id_); }

  /// Group-commit split commit: appends the commit record and parks.
  /// Returns true if already durable (covered immediately), false if
  /// parked — drive with PollCommit() until it reports durable.
  Result<bool> CommitRequest() { return node_->CommitRequest(id_); }

  /// Polls a parked commit; forces the group when the coalescing window
  /// has expired. Returns true once the commit is durable.
  Result<bool> PollCommit() { return node_->PollCommit(id_); }

  // --- Data operations ---------------------------------------------------

  Result<RecordId> Insert(PageId pid, Slice payload) {
    return node_->Insert(id_, pid, payload);
  }
  Result<std::string> Read(RecordId rid) { return node_->Read(id_, rid); }
  Status Update(RecordId rid, Slice payload) {
    return node_->Update(id_, rid, payload);
  }
  Status Delete(RecordId rid) { return node_->Delete(id_, rid); }
  Result<std::vector<std::string>> ScanPage(PageId pid) {
    return node_->ScanPage(id_, pid);
  }
  Status SetSavepoint(const std::string& name) {
    return node_->SetSavepoint(id_, name);
  }
  Status RollbackToSavepoint(const std::string& name) {
    return node_->RollbackToSavepoint(id_, name);
  }

 private:
  Node* node_;
  TxnId id_;
};

}  // namespace clog

#endif  // CLOG_CORE_CLUSTER_H_
