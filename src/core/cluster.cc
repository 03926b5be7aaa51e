#include "core/cluster.h"

#include <sys/stat.h>

#include "trace/trace_sink.h"

namespace clog {
namespace {

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + path);
  }
  return Status::OK();
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      clock_(options_.execution_mode == ExecutionMode::kRealThreads
                 ? std::unique_ptr<Clock>(std::make_unique<WallClock>())
                 : std::unique_ptr<Clock>(std::make_unique<SimClock>())),
      executor_(options_.execution_mode == ExecutionMode::kRealThreads
                    ? std::unique_ptr<Executor>(
                          std::make_unique<ThreadPerNodeExecutor>())
                    : std::unique_ptr<Executor>(
                          std::make_unique<InlineExecutor>())),
      network_(clock_.get(), options_.cost) {
  network_.set_executor(executor_.get());
  network_.set_fault_injector(options_.fault_injector);
  network_.set_retry_policy(options_.retry_policy);
  if (options_.trace_sink != nullptr) {
    options_.trace_sink->BindClock(clock_.get());
    network_.set_trace_sink(options_.trace_sink);
  }
}

Cluster::~Cluster() {
  // Sweepers go first: they run through Execute, which needs live workers.
  JoinRestoreSweepers();
  // Join every node worker before nodes_ (and the network they message
  // through) start destructing.
  executor_->StopAll();
}

void Cluster::JoinRestoreSweepers() {
  for (std::thread& t : restore_sweepers_) {
    if (t.joinable()) t.join();
  }
  restore_sweepers_.clear();
}

Result<Node*> Cluster::AddNode(std::optional<NodeOptions> overrides) {
  NodeId id = next_id_++;
  NodeOptions opts = overrides.value_or(options_.node_defaults);
  opts.dir = options_.dir + "/node" + std::to_string(id);
  if (opts.fault_injector == nullptr) {
    opts.fault_injector = options_.fault_injector;
  }
  if (opts.trace_sink == nullptr) {
    opts.trace_sink = options_.trace_sink;
  }
  CLOG_RETURN_IF_ERROR(EnsureDir(options_.dir));
  CLOG_RETURN_IF_ERROR(EnsureDir(opts.dir));
  auto node = std::make_unique<Node>(id, opts, &network_, &detector_);
  // Before Start: restart-time handoff registration publishes adopted
  // pages into the shared directory.
  node->set_directory(&directory_);
  CLOG_RETURN_IF_ERROR(node->Start());
  executor_->StartNode(id);
  Node* raw = node.get();
  nodes_[id] = std::move(node);
  return raw;
}

Node* Cluster::node(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> Cluster::NodeIds() const {
  std::vector<NodeId> out;
  for (const auto& [id, _] : nodes_) {
    if (departed_.count(id) != 0) continue;
    out.push_back(id);
  }
  return out;
}

Status Cluster::CrashNode(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  if (n->state() == NodeState::kDown) {
    return Status::FailedPrecondition("node already down");
  }
  HaltNode(n);
  return Status::OK();
}

void Cluster::HaltNode(Node* n) {
  if (n->state() == NodeState::kDown) return;
  if (executor_->real_threads()) {
    // Peers must stop routing to the victim before its context stops:
    // StopNode waits for the in-flight task, and a peer that kept
    // enqueueing against a full mailbox would deadlock the wait.
    network_.SetNodeUp(n->id(), false);
    executor_->StopNode(n->id());
  }
  n->Crash();
}

Status Cluster::RestartNode(NodeId id) {
  return RestartNodes({id});
}

Status Cluster::RestartNodes(const std::vector<NodeId>& ids) {
  // Sweepers from an earlier round first: one may target a node in `ids`
  // (it exits on NodeDown), and unbounded accumulation helps nobody.
  JoinRestoreSweepers();
  recovery_stats_.clear();
  struct Entry {
    NodeId id = kInvalidNodeId;
    std::unique_ptr<RestartRecovery> rec;
    bool abandoned = false;
  };
  std::vector<Entry> entries;
  std::uint64_t t0 = clock_->NowNanos();
  for (NodeId id : ids) {
    Node* n = node(id);
    if (n == nullptr) return Status::NotFound("no such node");
    if (departed_.count(id) != 0) {
      return Status::FailedPrecondition("node departed the cluster");
    }
    if (n->state() != NodeState::kDown) {
      return Status::FailedPrecondition("node not crashed");
    }
    entries.push_back(Entry{id, std::make_unique<RestartRecovery>(n), false});
  }
  // Real mode: each restarting node needs a live execution context before
  // its recovery phases (and peer RPCs targeting it) can run.
  for (const Entry& e : entries) executor_->StartNode(e.id);

  // Losing any participant voids the whole round: Section 2.4 recovery is
  // only correct when every crashed node's analysis state (its DPT
  // supersets, its exclusive-lock claims, its log's redo runs) is visible
  // to the others, and a node that dies mid-round takes that state with
  // it — survivors that kept going would finish recovery with pages
  // silently missing the dead node's updates. So the first abandonment
  // fail-stops every entry that has not already gone operational; the
  // caller re-enters the full set in a later RestartNodes.
  auto abandon_round = [&]() {
    for (Entry& e : entries) {
      if (e.abandoned) continue;
      Node* n = node(e.id);
      if (n->state() == NodeState::kUp) continue;  // Finished before the loss.
      HaltNode(n);
      e.abandoned = true;
    }
  };

  // One phase across every node still in the round. Two ways a node drops
  // out mid-restart, both fail-stop (crash back to kDown, partial restart
  // discarded, a later RestartNodes re-enters from scratch):
  //  - the phase itself hit NodeDown — a peer its recovery depended on
  //    vanished mid-conversation;
  //  - the phase hook crashed the node at this boundary
  //    (crash-during-recovery torture).
  auto run_phase = [&](Status (RestartRecovery::*phase)(),
                       RecoveryPhase boundary) -> Status {
    for (Entry& e : entries) {
      if (e.abandoned) continue;
      Node* n = node(e.id);
      RestartRecovery* rec = e.rec.get();
      Status st;
      Status run = Execute(e.id, [rec, phase, &st] { st = ((*rec).*phase)(); });
      if (!run.ok()) st = run;
      if (st.IsNodeDown()) {
        HaltNode(n);
        e.abandoned = true;
        abandon_round();
        continue;
      }
      CLOG_RETURN_IF_ERROR(st);
      if (recovery_phase_hook_) recovery_phase_hook_(e.id, boundary);
      if (n->state() == NodeState::kDown) {
        e.abandoned = true;
        abandon_round();
      }
    }
    return Status::OK();
  };

  // Section 2.4 staging: every crashed node rebuilds its superset DPT by
  // local analysis before any node exchanges recovery state, then all
  // exchange, all redo, all undo and resume.
  CLOG_RETURN_IF_ERROR(
      run_phase(&RestartRecovery::OpenAndAnalyze, RecoveryPhase::kAnalyzed));
  CLOG_RETURN_IF_ERROR(run_phase(&RestartRecovery::ExchangePeerState,
                                 RecoveryPhase::kExchanged));
  CLOG_RETURN_IF_ERROR(
      run_phase(&RestartRecovery::RedoPages, RecoveryPhase::kRedone));
  CLOG_RETURN_IF_ERROR(run_phase(&RestartRecovery::UndoLosersAndFinish,
                                 RecoveryPhase::kFinished));

  // A node that abandoned mid-round is down again; its worker must not
  // outlive the round.
  for (Entry& e : entries) {
    if (e.abandoned && executor_->real_threads()) executor_->StopNode(e.id);
  }

  std::uint64_t elapsed = clock_->NowNanos() - t0;
  for (Entry& e : entries) {
    if (e.abandoned) continue;
    RestartRecovery::Stats stats = e.rec->stats();
    stats.sim_ns = elapsed;
    recovery_stats_[e.id] = stats;
  }

  // Real mode: a node that came up with instant-restore work pending gets a
  // dedicated sweeper draining the cold tail through its execution context,
  // concurrently with client traffic. (Sim mode sweeps inline per committed
  // RunTransaction instead — no extra thread, no schedule perturbation.)
  if (executor_->real_threads()) {
    for (const Entry& e : entries) {
      if (e.abandoned) continue;
      Node* n = node(e.id);
      if (n->RestorePendingCount() == 0) continue;
      NodeId id = e.id;
      restore_sweepers_.emplace_back([this, n, id] {
        for (;;) {
          std::size_t before = 0, after = 0;
          Status st = Execute(id, [&] {
            before = n->RestorePendingCount();
            after = n->SweepRestore();
          });
          // Stop when drained, the node went down, or a pass made no
          // progress (rebuild blocked on a down peer — an on-demand touch
          // or the next restart finishes the job).
          if (!st.ok() || after == 0 || after >= before) return;
        }
      });
    }
  }
  return Status::OK();
}

Status Cluster::DisconnectNode(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  if (n->state() != NodeState::kUp) {
    return Status::FailedPrecondition("node not up");
  }
  network_.SetNodeUp(id, false);
  return Status::OK();
}

Status Cluster::ReconnectNode(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  if (n->state() != NodeState::kUp) {
    return Status::FailedPrecondition("node not up (crashed nodes restart)");
  }
  network_.SetNodeUp(id, true);
  return Status::OK();
}

Status Cluster::ReplaceAndRestartNode(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return Status::NotFound("no such node");
  if (departed_.count(id) != 0) {
    return Status::FailedPrecondition("node departed the cluster");
  }
  if (it->second->state() != NodeState::kDown) {
    return Status::FailedPrecondition("node not crashed");
  }
  NodeOptions opts = it->second->options();
  // The old process is gone; the standby attaches to the same files.
  it->second = std::make_unique<Node>(id, opts, &network_, &detector_);
  it->second->set_directory(&directory_);
  return RestartNodes({id});
}

// ---------------------------------------------------------------------------
// Elastic membership (docs/PROTOCOLS.md, "Membership & ownership handoff")
// ---------------------------------------------------------------------------

Result<Node*> Cluster::JoinNode(std::optional<NodeOptions> overrides) {
  CLOG_ASSIGN_OR_RETURN(Node * n, AddNode(std::move(overrides)));
  directory_.BumpEpoch();
  return n;
}

Status Cluster::HandoffPage(PageId pid, NodeId to) {
  const NodeId from = directory_.OwnerOf(pid);
  if (from == to) return Status::OK();
  Node* src = node(from);
  Node* dst = node(to);
  if (src == nullptr || dst == nullptr) return Status::NotFound("no such node");
  if (departed_.count(from) != 0 || departed_.count(to) != 0) {
    return Status::FailedPrecondition("handoff endpoint departed");
  }

  // After every durable boundary the hook may crash either endpoint; the
  // ledgers carry the handoff from there (restart re-entry or a later
  // ResolveHandoffs), so a dead endpoint just ends this driver early.
  auto boundary = [&](HandoffPhase phase) -> Status {
    if (handoff_phase_hook_) handoff_phase_hook_(pid, phase);
    if (src->state() != NodeState::kUp) {
      return Status::NodeDown("handoff source crashed at boundary");
    }
    if (dst->state() != NodeState::kUp) {
      return Status::NodeDown("handoff target crashed at boundary");
    }
    return Status::OK();
  };
  auto run = [&]() -> Status {
    Status st;
    CLOG_RETURN_IF_ERROR(
        Execute(from, [&] { st = src->HandoffPrepare(pid, to); }));
    CLOG_RETURN_IF_ERROR(st);
    CLOG_RETURN_IF_ERROR(boundary(HandoffPhase::kPrepared));
    CLOG_RETURN_IF_ERROR(Execute(from, [&] { st = src->HandoffShip(pid); }));
    CLOG_RETURN_IF_ERROR(st);
    CLOG_RETURN_IF_ERROR(boundary(HandoffPhase::kShipped));
    CLOG_RETURN_IF_ERROR(
        Execute(from, [&] { st = src->HandoffTransfer(pid); }));
    CLOG_RETURN_IF_ERROR(st);
    CLOG_RETURN_IF_ERROR(boundary(HandoffPhase::kTransferred));
    CLOG_RETURN_IF_ERROR(
        Execute(from, [&] { st = src->HandoffComplete(pid); }));
    CLOG_RETURN_IF_ERROR(st);
    return boundary(HandoffPhase::kCompleted);
  };
  Status out = run();
  if (!out.ok() && src->state() == NodeState::kUp) {
    // Best effort: a live source should not stay fenced behind a doomed
    // handoff (a prepared record aborts; an in-doubt shipped one queries).
    Execute(from, [&] { src->ResolvePendingHandoffs(nullptr).ok(); }).ok();
  }
  return out;
}

Status Cluster::LeaveNode(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  if (departed_.count(id) != 0) {
    return Status::FailedPrecondition("node already departed");
  }
  if (n->state() != NodeState::kUp) {
    return Status::FailedPrecondition("node not up (crashed nodes cannot "
                                      "leave gracefully)");
  }
  std::vector<NodeId> recipients;
  for (auto& [nid, other] : nodes_) {
    if (nid == id || departed_.count(nid) != 0) continue;
    if (other->state() == NodeState::kUp) recipients.push_back(nid);
  }
  if (recipients.empty()) {
    return Status::FailedPrecondition("no live recipient to drain to");
  }
  std::vector<PageId> owned;
  CLOG_RETURN_IF_ERROR(Execute(id, [&] { owned = n->OwnedPages(); }));
  std::size_t rr = 0;
  for (PageId pid : owned) {
    // A failed drain handoff (Busy page, endpoint crash) aborts the leave;
    // pages already moved stay moved and the caller may retry later.
    CLOG_RETURN_IF_ERROR(HandoffPage(pid, recipients[rr++ % recipients.size()]));
  }
  // Owned pages are gone; now hand back every lock this node cached on
  // other owners' pages (forcing its remote dirt durable at the owners
  // first), so no global lock table remembers a node that will never
  // answer a callback again.
  Status depart;
  CLOG_RETURN_IF_ERROR(Execute(id, [&] { depart = n->PrepareDeparture(); }));
  CLOG_RETURN_IF_ERROR(depart);
  network_.SetNodeDeparted(id);
  HaltNode(n);
  departed_.insert(id);
  directory_.BumpEpoch();
  return Status::OK();
}

Status Cluster::ResolveHandoffs(std::size_t* resolved) {
  std::size_t total = 0;
  for (auto& [id, n] : nodes_) {
    if (departed_.count(id) != 0) continue;
    if (n->state() != NodeState::kUp) continue;
    Status st;
    std::size_t count = 0;
    CLOG_RETURN_IF_ERROR(
        Execute(id, [&] { st = n->ResolvePendingHandoffs(&count); }));
    CLOG_RETURN_IF_ERROR(st);
    total += count;
  }
  if (resolved != nullptr) *resolved = total;
  return Status::OK();
}

Status Cluster::RunTransaction(NodeId node_id,
                               const std::function<Status(TxnHandle&)>& body,
                               int max_attempts) {
  // The retry loop calls straight into Node, so in real-threads mode the
  // whole attempt sequence runs in the node's execution context: on this
  // thread when the node is idle, else queued for the thread that holds
  // the node's run token.
  Status out;
  CLOG_RETURN_IF_ERROR(Execute(
      node_id, [&] { out = RunTransactionImpl(node_id, body, max_attempts); }));
  return out;
}

Status Cluster::Execute(NodeId id, const std::function<void()>& fn) {
  if (!executor_->real_threads()) {
    fn();
    return Status::OK();
  }
  if (!executor_->Run(id, fn)) {
    return Status::NodeDown("node " + std::to_string(id) +
                            " execution context stopped");
  }
  return Status::OK();
}

Status Cluster::RunTransactionImpl(
    NodeId node_id, const std::function<Status(TxnHandle&)>& body,
    int max_attempts) {
  Node* n = node(node_id);
  if (n == nullptr) return Status::NotFound("no such node");
  Status last = Status::Busy("not attempted");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    CLOG_ASSIGN_OR_RETURN(TxnId txn, n->Begin());
    TxnHandle handle(n, txn);
    Status st = body(handle);
    if (st.ok()) {
      // A commit takes the transaction out of the deadlock detector itself.
      st = handle.Commit();
      if (st.ok()) {
        // Sim-mode instant restore: committed client work also advances
        // the background drain by one batch. No-op unless restoring.
        n->SweepRestore();
        return Status::OK();
      }
    }
    // Busy: register the wait; a cycle (or any terminal error) aborts.
    if (st.IsBusy()) {
      NoteBusyAndCheckDeadlock(txn, n->LastBlockers(txn));
    }
    detector_.RemoveTxn(txn);
    handle.Abort().ok();  // Best effort; the txn may be gone already.
    last = st;
    if (!st.IsBusy() && !st.IsDeadlock()) return st;
  }
  return last;
}

bool Cluster::NoteBusyAndCheckDeadlock(TxnId waiter,
                                       const std::vector<TxnId>& blockers) {
  detector_.AddWaits(waiter, blockers);
  if (detector_.CyclesThrough(waiter)) {
    detector_.ClearWaits(waiter);
    if (options_.trace_sink != nullptr) {
      options_.trace_sink->Emit(TxnNode(waiter), TraceEventType::kDeadlock,
                                waiter);
    }
    return true;
  }
  return false;
}

std::uint64_t Cluster::SumCounter(const std::string& name) {
  std::uint64_t total = 0;
  for (auto& [_, n] : nodes_) total += n->metrics().CounterValue(name);
  return total;
}

}  // namespace clog
