#ifndef CLOG_NET_EXECUTOR_H_
#define CLOG_NET_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/types.h"

/// \file
/// The execution seam of the dual-mode engine (docs/architecture_modes.md).
/// Every piece of work that must run "on" a node — a client transaction
/// body, a peer RPC handler, a recovery phase — goes through
/// Executor::Run(node, fn). The simulation backend executes it inline on
/// the single driving thread, preserving the deterministic synchronous
/// call graph byte for byte. The real-threads backend gives each node a
/// run token, the right to run that node's code: node code runs only
/// under its node's token, on whichever thread holds it, so node state
/// stays confined exactly as the single-threaded Node code assumes while
/// different nodes genuinely run in parallel on real time and real fsync.
/// A client thread that finds its node idle runs the transaction itself;
/// node-to-node RPCs go through the target's mailbox and worker thread.

namespace clog {

/// Which backend a Cluster runs on (ClusterOptions::execution_mode).
enum class ExecutionMode : std::uint8_t {
  kSimulation = 0,   ///< Deterministic inline execution on a SimClock.
  kRealThreads = 1,  ///< Per-node run tokens and workers on a WallClock.
};

/// Strategy interface for where node work executes.
class Executor {
 public:
  using Task = std::function<void()>;

  virtual ~Executor() = default;

  /// True when nodes run on their own threads (real mode). Gates the bits
  /// of Cluster wiring that must not exist in simulation mode, where any
  /// extra call would perturb the deterministic schedule.
  virtual bool real_threads() const = 0;

  /// Brings up (or re-arms after StopNode) the execution context of `id`.
  virtual void StartNode(NodeId id) = 0;

  /// Tears down `id`'s execution context: no new work is admitted, the
  /// thread running the node's code finishes its current task, and
  /// anything still queued is rejected. Models killing the node's process.
  /// Idempotent. Must not be called from inside `id`'s own context.
  virtual void StopNode(NodeId id) = 0;

  /// StopNode for every known node (cluster shutdown).
  virtual void StopAll() = 0;

  /// Runs `fn` in `id`'s execution context and waits for it to finish.
  /// Returns false if the work was rejected because the node's context is
  /// stopped (the caller sees the node as down). `fn` may itself call Run
  /// against other nodes (RPCs) or the same node (self-sends).
  virtual bool Run(NodeId id, const Task& fn) = 0;
};

/// Simulation backend: work runs synchronously on the calling thread. The
/// Start/Stop lifecycle is a no-op — liveness is modeled by Node/Network
/// state, exactly as before the seam existed.
class InlineExecutor final : public Executor {
 public:
  bool real_threads() const override { return false; }
  void StartNode(NodeId id) override {}
  void StopNode(NodeId id) override {}
  void StopAll() override {}
  bool Run(NodeId id, const Task& fn) override {
    fn();
    return true;
  }
};

/// Real-threads backend. Each node has a run token, a bounded mailbox and
/// a worker thread; every token hand-off is a release/acquire on the
/// node's mutex, so whichever thread holds the token sees the node state
/// its previous holder left.
///
///  - A thread holding no token (a client session, a test driver,
///    RestartNodes, a restore sweeper) that calls Run on a node whose
///    token is free takes the token and runs `fn` inline, as that node.
///    A busy node's task is queued instead.
///  - A thread holding a token that calls Run on another node (a
///    node-to-node RPC) always queues the call. While it waits for the
///    reply it runs the tasks queued for its own node, so a call chain
///    A -> B -> A completes on the thread holding A's token, just as it
///    completes on the simulation's one thread. Self-sends run inline.
///  - The token holder runs its node's queued tasks before it lets go of
///    the token. The worker takes the token only to run queued work while
///    no other thread holds it, and sleeps on its own condition variable,
///    so replies addressed to a token holder's wait never wake it.
///
/// Senders block while a mailbox is full (backpressure) and until their
/// call completes (the RPC surface is synchronous request/reply).
class ThreadPerNodeExecutor final : public Executor {
 public:
  static constexpr std::size_t kMailboxCapacity = 1024;

  ~ThreadPerNodeExecutor() override;

  bool real_threads() const override { return true; }
  void StartNode(NodeId id) override;
  void StopNode(NodeId id) override;
  void StopAll() override;
  bool Run(NodeId id, const Task& fn) override;

  /// Tasks waiting in `id`'s mailbox (0 for an unknown node). For tests.
  std::size_t QueuedTasks(NodeId id);

 private:
  struct Worker;

  /// One queued Run() call. Lives on the sender's stack — Run blocks
  /// until `done` or `rejected`, so the pointer in the mailbox never
  /// dangles. Completion is signalled on the holder_cv of the node whose
  /// token the sender holds (its reentrant wait), else on `cv` here.
  struct Call {
    const Task* fn = nullptr;
    Worker* home = nullptr;  ///< Node whose token the sender holds, if any.
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> done{false};
    std::atomic<bool> rejected{false};
  };

  /// Per-node token, mailbox and worker thread. Created once per node id
  /// and never destroyed before the executor (stable addresses: in-flight
  /// calls hold `home` pointers across restarts of other nodes).
  struct Worker {
    NodeId id = kInvalidNodeId;
    std::mutex mu;
    /// Wakes the token holder's reentrant wait: a task was queued for the
    /// node, or a reply to the holder's own call arrived.
    std::condition_variable holder_cv;
    /// Wakes the idle worker (queued work with the token free, or stop)
    /// and StopNode (the token holder left).
    std::condition_variable idle_cv;
    std::condition_variable not_full;  ///< Mailbox backpressure.
    std::deque<Call*> mailbox;
    bool held = false;  ///< Some thread holds the run token.
    bool running = false;
    bool stopping = false;
    std::thread thread;
  };

  Worker* FindWorker(NodeId id);
  void WorkerLoop(Worker* w);
  /// Runs `fn` (if any) and then the queued tasks as `w`, whose token the
  /// caller has just taken, and releases the token.
  void RunHolding(Worker* w, const Task* fn);
  static void Execute(Call* c);
  static void FinishCall(Call* c, bool rejected);

  std::mutex registry_mu_;
  std::map<NodeId, std::unique_ptr<Worker>> workers_;
};

}  // namespace clog

#endif  // CLOG_NET_EXECUTOR_H_
