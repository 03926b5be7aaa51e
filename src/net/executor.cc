#include "net/executor.h"

#include <vector>

namespace clog {
namespace {

/// The node whose run token this thread holds, if any, and the executor it
/// belongs to. Lets Run() tell token holders (RPC senders, self-sends)
/// from tokenless callers.
thread_local const ThreadPerNodeExecutor* t_owner = nullptr;
thread_local void* t_home = nullptr;

}  // namespace

ThreadPerNodeExecutor::~ThreadPerNodeExecutor() { StopAll(); }

ThreadPerNodeExecutor::Worker* ThreadPerNodeExecutor::FindWorker(NodeId id) {
  std::lock_guard<std::mutex> lk(registry_mu_);
  auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : it->second.get();
}

std::size_t ThreadPerNodeExecutor::QueuedTasks(NodeId id) {
  Worker* w = FindWorker(id);
  if (w == nullptr) return 0;
  std::lock_guard<std::mutex> lk(w->mu);
  return w->mailbox.size();
}

void ThreadPerNodeExecutor::StartNode(NodeId id) {
  Worker* w = nullptr;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    auto& slot = workers_[id];
    if (slot == nullptr) {
      slot = std::make_unique<Worker>();
      slot->id = id;
    }
    w = slot.get();
  }
  std::lock_guard<std::mutex> lk(w->mu);
  if (w->running) return;
  if (w->thread.joinable()) w->thread.join();  // Reap a stopped worker.
  w->running = true;
  w->stopping = false;
  w->thread = std::thread([this, w] { WorkerLoop(w); });
}

void ThreadPerNodeExecutor::StopNode(NodeId id) {
  Worker* w = FindWorker(id);
  if (w == nullptr) return;
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lk(w->mu);
    if (!w->running && !w->thread.joinable()) return;
    w->stopping = true;
    w->idle_cv.notify_all();
    w->not_full.notify_all();
    to_join = std::move(w->thread);
  }
  if (to_join.joinable()) to_join.join();
  // The worker is gone; a client thread may still hold the token. It
  // finishes its task and, seeing `stopping`, runs nothing queued. Then
  // reject everything nobody got to.
  std::deque<Call*> orphans;
  {
    std::unique_lock<std::mutex> lk(w->mu);
    w->idle_cv.wait(lk, [&] { return !w->held; });
    orphans.swap(w->mailbox);
    w->running = false;
  }
  for (Call* c : orphans) FinishCall(c, /*rejected=*/true);
}

void ThreadPerNodeExecutor::StopAll() {
  std::vector<NodeId> ids;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    for (const auto& [id, _] : workers_) ids.push_back(id);
  }
  for (NodeId id : ids) StopNode(id);
}

void ThreadPerNodeExecutor::Execute(Call* c) {
  (*c->fn)();
  FinishCall(c, /*rejected=*/false);
}

void ThreadPerNodeExecutor::FinishCall(Call* c, bool rejected) {
  // The waiter owns the Call (it lives on Run's stack) and may destroy it
  // the instant it observes the flag, so the flag must be set — and the
  // notify issued — under the mutex the waiter's predicate runs under.
  // The waiter can then only observe-and-destroy after this unlocks.
  std::atomic<bool>& flag = rejected ? c->rejected : c->done;
  if (Worker* home = c->home; home != nullptr) {
    std::lock_guard<std::mutex> lk(home->mu);
    flag.store(true);
    home->holder_cv.notify_all();
  } else {
    std::lock_guard<std::mutex> lk(c->mu);
    flag.store(true);
    c->cv.notify_all();
  }
}

void ThreadPerNodeExecutor::RunHolding(Worker* w, const Task* fn) {
  const ThreadPerNodeExecutor* prev_owner = t_owner;
  void* prev_home = t_home;
  t_owner = this;
  t_home = w;
  if (fn != nullptr) (*fn)();
  std::unique_lock<std::mutex> lk(w->mu);
  // Work queued while this thread held the token is its to run. A stopping
  // node runs nothing more: StopNode rejects the rest.
  while (!w->stopping && !w->mailbox.empty()) {
    Call* c = w->mailbox.front();
    w->mailbox.pop_front();
    w->not_full.notify_all();
    lk.unlock();
    Execute(c);
    lk.lock();
  }
  w->held = false;
  if (w->stopping) w->idle_cv.notify_all();  // StopNode waits for this.
  lk.unlock();
  t_owner = prev_owner;
  t_home = prev_home;
}

void ThreadPerNodeExecutor::WorkerLoop(Worker* w) {
  std::unique_lock<std::mutex> lk(w->mu);
  for (;;) {
    w->idle_cv.wait(lk, [&] {
      return w->stopping || (!w->held && !w->mailbox.empty());
    });
    if (w->stopping) return;
    w->held = true;
    lk.unlock();
    RunHolding(w, nullptr);
    lk.lock();
  }
}

bool ThreadPerNodeExecutor::Run(NodeId id, const Task& fn) {
  Worker* w = FindWorker(id);
  if (w == nullptr) return false;
  Worker* home = t_owner == this ? static_cast<Worker*>(t_home) : nullptr;
  if (home == w) {
    // Self-send: this thread already runs as the node, like the
    // simulation's one thread does.
    fn();
    return true;
  }

  Call call;
  call.fn = &fn;
  call.home = home;
  {
    std::unique_lock<std::mutex> lk(w->mu);
    if (w->stopping || !w->running) return false;
    if (home == nullptr && !w->held) {
      // Idle node, tokenless caller: run as the node on this thread, with
      // no hand-off to the worker and back.
      w->held = true;
      lk.unlock();
      RunHolding(w, &fn);
      return true;
    }
    w->not_full.wait(lk, [&] {
      return w->stopping || !w->running || w->mailbox.size() < kMailboxCapacity;
    });
    if (w->stopping || !w->running) return false;
    w->mailbox.push_back(&call);
    // A token holder runs it at its next reentrant wait or before letting
    // go of the token; with the token free, the worker does.
    if (w->held) {
      w->holder_cv.notify_all();
    } else {
      w->idle_cv.notify_all();
    }
  }

  if (home == nullptr) {
    // Tokenless caller of a busy node: plain blocking wait.
    std::unique_lock<std::mutex> lk(call.mu);
    call.cv.wait(lk, [&] { return call.done.load() || call.rejected.load(); });
  } else {
    // Token holder awaiting a reply: run the tasks queued for its own node
    // meanwhile, so a remote handler can call back into it (A -> B -> A)
    // without deadlock — the nested work runs on this thread, preserving
    // the simulation's synchronous recursion on real threads.
    std::unique_lock<std::mutex> lk(home->mu);
    for (;;) {
      home->holder_cv.wait(lk, [&] {
        return call.done.load() || call.rejected.load() ||
               !home->mailbox.empty();
      });
      if (call.done.load() || call.rejected.load()) break;
      Call* nested = home->mailbox.front();
      home->mailbox.pop_front();
      home->not_full.notify_all();
      lk.unlock();
      Execute(nested);
      lk.lock();
    }
  }
  return call.done.load();
}

}  // namespace clog
