#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "core/cluster.h"
#include "net/executor.h"
#include "tests/test_util.h"

/// \file
/// The real-threads executor's run-token contract (net/executor.h): an idle
/// node's task runs on the calling thread, a busy node's task waits for the
/// token holder, StopNode waits for a client thread holding the token, and
/// a token holder's RPC that calls back into it completes. Labelled
/// `execution`, so scripts/run_tsan_tests.sh runs it under TSan.

namespace clog {
namespace {

using testing::TempDir;

/// One-shot gate: Wait blocks until Open.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Polls `pred` until it holds; fails the test after ten seconds.
void WaitUntil(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
    std::this_thread::yield();
  }
}

TEST(ExecutorTest, IdleNodeTaskRunsOnCallingThread) {
  ThreadPerNodeExecutor exec;
  exec.StartNode(0);
  std::thread::id ran_on;
  ASSERT_TRUE(exec.Run(0, [&] { ran_on = std::this_thread::get_id(); }));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  exec.StopAll();
}

TEST(ExecutorTest, BusyNodeTaskIsQueuedAndRunByTokenHolder) {
  ThreadPerNodeExecutor exec;
  exec.StartNode(0);
  Gate holding, release;
  std::thread::id holder_id, queued_ran_on;
  std::thread holder([&] {
    holder_id = std::this_thread::get_id();
    EXPECT_TRUE(exec.Run(0, [&] {
      holding.Open();
      release.Wait();
    }));
  });
  holding.Wait();
  std::thread client([&] {
    EXPECT_TRUE(
        exec.Run(0, [&] { queued_ran_on = std::this_thread::get_id(); }));
  });
  WaitUntil([&] { return exec.QueuedTasks(0) == 1; });
  release.Open();
  client.join();
  holder.join();
  // The holder ran the queued task before it let go of the token.
  EXPECT_EQ(queued_ran_on, holder_id);
  exec.StopAll();
}

TEST(ExecutorTest, StopNodeWaitsForClientTokenHolderThenRejectsQueue) {
  TempDir dir;
  ClusterOptions opts;
  opts.dir = dir.path();
  opts.execution_mode = ExecutionMode::kRealThreads;
  Cluster cluster(opts);
  const NodeId id = (*cluster.AddNode())->id();
  auto& exec = static_cast<ThreadPerNodeExecutor&>(cluster.executor());

  Gate holding, release;
  std::atomic<bool> holder_done{false};
  std::thread holder([&] {
    EXPECT_OK(cluster.Execute(id, [&] {
      holding.Open();
      release.Wait();
      holder_done.store(true);
    }));
  });
  holding.Wait();
  std::atomic<bool> queued_ran{false};
  Status queued_status;
  std::thread queued([&] {
    queued_status = cluster.Execute(id, [&] { queued_ran.store(true); });
  });
  WaitUntil([&] { return exec.QueuedTasks(id) == 1; });

  std::atomic<bool> crashed{false};
  std::thread crasher([&] {
    EXPECT_OK(cluster.CrashNode(id));
    // StopNode returned only after the client thread let go of the token.
    EXPECT_TRUE(holder_done.load());
    crashed.store(true);
  });
  // CrashNode marks the node down on the network just before it stops the
  // execution context; give it time to reach the wait for the holder.
  WaitUntil([&] { return !cluster.network().IsUp(id); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(crashed.load());
  release.Open();
  crasher.join();
  holder.join();
  queued.join();
  EXPECT_TRUE(queued_status.IsNodeDown()) << queued_status.ToString();
  EXPECT_FALSE(queued_ran.load());
}

TEST(ExecutorTest, TokenHolderRpcWithCallbackCompletes) {
  ThreadPerNodeExecutor exec;
  exec.StartNode(0);
  exec.StartNode(1);
  const std::thread::id client = std::this_thread::get_id();
  std::thread::id a_on, b_on, callback_on;
  // A client thread runs as node 0 (A), calls node 1 (B), whose handler
  // calls back into A while the client still holds A's token.
  ASSERT_TRUE(exec.Run(0, [&] {
    a_on = std::this_thread::get_id();
    EXPECT_TRUE(exec.Run(1, [&] {
      b_on = std::this_thread::get_id();
      EXPECT_TRUE(
          exec.Run(0, [&] { callback_on = std::this_thread::get_id(); }));
    }));
  }));
  EXPECT_EQ(a_on, client);
  // The node-to-node RPC went through B's mailbox to another thread.
  EXPECT_NE(b_on, client);
  // The callback ran on the thread holding A's token, in its reply wait.
  EXPECT_EQ(callback_on, client);
  exec.StopAll();
}

}  // namespace
}  // namespace clog
