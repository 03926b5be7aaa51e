// Heap allocations of a steady-state local transaction. The binary
// replaces the global operator new to count them, so it runs on its own.
// Sim mode, zero cost model: a warmed node caches all 64 of its pages,
// their locks and their DPT entries, so what is left to allocate is the
// transaction's own bookkeeping.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "tests/test_util.h"

namespace {

bool counting = false;
std::size_t allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (counting) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: GCC would otherwise see a new-expression's memory reach
// free() and warn of a mismatched pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace clog {
namespace {

using testing::TempDir;

constexpr std::size_t kPages = 64;

class AllocTest : public ::testing::Test {
 protected:
  AllocTest() : payload_(64, 'p') {
    ClusterOptions opts;
    opts.dir = dir_.path();
    opts.cost = CostModel{0, 0, 0, 0, 0, 0, 0};
    cluster_ = std::make_unique<Cluster>(opts);
    node_ = *cluster_->AddNode();
    for (std::size_t i = 0; i < kPages; ++i) {
      PageId pid = *node_->AllocatePage();
      TxnId txn = *node_->Begin();
      rids_.push_back(*node_->Insert(txn, pid, payload_));
      EXPECT_OK(node_->Commit(txn));
    }
  }

  /// Allocations of one transaction updating one record on each of the
  /// first `updates` pages, run after the same transaction warmed the node.
  std::size_t CountTxn(int updates) {
    auto body = [&](TxnHandle& txn) -> Status {
      for (int u = 0; u < updates; ++u) {
        CLOG_RETURN_IF_ERROR(txn.Update(rids_[u], payload_));
      }
      return Status::OK();
    };
    for (int warm = 0; warm < 3; ++warm) {
      EXPECT_OK(cluster_->RunTransaction(node_->id(), body));
    }
    allocations = 0;
    counting = true;
    Status st = cluster_->RunTransaction(node_->id(), body);
    counting = false;
    EXPECT_OK(st);
    return allocations;
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* node_ = nullptr;
  std::vector<RecordId> rids_;
  std::string payload_;
};

TEST_F(AllocTest, FourUpdateLocalTransactionAllocatesAtMostEightTimes) {
  EXPECT_LE(CountTxn(4), 8u);
}

TEST_F(AllocTest, UpdatesAllocateNothingPerUpdate) {
  // Twelve more updates may only grow the transaction's page vectors.
  const std::size_t four = CountTxn(4);
  const std::size_t sixteen = CountTxn(16);
  EXPECT_LE(sixteen, four + 6) << "4 updates: " << four
                               << ", 16 updates: " << sixteen;
}

}  // namespace
}  // namespace clog
