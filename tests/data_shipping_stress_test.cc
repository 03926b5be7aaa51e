#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/cluster.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// Real-mode data shipping under owner cache pressure (paper Sections 2.1
/// and 2.5): node 0 owns 128 pages through a 64-frame pool, and four client
/// nodes with 16 frames each update private 32-page slices from their own
/// threads. Every miss on a client replaces a dirty page that travels home,
/// and the owner keeps writing its own pages out and sending FlushNotify.
/// The owner's worker runs queued requests while it waits for a reply, so
/// a client's page can arrive at a frame the owner is in the middle of
/// evicting; an eviction that then erases the frame loses the newer image
/// and, with it, committed updates. The read-back against the model finds
/// any such loss. Label `execution`: CI repeats it, and
/// scripts/run_tsan_tests.sh runs it under ThreadSanitizer.

constexpr std::size_t kOwnerPages = 128;
constexpr std::size_t kOwnerFrames = 64;
constexpr std::size_t kClients = 4;
constexpr std::size_t kClientFrames = 16;
constexpr std::size_t kRecordsPerPage = 8;
constexpr std::size_t kPayloadBytes = 64;
constexpr int kUpdatesPerTxn = 4;
constexpr int kTxnsPerClient = 2500;

/// Every record and its last committed value. Each client writes only its
/// own slice, so each element has one writer and the model is exact.
struct Model {
  std::vector<RecordId> records;
  std::vector<std::string> values;
};

/// The cluster lives on the tmpfs at /dev/shm where there is one, so the
/// commits' fdatasyncs cost no device time.
std::string ScratchBase() {
  return std::filesystem::is_directory("/dev/shm")
             ? "/dev/shm"
             : std::filesystem::temp_directory_path().string();
}

/// Allocates the owner's pages and fills each with kRecordsPerPage records.
void Populate(Cluster* cluster, Random* rng, Model* m) {
  Node* owner = cluster->node(0);
  for (std::size_t p = 0; p < kOwnerPages; ++p) {
    Result<PageId> pid = Status::Busy("not run");
    ASSERT_OK(cluster->Execute(0, [&] { pid = owner->AllocatePage(); }));
    ASSERT_OK(pid.status());
    std::vector<std::string> payloads;
    for (std::size_t r = 0; r < kRecordsPerPage; ++r) {
      payloads.push_back(rng->Bytes(kPayloadBytes));
    }
    std::vector<RecordId> rids;
    ASSERT_OK(cluster->RunTransaction(0, [&](TxnHandle& txn) -> Status {
      rids.clear();
      for (const std::string& v : payloads) {
        CLOG_ASSIGN_OR_RETURN(RecordId rid, txn.Insert(*pid, v));
        rids.push_back(rid);
      }
      return Status::OK();
    }));
    for (std::size_t r = 0; r < rids.size(); ++r) {
      m->records.push_back(rids[r]);
      m->values.push_back(payloads[r]);
    }
  }
}

/// Client `k` (node k+1) runs kTxnsPerClient transactions of kUpdatesPerTxn
/// random updates on records [first, first + count) and applies every
/// committed one to the model. Busy outcomes (the owner's pool was full of
/// frames mid-eviction) retry.
Status RunClient(Cluster* cluster, std::size_t k, std::size_t first,
                 std::size_t count, Model* m) {
  const NodeId node = static_cast<NodeId>(k + 1);
  Random rng(0x5eed0000 + k);
  for (int t = 0; t < kTxnsPerClient; ++t) {
    std::size_t index[kUpdatesPerTxn];
    std::string payload[kUpdatesPerTxn];
    for (int u = 0; u < kUpdatesPerTxn; ++u) {
      index[u] = first + rng.Uniform(count);
      payload[u] = rng.Bytes(kPayloadBytes);
    }
    Status st;
    for (int round = 0; round < 100; ++round) {
      st = cluster->RunTransaction(node, [&](TxnHandle& txn) -> Status {
        for (int u = 0; u < kUpdatesPerTxn; ++u) {
          CLOG_RETURN_IF_ERROR(txn.Update(m->records[index[u]], payload[u]));
        }
        return Status::OK();
      });
      if (!st.IsBusy() && !st.IsDeadlock()) break;
    }
    CLOG_RETURN_IF_ERROR(st);
    for (int u = 0; u < kUpdatesPerTxn; ++u) {
      m->values[index[u]] = payload[u];
    }
  }
  return Status::OK();
}

TEST(DataShippingStressTest, OwnerUnderCachePressureLosesNoCommittedUpdate) {
  TempDir dir(ScratchBase());
  ClusterOptions options;
  options.dir = dir.path();
  options.execution_mode = ExecutionMode::kRealThreads;
  Cluster cluster(options);
  NodeOptions owner_options = options.node_defaults;
  owner_options.buffer_frames = kOwnerFrames;
  ASSERT_OK(cluster.AddNode(owner_options).status());
  NodeOptions client_options = options.node_defaults;
  client_options.buffer_frames = kClientFrames;
  for (std::size_t k = 0; k < kClients; ++k) {
    ASSERT_OK(cluster.AddNode(client_options).status());
  }
  Model m;
  Random rng(0xda7a);
  Populate(&cluster, &rng, &m);
  if (HasFatalFailure()) return;

  const std::size_t per = m.records.size() / kClients;
  std::vector<std::thread> clients;
  std::mutex mu;
  std::vector<Status> results;
  for (std::size_t k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k] {
      Status st = RunClient(&cluster, k, k * per, per, &m);
      std::lock_guard<std::mutex> lk(mu);
      results.push_back(st);
    });
  }
  for (std::thread& t : clients) t.join();
  for (const Status& st : results) ASSERT_OK(st);

  // Every client replaced dirty pages, so the shipping path really ran.
  for (std::size_t k = 0; k < kClients; ++k) {
    const NodeId node = static_cast<NodeId>(k + 1);
    std::uint64_t shipped = 0;
    ASSERT_OK(cluster.Execute(node, [&] {
      shipped = cluster.node(node)->metrics().CounterValue(
          "pages.shipped_on_replacement");
    }));
    EXPECT_GT(shipped, 0u) << "client node " << node;
  }

  // Read every record back through its owner, a page per transaction.
  std::size_t lost = 0;
  for (std::size_t i = 0; i < m.records.size(); i += kRecordsPerPage) {
    std::vector<std::string> got;
    ASSERT_OK(cluster.RunTransaction(0, [&](TxnHandle& txn) -> Status {
      got.clear();
      for (std::size_t r = i; r < i + kRecordsPerPage; ++r) {
        CLOG_ASSIGN_OR_RETURN(std::string v, txn.Read(m.records[r]));
        got.push_back(std::move(v));
      }
      return Status::OK();
    }));
    for (std::size_t r = 0; r < kRecordsPerPage; ++r) {
      if (got[r] != m.values[i + r]) {
        ++lost;
        ADD_FAILURE() << "record " << m.records[i + r].ToString()
                      << " lost its last committed value";
      }
    }
  }
  EXPECT_EQ(lost, 0u);
}

}  // namespace
}  // namespace clog
