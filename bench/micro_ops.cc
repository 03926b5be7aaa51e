// Microbenchmarks (google-benchmark): real wall-clock cost of the hot
// primitives under everything else — record operations, log append,
// CRC32C, codec, slotted-page ops, buffer pool lookups. These are the
// constants behind the simulated-cost experiments.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "core/cluster.h"
#include "storage/slotted_page.h"
#include "wal/log_manager.h"

namespace clog {
namespace {

/// Directory `name` on the tmpfs at /dev/shm where there is one, so a
/// cluster's commit fdatasync costs no device time and the cluster benches
/// time the engine's CPU path.
std::string ClusterDir(const std::string& name) {
  return (std::filesystem::is_directory("/dev/shm") ? "/dev/shm/" : "/tmp/") +
         name;
}

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 166 B is one update frame of the WAL; 8,184 B is the page checksum span.
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(166)->Arg(4096)->Arg(8184)->Arg(65536);

// The slice-by-8 software path, pinned regardless of what the runtime
// dispatcher picked — the denominator of the hardware-CRC speedup.
void BM_Crc32cPortable(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::ValuePortable(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Arg(64)->Arg(4096)->Arg(65536);

void BM_VarintRoundTrip(benchmark::State& state) {
  Random rng(1);
  std::vector<std::uint64_t> values(1024);
  for (auto& v : values) v = rng.Next() >> rng.Uniform(64);
  for (auto _ : state) {
    std::string buf;
    Encoder enc(&buf);
    for (std::uint64_t v : values) enc.PutVarint64(v);
    Decoder dec(buf);
    std::uint64_t out;
    for (std::size_t i = 0; i < values.size(); ++i) {
      dec.GetVarint64(&out).ok();
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_VarintRoundTrip);

void BM_LogRecordEncodeDecode(benchmark::State& state) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn = MakeTxnId(1, 42);
  rec.page = PageId{0, 7};
  rec.psn_before = 1234;
  rec.redo_image = std::string(static_cast<std::size_t>(state.range(0)), 'r');
  rec.undo_image = std::string(static_cast<std::size_t>(state.range(0)), 'u');
  for (auto _ : state) {
    std::string body;
    rec.EncodeTo(&body);
    LogRecord out;
    LogRecord::DecodeFrom(body, &out).ok();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LogRecordEncodeDecode)->Arg(32)->Arg(256);

void BM_SlottedPageInsertDelete(benchmark::State& state) {
  Page page;
  page.Format(PageId{0, 0}, PageType::kData, 0);
  SlottedPage sp(&page);
  sp.InitBody();
  std::string payload(100, 'p');
  for (auto _ : state) {
    Result<SlotId> slot = sp.Insert(payload);
    if (slot.ok()) {
      sp.Delete(*slot).ok();
    } else {
      state.SkipWithError("page full");
      break;
    }
  }
}
BENCHMARK(BM_SlottedPageInsertDelete);

void BM_LogAppend(benchmark::State& state) {
  std::string dir = "/tmp/clog_micro_log";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  LogManager log;
  if (!log.Open(dir + "/log").ok()) {
    state.SkipWithError("open failed");
    return;
  }
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.page = PageId{0, 1};
  rec.redo_image = std::string(static_cast<std::size_t>(state.range(0)), 'r');
  Lsn lsn;
  for (auto _ : state) {
    log.Append(rec, &lsn).ok();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(log.appended_bytes()));
  std::system(("rm -rf " + dir).c_str());
}
BENCHMARK(BM_LogAppend)->Arg(64)->Arg(512);

void BM_LogAppendWithForce(benchmark::State& state) {
  std::string dir = "/tmp/clog_micro_force";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  LogManager log;
  if (!log.Open(dir + "/log").ok()) {
    state.SkipWithError("open failed");
    return;
  }
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  Lsn lsn;
  for (auto _ : state) {
    log.Append(rec, &lsn).ok();
    log.Flush(lsn).ok();  // Real fdatasync per iteration.
  }
  std::system(("rm -rf " + dir).c_str());
}
BENCHMARK(BM_LogAppendWithForce)->Iterations(200);

void BM_SingleNodeCommittedTxn(benchmark::State& state) {
  std::string dir = ClusterDir("clog_micro_txn");
  std::system(("rm -rf " + dir).c_str());
  ClusterOptions options;
  options.dir = dir;
  // Zero simulated costs: measure the engine's real CPU + IO path.
  options.cost = CostModel{0, 0, 0, 0, 0, 0, 0};
  Cluster cluster(options);
  Node* node = *cluster.AddNode();
  PageId pid = *node->AllocatePage();
  Random rng(9);
  RecordId rid{pid, 0};
  {
    TxnId seed = *node->Begin();
    rid = *node->Insert(seed, pid, rng.Bytes(64));
    node->Commit(seed).ok();
  }
  for (auto _ : state) {
    TxnId txn = *node->Begin();
    node->Update(txn, rid, rng.Bytes(64)).ok();
    if (!node->Commit(txn).ok()) {
      state.SkipWithError("commit failed");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  std::system(("rm -rf " + dir).c_str());
}
BENCHMARK(BM_SingleNodeCommittedTxn)->Iterations(500);

// A local commit against the number of pages its node caches (paper
// Sections 2.1 and 4): 4-update transactions on random records of N own
// pages, every page cached, locked and in the DPT. The bookkeeping at
// commit visits only what the transaction touched, so N should not show.
void BM_LocalCommitCachedPages(benchmark::State& state) {
  const auto pages = static_cast<std::size_t>(state.range(0));
  std::string dir = ClusterDir("clog_micro_cached_pages");
  std::system(("rm -rf " + dir).c_str());
  ClusterOptions options;
  options.dir = dir;
  options.cost = CostModel{0, 0, 0, 0, 0, 0, 0};
  options.node_defaults.buffer_frames = pages;
  Cluster cluster(options);
  Node* node = *cluster.AddNode();
  const std::string payloads[2] = {std::string(64, 'a'),
                                   std::string(64, 'b')};
  std::vector<RecordId> rids;
  for (std::size_t i = 0; i < pages; ++i) {
    PageId pid = *node->AllocatePage();
    TxnId seed = *node->Begin();
    rids.push_back(*node->Insert(seed, pid, payloads[0]));
    node->Commit(seed).ok();
  }
  Random rng(9);
  std::size_t n = 0;
  for (auto _ : state) {
    TxnId txn = *node->Begin();
    for (int u = 0; u < 4; ++u) {
      node->Update(txn, rids[rng.Uniform(pages)], payloads[++n % 2]).ok();
    }
    if (!node->Commit(txn).ok()) {
      state.SkipWithError("commit failed");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  std::system(("rm -rf " + dir).c_str());
}
BENCHMARK(BM_LocalCommitCachedPages)->Arg(64)->Arg(4096)->Iterations(5000);

void BM_RemotePageCachedUpdate(benchmark::State& state) {
  std::string dir = ClusterDir("clog_micro_remote");
  std::system(("rm -rf " + dir).c_str());
  ClusterOptions options;
  options.dir = dir;
  options.cost = CostModel{0, 0, 0, 0, 0, 0, 0};
  Cluster cluster(options);
  Node* server = *cluster.AddNode();
  Node* client = *cluster.AddNode();
  PageId pid = *server->AllocatePage();
  Random rng(9);
  RecordId rid{pid, 0};
  {
    TxnId seed = *client->Begin();
    rid = *client->Insert(seed, pid, rng.Bytes(64));
    client->Commit(seed).ok();
  }
  for (auto _ : state) {
    TxnId txn = *client->Begin();
    client->Update(txn, rid, rng.Bytes(64)).ok();
    if (!client->Commit(txn).ok()) {
      state.SkipWithError("commit failed");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  std::system(("rm -rf " + dir).c_str());
}
BENCHMARK(BM_RemotePageCachedUpdate)->Iterations(500);

// Data shipping on a cache miss (paper Section 2.1): the client's pool has
// two frames and it updates three server pages in rotation, so every
// transaction fetches one page with its lock grant, and its dirty LRU
// victim rides that request home. Zero simulated costs and a tmpfs
// cluster: what is left is the engine's CPU path for the two page
// transfers.
void BM_RemotePageMissUpdate(benchmark::State& state) {
  std::string dir = ClusterDir("clog_micro_remote_miss");
  std::system(("rm -rf " + dir).c_str());
  ClusterOptions options;
  options.dir = dir;
  options.cost = CostModel{0, 0, 0, 0, 0, 0, 0};
  Cluster cluster(options);
  Node* server = *cluster.AddNode();
  NodeOptions client_options = options.node_defaults;
  client_options.buffer_frames = 2;
  Node* client = *cluster.AddNode(client_options);
  Random rng(9);
  std::vector<RecordId> rids;
  for (int i = 0; i < 3; ++i) {
    PageId pid = *server->AllocatePage();
    TxnId seed = *client->Begin();
    rids.push_back(*client->Insert(seed, pid, rng.Bytes(64)));
    client->Commit(seed).ok();
  }
  std::size_t next = 0;
  for (auto _ : state) {
    TxnId txn = *client->Begin();
    client->Update(txn, rids[next], rng.Bytes(64)).ok();
    if (!client->Commit(txn).ok()) {
      state.SkipWithError("commit failed");
      break;
    }
    next = (next + 1) % rids.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["ships_per_txn"] = benchmark::Counter(
      static_cast<double>(
          client->metrics().CounterValue("pages.shipped_on_replacement")) /
      static_cast<double>(state.iterations() + 3));
  std::system(("rm -rf " + dir).c_str());
}
BENCHMARK(BM_RemotePageMissUpdate)->Iterations(20000);

}  // namespace
}  // namespace clog

BENCHMARK_MAIN();
