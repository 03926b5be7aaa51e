#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

/// \file
/// Concurrency stress for the WAL append path: several producer threads
/// append to one log while a flusher forces the tail, all serialized by
/// the log mutex. Every test encodes
/// (producer, sequence) into each record so a reopen scan can prove the
/// three invariants exactly: no record lost, none duplicated, and each
/// producer's records in its append order. A scanner racing the appender
/// checks that block reads see an ordered prefix of what was written.
/// Run under -DCLOG_TSAN=ON by scripts/run_tsan_tests.sh (ctest -L wal).

namespace clog {
namespace {

using testing::TempDir;

/// One producer's record: txn encodes the producer, redo_image the
/// sequence number; psn_before carries it redundantly for cheap checks.
LogRecord MakeRecord(int producer, std::uint64_t seq) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn = static_cast<TxnId>(producer + 1);
  rec.page = PageId{0, static_cast<std::uint32_t>(producer)};
  rec.psn_before = seq;
  rec.op = RecordOp::kUpdate;
  rec.slot = 1;
  // Variable-length payloads exercise slot-string growth and ensure LSN
  // arithmetic survives non-uniform frames.
  rec.redo_image.assign(16 + (seq % 48), static_cast<char>('a' + producer));
  return rec;
}

/// Scans the reopened log and returns per-producer sequences in log order.
std::vector<std::vector<std::uint64_t>> ScanByProducer(LogManager* log,
                                                       int producers) {
  std::vector<std::vector<std::uint64_t>> seqs(producers);
  LogCursor cursor(log, LogManager::first_lsn());
  LogRecord rec;
  Lsn lsn = kNullLsn;
  Status scan;
  while (cursor.Next(&rec, &lsn, &scan)) {
    const int p = static_cast<int>(rec.txn) - 1;
    EXPECT_GE(p, 0);
    EXPECT_LT(p, producers);
    seqs[p].push_back(rec.psn_before);
  }
  EXPECT_TRUE(scan.ok()) << scan.ToString();
  return seqs;
}

TEST(WalStressTest, MultiProducerAppendFlushNoLossNoDupNoReorder) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 4000;
  TempDir dir;
  LogManager log;
  ASSERT_OK(log.Open(dir.path() + "/wal.log"));

  std::atomic<bool> stop_flusher{false};
  std::thread flusher([&] {
    // Group-commit shape: force the shared tail in a loop while producers
    // hammer the append path.
    while (!stop_flusher.load(std::memory_order_acquire)) {
      ASSERT_OK(log.Flush(log.end_lsn()));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t seq = 0; seq < kPerProducer; ++seq) {
        Lsn lsn = kNullLsn;
        ASSERT_OK(log.Append(MakeRecord(p, seq), &lsn));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop_flusher.store(true, std::memory_order_release);
  flusher.join();

  EXPECT_EQ(log.appended_records(), kProducers * kPerProducer);
  ASSERT_OK(log.Close());  // Forces everything.
  EXPECT_EQ(log.flushed_lsn(), log.end_lsn());

  LogManager reopened;
  ASSERT_OK(reopened.Open(dir.path() + "/wal.log"));
  std::vector<std::vector<std::uint64_t>> seqs =
      ScanByProducer(&reopened, kProducers);
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seqs[p].size(), kPerProducer) << "producer " << p;
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(seqs[p][i], i) << "producer " << p;  // Order, no dup, no gap.
    }
  }
  ASSERT_OK(reopened.Close());
}

TEST(WalStressTest, AbandonMidStreamLosesOnlyUnforcedSuffix) {
  constexpr int kProducers = 3;
  TempDir dir;
  LogManager log;
  ASSERT_OK(log.Open(dir.path() + "/wal.log"));

  // Producers append until the crash kicks them out; each counts its own
  // successful appends.
  std::vector<std::uint64_t> appended(kProducers, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t seq = 0;; ++seq) {
        Lsn lsn = kNullLsn;
        if (!log.Append(MakeRecord(p, seq), &lsn).ok()) break;
        appended[p] = seq + 1;
      }
    });
  }
  std::atomic<bool> stop_flusher{false};
  std::thread flusher([&] {
    while (!stop_flusher.load(std::memory_order_acquire)) {
      if (!log.Flush(log.end_lsn()).ok()) break;  // Closed under us: crash.
      std::this_thread::yield();
    }
  });

  // Let the storm run, sample the durable horizon, then crash mid-stream.
  while (log.flushed_lsn() < LogManager::first_lsn() + 64 * 1024) {
    std::this_thread::yield();
  }
  const Lsn safe = log.flushed_lsn();
  log.Abandon();
  for (std::thread& t : producers) t.join();
  stop_flusher.store(true, std::memory_order_release);
  flusher.join();

  LogManager reopened;
  ASSERT_OK(reopened.Open(dir.path() + "/wal.log"));
  // Nothing durable may be lost: recovery keeps at least the prefix that
  // Flush had acknowledged before the crash.
  EXPECT_GE(reopened.end_lsn(), safe);
  std::vector<std::vector<std::uint64_t>> seqs =
      ScanByProducer(&reopened, kProducers);
  for (int p = 0; p < kProducers; ++p) {
    // The surviving records are exactly a prefix of the producer's append
    // order: the crash lost only the unforced suffix, never a middle
    // record, a duplicate, or a reordering.
    ASSERT_LE(seqs[p].size(), appended[p]) << "producer " << p;
    for (std::uint64_t i = 0; i < seqs[p].size(); ++i) {
      ASSERT_EQ(seqs[p][i], i) << "producer " << p;
    }
  }
  ASSERT_OK(reopened.Close());
}

TEST(WalStressTest, CapacityIsExactUnderConcurrentAppends) {
  constexpr int kProducers = 4;
  TempDir dir;
  LogManager log;
  ASSERT_OK(log.Open(dir.path() + "/wal.log"));
  // Small bound so every producer slams into it; two racing appends must
  // never jointly overshoot.
  constexpr std::uint64_t kCapacity = 96 * 1024;
  log.set_capacity(kCapacity);

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t seq = 0;; ++seq) {
        Lsn lsn = kNullLsn;
        Status st = log.Append(MakeRecord(p, seq), &lsn);
        if (st.ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ASSERT_TRUE(st.IsLogFull()) << st.ToString();
        refused.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    });
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(refused.load(), kProducers) << "every producer must hit the wall";
  EXPECT_GT(accepted.load(), 0u);
  EXPECT_LE(log.LiveBytes(), kCapacity);  // Exact admission: never overshot.
  ASSERT_OK(log.Flush(log.end_lsn()));
  EXPECT_EQ(log.flushed_lsn(), log.end_lsn());

  // Unenforced appends (rollback reservation) still bypass the full log.
  Lsn lsn = kNullLsn;
  ASSERT_OK(log.Append(MakeRecord(0, 1u << 20), &lsn,
                       /*enforce_capacity=*/false));
  ASSERT_OK(log.Close());
}

TEST(WalStressTest, ScanWhileAppendSeesOrderedPrefix) {
  // One thread appends and flushes while another scans from the start
  // over and over. A scan's blocks come from the file or from the tail
  // buffer; whichever, every scan must return a prefix of the appended
  // records, in LSN order, each byte-identical to what was written.
  constexpr std::uint64_t kRecords = 20000;
  constexpr std::uint64_t kFlushEvery = 64;
  std::vector<std::string> bodies(kRecords);
  std::vector<Lsn> lsns(kRecords);
  Lsn at = LogManager::first_lsn();
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    MakeRecord(0, i).EncodeTo(&bodies[i]);
    lsns[i] = at;  // LSNs are frame offsets: 8-byte header + body.
    at += 8 + bodies[i].size();
  }

  TempDir dir;
  LogManager log;
  ASSERT_OK(log.Open(dir.path() + "/wal.log"));
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scans{0};
  std::thread appender([&] {
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      // Halfway, wait for one whole scan, so at least one scan surely
      // overlaps the appends however the threads are scheduled.
      while (i == kRecords / 2 &&
             scans.load(std::memory_order_acquire) == 0) {
        std::this_thread::yield();
      }
      Lsn lsn = kNullLsn;
      ASSERT_OK(log.Append(MakeRecord(0, i), &lsn));
      ASSERT_EQ(lsn, lsns[i]);
      if (i % kFlushEvery == kFlushEvery - 1) ASSERT_OK(log.Flush(lsn));
    }
    done.store(true, std::memory_order_release);
  });

  // Returns how many records the scan saw; checks each against the
  // precomputed writes.
  auto scan = [&] {
    LogCursor cursor(&log, LogManager::first_lsn());
    LogRecord rec;
    Lsn lsn = kNullLsn;
    Status st;
    std::uint64_t n = 0;
    std::string body;
    while (cursor.Next(&rec, &lsn, &st)) {
      if (n >= kRecords) {
        ADD_FAILURE() << "scan returned more records than were appended";
        break;
      }
      EXPECT_EQ(lsn, lsns[n]);
      body.clear();
      rec.EncodeTo(&body);
      EXPECT_EQ(body, bodies[n]) << "record " << n;
      ++n;
    }
    EXPECT_TRUE(st.ok()) << st.ToString();
    return n;
  };
  std::uint64_t partial = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (scan() < kRecords) ++partial;
    scans.fetch_add(1, std::memory_order_release);
    if (::testing::Test::HasFailure()) break;
  }
  appender.join();
  EXPECT_EQ(scan(), kRecords);
  EXPECT_GT(partial, 0u) << "no scan overlapped the appends";
  ASSERT_OK(log.Close());
}

TEST(WalStressTest, IsOpenIsLockFreeAndTracksLifecycle) {
  TempDir dir;
  LogManager log;
  EXPECT_FALSE(log.is_open());
  ASSERT_OK(log.Open(dir.path() + "/wal.log"));
  EXPECT_TRUE(log.is_open());

  // Observer thread polls is_open while a producer appends: no lock, no
  // race (TSan-checked), and the flag flips exactly at Abandon.
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!log.is_open()) break;
      std::this_thread::yield();
    }
  });
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    Lsn lsn = kNullLsn;
    ASSERT_OK(log.Append(MakeRecord(0, seq), &lsn));
  }
  log.Abandon();
  EXPECT_FALSE(log.is_open());
  stop.store(true, std::memory_order_release);
  observer.join();
}

}  // namespace
}  // namespace clog
