#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/crc32c.h"
#include "fault/fault_injector.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace clog {
namespace {

using testing::TempDir;

LogRecord MakeUpdate(TxnId txn, PageId page, Psn psn_before, Lsn prev,
                     const std::string& redo, const std::string& undo) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn = txn;
  rec.prev_lsn = prev;
  rec.page = page;
  rec.psn_before = psn_before;
  rec.op = RecordOp::kUpdate;
  rec.slot = 2;
  rec.redo_image = redo;
  rec.undo_image = undo;
  return rec;
}

TEST(LogRecordTest, UpdateEncodeDecodeRoundTrip) {
  LogRecord rec = MakeUpdate(MakeTxnId(1, 7), PageId{2, 5}, 42, 1000, "new",
                             "old");
  std::string body;
  rec.EncodeTo(&body);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.type, LogRecordType::kUpdate);
  EXPECT_EQ(out.txn, rec.txn);
  EXPECT_EQ(out.prev_lsn, 1000u);
  EXPECT_EQ(out.page, (PageId{2, 5}));
  EXPECT_EQ(out.psn_before, 42u);
  EXPECT_EQ(out.op, RecordOp::kUpdate);
  EXPECT_EQ(out.slot, 2);
  EXPECT_EQ(out.redo_image, "new");
  EXPECT_EQ(out.undo_image, "old");
}

TEST(LogRecordTest, ClrCarriesUndoNext) {
  LogRecord rec;
  rec.type = LogRecordType::kClr;
  rec.txn = MakeTxnId(0, 1);
  rec.page = PageId{0, 1};
  rec.psn_before = 9;
  rec.op = RecordOp::kDelete;
  rec.slot = 4;
  rec.undo_next_lsn = 777;
  std::string body;
  rec.EncodeTo(&body);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.type, LogRecordType::kClr);
  EXPECT_EQ(out.undo_next_lsn, 777u);
}

TEST(LogRecordTest, CheckpointCarriesDptAndAtt) {
  LogRecord rec;
  rec.type = LogRecordType::kCheckpointEnd;
  rec.checkpoint_begin_lsn = 128;
  rec.dpt = {DptEntry{PageId{1, 2}, 3, 9, 500},
             DptEntry{PageId{0, 7}, 1, 1, 900}};
  rec.att = {AttEntry{MakeTxnId(1, 3), 450}};
  std::string body;
  rec.EncodeTo(&body);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.checkpoint_begin_lsn, 128u);
  ASSERT_EQ(out.dpt.size(), 2u);
  EXPECT_EQ(out.dpt[0], rec.dpt[0]);
  EXPECT_EQ(out.dpt[1], rec.dpt[1]);
  ASSERT_EQ(out.att.size(), 1u);
  EXPECT_EQ(out.att[0], rec.att[0]);
}

TEST(LogRecordTest, SavepointName) {
  LogRecord rec;
  rec.type = LogRecordType::kSavepoint;
  rec.txn = 1;
  rec.savepoint_name = "sp1";
  std::string body;
  rec.EncodeTo(&body);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.savepoint_name, "sp1");
}

TEST(LogRecordTest, GarbageIsCorruption) {
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodeFrom(Slice("\xFFgarbage", 8), &out)
                  .IsCorruption());
  EXPECT_TRUE(LogRecord::DecodeFrom(Slice("", 0), &out).IsCorruption());
}

class LogManagerTest : public ::testing::Test {
 protected:
  TempDir dir_;
};

TEST_F(LogManagerTest, AppendAssignsIncreasingLsns) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "a", "b");
  Lsn l1, l2;
  ASSERT_OK(log.Append(rec, &l1));
  ASSERT_OK(log.Append(rec, &l2));
  EXPECT_EQ(l1, LogManager::first_lsn());
  EXPECT_GT(l2, l1);
  EXPECT_EQ(log.appended_records(), 2u);
}

TEST_F(LogManagerTest, ReadBackUnflushedAndFlushed) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord rec = MakeUpdate(1, PageId{0, 0}, 3, kNullLsn, "abc", "xyz");
  Lsn lsn;
  ASSERT_OK(log.Append(rec, &lsn));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(lsn, &got));  // From the append buffer.
  EXPECT_EQ(got.redo_image, "abc");
  ASSERT_OK(log.Flush(lsn));
  ASSERT_OK(log.ReadRecord(lsn, &got));  // From disk.
  EXPECT_EQ(got.undo_image, "xyz");
  EXPECT_EQ(log.forces(), 1u);
}

TEST_F(LogManagerTest, FlushIsIdempotentAndOrdered) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "a", "");
  Lsn lsn;
  ASSERT_OK(log.Append(rec, &lsn));
  ASSERT_OK(log.Flush(lsn));
  std::uint64_t forces = log.forces();
  ASSERT_OK(log.Flush(lsn));  // Already durable: no new force.
  EXPECT_EQ(log.forces(), forces);
  EXPECT_GE(log.flushed_lsn(), lsn);
}

TEST_F(LogManagerTest, SurvivesReopen) {
  Lsn lsn;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    LogRecord rec = MakeUpdate(5, PageId{1, 1}, 7, kNullLsn, "persist", "");
    ASSERT_OK(log.Append(rec, &lsn));
    ASSERT_OK(log.Flush(lsn));
    ASSERT_OK(log.Close());
  }
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(lsn, &got));
  EXPECT_EQ(got.redo_image, "persist");
  EXPECT_GT(log.end_lsn(), lsn);
}

TEST_F(LogManagerTest, AbandonLosesUnflushedTail) {
  Lsn durable, volatile_lsn;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "keep", "");
    ASSERT_OK(log.Append(rec, &durable));
    ASSERT_OK(log.Flush(durable));
    rec.redo_image = "lose";
    ASSERT_OK(log.Append(rec, &volatile_lsn));
    log.Abandon();  // Crash: tail never forced.
  }
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(durable, &got));
  EXPECT_EQ(got.redo_image, "keep");
  EXPECT_TRUE(log.ReadRecord(volatile_lsn, &got).IsNotFound());
  EXPECT_EQ(log.end_lsn(), volatile_lsn);  // Appends continue here.
}

TEST_F(LogManagerTest, TornTailTruncatedOnReopen) {
  Lsn lsn;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "whole", "");
    ASSERT_OK(log.Append(rec, &lsn));
    ASSERT_OK(log.Flush(lsn));
    ASSERT_OK(log.Close());
  }
  // Simulate a torn write: append garbage that looks like a frame header.
  {
    FILE* f = std::fopen((dir_.path() + "/log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::uint32_t len = 100, crc = 0;
    std::fwrite(&len, 4, 1, f);
    std::fwrite(&crc, 4, 1, f);
    std::fwrite("short", 5, 1, f);  // Body shorter than advertised.
    std::fclose(f);
  }
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(lsn, &got));
  EXPECT_EQ(got.redo_image, "whole");
}

TEST_F(LogManagerTest, BoundedCapacityAndReclaim) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  log.set_capacity(1024);
  LogRecord rec =
      MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, std::string(100, 'r'), "");
  Lsn lsn = kNullLsn;
  Status st;
  int appended = 0;
  while ((st = log.Append(rec, &lsn)).ok()) ++appended;
  EXPECT_TRUE(st.IsLogFull());
  EXPECT_GT(appended, 0);
  EXPECT_LE(log.LiveBytes(), 1024u);
  // Reclaiming space re-enables appends.
  log.SetReclaimableLsn(log.end_lsn());
  EXPECT_EQ(log.LiveBytes(), 0u);
  ASSERT_OK(log.Append(rec, &lsn));
}

TEST_F(LogManagerTest, ReopenAfterCrashWithTornFinalRecord) {
  // An injected crash tears the buffered tail mid-record: the durable
  // prefix must survive reopen, the torn record must vanish, and the log
  // must accept appends again.
  FaultConfig cfg;
  cfg.torn_tail_p = 1.0;
  cfg.torn_tail_corrupt_p = 1.0;
  FaultInjector fault(/*seed=*/7, cfg);
  Lsn durable, torn;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    log.set_fault_injector(&fault, /*node=*/0);
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "keep", "");
    ASSERT_OK(log.Append(rec, &durable));
    ASSERT_OK(log.Flush(durable));
    rec.redo_image = "torn-away";
    ASSERT_OK(log.Append(rec, &torn));
    log.Abandon();  // Crash: a garbled prefix of the tail hits the file.
  }
  EXPECT_GT(fault.counters().torn_tails, 0u);
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(durable, &got));
  EXPECT_EQ(got.redo_image, "keep");
  EXPECT_TRUE(log.ReadRecord(torn, &got).IsNotFound());
  Lsn after = kNullLsn;
  ASSERT_OK(log.Append(MakeUpdate(2, PageId{0, 0}, 1, kNullLsn, "next", ""),
                       &after));
  ASSERT_OK(log.Flush(after));
  ASSERT_OK(log.ReadRecord(after, &got));
  EXPECT_EQ(got.redo_image, "next");
}

TEST_F(LogManagerTest, AbandonWithEmptyBufferedTailIsCleanCrash) {
  // When everything was flushed before the crash, Abandon has no tail to
  // tear — even with tearing forced on — and reopen sees the full log.
  FaultConfig cfg;
  cfg.torn_tail_p = 1.0;
  FaultInjector fault(/*seed=*/9, cfg);
  Lsn l1, l2;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    log.set_fault_injector(&fault, /*node=*/0);
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "one", "");
    ASSERT_OK(log.Append(rec, &l1));
    rec.redo_image = "two";
    ASSERT_OK(log.Append(rec, &l2));
    ASSERT_OK(log.Flush(l2));
    log.Abandon();
  }
  EXPECT_EQ(fault.counters().torn_tails, 0u);
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(l1, &got));
  EXPECT_EQ(got.redo_image, "one");
  ASSERT_OK(log.ReadRecord(l2, &got));
  EXPECT_EQ(got.redo_image, "two");
  EXPECT_GT(log.end_lsn(), l2);
}

TEST_F(LogManagerTest, FailedForceKeepsTailForRetry) {
  // A failed force leaves the log as it was: the records stay in the tail
  // (readable, not durable), and the retry writes them at the same offset,
  // so a reopen finds each exactly once.
  FaultInjector fault(/*seed=*/11);
  Lsn l1, l2;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    log.set_fault_injector(&fault, /*node=*/0);
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "one", "");
    ASSERT_OK(log.Append(rec, &l1));
    rec.redo_image = "two";
    ASSERT_OK(log.Append(rec, &l2));
    const Lsn flushed = log.flushed_lsn();
    fault.ArmIoFault(/*node=*/0, IoFault::kFailLogSync);
    EXPECT_TRUE(log.Flush(l2).IsIOError());
    EXPECT_EQ(log.flushed_lsn(), flushed);
    EXPECT_EQ(log.forces(), 0u);
    LogRecord got;
    ASSERT_OK(log.ReadRecord(l2, &got));
    EXPECT_EQ(got.redo_image, "two");
    ASSERT_OK(log.Flush(l2));
    EXPECT_GT(log.flushed_lsn(), l2);
    EXPECT_EQ(log.forces(), 1u);
    log.Abandon();
  }
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogCursor cursor(&log, LogManager::first_lsn());
  LogRecord rec;
  Lsn at = kNullLsn;
  std::vector<std::pair<Lsn, std::string>> seen;
  Status st;
  while (cursor.Next(&rec, &at, &st)) seen.emplace_back(at, rec.redo_image);
  ASSERT_OK(st);
  const std::vector<std::pair<Lsn, std::string>> want = {{l1, "one"},
                                                         {l2, "two"}};
  EXPECT_EQ(seen, want);
}

TEST_F(LogManagerTest, UnenforcedAppendBypassesFullLog) {
  // Rollback CLRs must always be appendable: a full log rejects normal
  // appends but admits enforce_capacity=false ones.
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  log.set_capacity(1024);
  LogRecord rec =
      MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, std::string(100, 'x'), "");
  Lsn lsn = kNullLsn;
  Status st;
  while ((st = log.Append(rec, &lsn)).ok()) {
  }
  ASSERT_TRUE(st.IsLogFull());
  LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.txn = 1;
  clr.page = PageId{0, 0};
  clr.op = RecordOp::kUpdate;
  clr.redo_image = std::string(100, 'u');
  Lsn clr_lsn = kNullLsn;
  ASSERT_OK(log.Append(clr, &clr_lsn, /*enforce_capacity=*/false));
  EXPECT_GT(clr_lsn, lsn);
  LogRecord got;
  ASSERT_OK(log.ReadRecord(clr_lsn, &got));
  EXPECT_EQ(got.type, LogRecordType::kClr);
  // Normal appends are still refused until space is reclaimed.
  EXPECT_TRUE(log.Append(rec, &lsn).IsLogFull());
  log.SetReclaimableLsn(log.end_lsn());
  ASSERT_OK(log.Append(rec, &lsn));
}

TEST_F(LogManagerTest, MasterPointerRoundTrip) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  ASSERT_OK_AND_ASSIGN(Lsn none, log.LoadMaster());
  EXPECT_EQ(none, kNullLsn);
  ASSERT_OK(log.StoreMaster(4242));
  ASSERT_OK_AND_ASSIGN(Lsn got, log.LoadMaster());
  EXPECT_EQ(got, 4242u);
  ASSERT_OK(log.StoreMaster(9000));  // Overwrite atomically.
  ASSERT_OK_AND_ASSIGN(Lsn got2, log.LoadMaster());
  EXPECT_EQ(got2, 9000u);
}

TEST_F(LogManagerTest, ForwardCursorScansAll) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  Lsn lsn;
  for (int i = 0; i < 10; ++i) {
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, i, kNullLsn,
                               "v" + std::to_string(i), "");
    ASSERT_OK(log.Append(rec, &lsn));
  }
  LogCursor cursor(&log, LogManager::first_lsn());
  LogRecord rec;
  Lsn at;
  int count = 0;
  Status st;
  while (cursor.Next(&rec, &at, &st)) {
    EXPECT_EQ(rec.psn_before, static_cast<Psn>(count));
    ++count;
  }
  ASSERT_OK(st);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(cursor.records_read(), 10u);
}

// --- Block reads: LogCursor parses frames out of 64 KiB blocks ----------

/// Update records of assorted sizes (about 60 to 450 bytes), so frames
/// land at every offset relative to a block edge.
LogRecord VariedUpdate(int i) {
  return MakeUpdate(
      MakeTxnId(1, i / 4), PageId{0, static_cast<std::uint32_t>(i % 8)},
      static_cast<Psn>(i), kNullLsn,
      std::string(40 + (i * 37) % 300, static_cast<char>('a' + i % 26)),
      std::string((i * 11) % 90, 'u'));
}

/// A checkpoint whose DPT alone encodes past one block.
LogRecord BigCheckpoint() {
  LogRecord ckpt;
  ckpt.type = LogRecordType::kCheckpointEnd;
  ckpt.checkpoint_begin_lsn = LogManager::first_lsn();
  for (std::uint32_t i = 0; i < 3000; ++i) {
    ckpt.dpt.push_back(DptEntry{PageId{1, i}, i, i + 1, 64 + i});
  }
  return ckpt;
}

std::string Encoded(const LogRecord& rec) {
  std::string body;
  rec.EncodeTo(&body);
  return body;
}

/// A log under test plus the LSN and body of every record appended to it.
struct WrittenLog {
  std::vector<Lsn> lsns;
  std::vector<std::string> bodies;

  void Append(LogManager* log, const LogRecord& rec) {
    Lsn lsn = kNullLsn;
    ASSERT_OK(log->Append(rec, &lsn));
    lsns.push_back(lsn);
    bodies.push_back(Encoded(rec));
  }

  /// Index of the frame that starts before `edge` and ends after it, or -1.
  int Straddling(Lsn edge) const {
    for (std::size_t i = 0; i + 1 < lsns.size(); ++i) {
      if (lsns[i] < edge && lsns[i + 1] > edge) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Scans from `start` and checks every record against `w` from index
/// `first` on: same LSN, same bytes as written and as ReadRecord returns.
/// Returns the number of records scanned and the scan's final status.
std::size_t ScanAndCompare(LogManager* log, const WrittenLog& w,
                           std::size_t first, Status* status) {
  LogCursor cursor(log, w.lsns[first]);
  LogRecord rec;
  Lsn lsn = kNullLsn;
  std::size_t i = first;
  while (cursor.Next(&rec, &lsn, status)) {
    EXPECT_LT(i, w.lsns.size());
    if (i >= w.lsns.size()) break;
    EXPECT_EQ(lsn, w.lsns[i]) << "record " << i;
    EXPECT_EQ(Encoded(rec), w.bodies[i]) << "record " << i;
    LogRecord single;
    Lsn next = kNullLsn;
    EXPECT_OK(log->ReadRecord(lsn, &single, &next));
    EXPECT_EQ(Encoded(single), w.bodies[i]) << "record " << i;
    EXPECT_EQ(next, cursor.position()) << "record " << i;
    ++i;
  }
  return i - first;
}

/// Overwrites bytes of a durable log file behind the LogManager's back, as
/// a media error would; the log reads durable bytes with pread, so an open
/// log sees the change.
void PatchFile(const std::string& path, std::uint64_t offset,
               const std::string& bytes) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

std::string U32Bytes(std::uint32_t v) {
  return std::string(reinterpret_cast<const char*>(&v), 4);
}

TEST_F(LogManagerTest, BlockScanMatchesPerRecordReads) {
  // Frames straddling block edges, and one frame larger than a whole
  // block, scan exactly like per-record random access.
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  WrittenLog w;
  for (int i = 0; i < 600; ++i) w.Append(&log, VariedUpdate(i));
  const std::size_t big = w.lsns.size();
  w.Append(&log, BigCheckpoint());
  for (int i = 600; i < 900; ++i) w.Append(&log, VariedUpdate(i));
  ASSERT_OK(log.Flush(log.end_lsn()));
  ASSERT_GT(w.bodies[big].size(), LogCursor::kBlockSize);
  ASSERT_GE(w.Straddling(LogManager::first_lsn() + LogCursor::kBlockSize), 0);

  Status st;
  EXPECT_EQ(ScanAndCompare(&log, w, 0, &st), w.lsns.size());
  ASSERT_OK(st);
  // A scan that starts mid-log, on the oversized frame, too.
  EXPECT_EQ(ScanAndCompare(&log, w, big, &st), w.lsns.size() - big);
  ASSERT_OK(st);
}

TEST_F(LogManagerTest, ScanContinuesFromDurableFileIntoUnflushedTail) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  WrittenLog w;
  for (int i = 0; i < 400; ++i) w.Append(&log, VariedUpdate(i));
  ASSERT_OK(log.Flush(log.end_lsn()));
  const Lsn durable_end = log.flushed_lsn();
  for (int i = 400; i < 700; ++i) w.Append(&log, VariedUpdate(i));
  ASSERT_LT(durable_end, log.end_lsn());

  const std::uint64_t reads_before = log.reads();
  Status st;
  EXPECT_EQ(ScanAndCompare(&log, w, 0, &st), w.lsns.size());
  ASSERT_OK(st);
  EXPECT_GT(log.reads(), reads_before);  // The durable part came from file.
}

TEST_F(LogManagerTest, CursorFailsOnceLogIsClosed) {
  // The cursor's block still holds the next records after a crash, but a
  // closed log serves none of them.
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  WrittenLog w;
  for (int i = 0; i < 20; ++i) w.Append(&log, VariedUpdate(i));
  ASSERT_OK(log.Flush(log.end_lsn()));
  LogCursor cursor(&log, LogManager::first_lsn());
  LogRecord rec;
  Status st;
  ASSERT_TRUE(cursor.Next(&rec, nullptr, &st));
  log.Abandon();
  EXPECT_FALSE(cursor.Next(&rec, nullptr, &st));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_EQ(cursor.position(), w.lsns[1]);
}

TEST_F(LogManagerTest, FrameLengthPastEndIsCorruption) {
  const std::string path = dir_.path() + "/log";
  LogManager log;
  ASSERT_OK(log.Open(path));
  WrittenLog w;
  for (int i = 0; i < 100; ++i) w.Append(&log, VariedUpdate(i));
  ASSERT_OK(log.Flush(log.end_lsn()));
  const Lsn bad = w.lsns[40];
  const std::uint64_t just_past = log.end_lsn() - bad - 8 + 1;
  for (std::uint64_t len : {just_past, std::uint64_t{0xFFFFFFF0u}}) {
    PatchFile(path, bad, U32Bytes(static_cast<std::uint32_t>(len)));
    // The length is refused from the header alone: the cursor issues the
    // one read that brought the header in, and none sized by the length.
    LogCursor cursor(&log, bad);
    LogRecord rec;
    Status st;
    const std::uint64_t reads_before = log.reads();
    EXPECT_FALSE(cursor.Next(&rec, nullptr, &st));
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_EQ(log.reads() - reads_before, 1u) << "length " << len;
    EXPECT_EQ(cursor.position(), bad);
    EXPECT_TRUE(log.ReadRecord(bad, &rec).IsCorruption());
    // A scan from the start stops at the bad frame.
    EXPECT_EQ(ScanAndCompare(&log, w, 0, &st), 40u);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST_F(LogManagerTest, FlippedCrcMidBlockIsCorruptionAtItsLsn) {
  const std::string path = dir_.path() + "/log";
  LogManager log;
  ASSERT_OK(log.Open(path));
  WrittenLog w;
  for (int i = 0; i < 100; ++i) w.Append(&log, VariedUpdate(i));
  ASSERT_OK(log.Flush(log.end_lsn()));
  const Lsn bad = w.lsns[50];
  std::uint32_t crc = crc32c::Value(w.bodies[50].data(), w.bodies[50].size());
  PatchFile(path, bad + 4, U32Bytes(crc ^ 0x1));

  LogCursor cursor(&log, LogManager::first_lsn());
  LogRecord rec;
  Status st;
  std::size_t n = 0;
  while (cursor.Next(&rec, nullptr, &st)) ++n;
  EXPECT_EQ(n, 50u);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find(std::to_string(bad)), std::string::npos)
      << st.ToString();
  EXPECT_EQ(cursor.position(), bad);
}

/// Closes a log of `w`'s records at `path`, applies `damage` to the file,
/// reopens it and checks that the reopen scan truncated at record `torn`:
/// everything before it reads back, and appends continue at its LSN.
void ExpectReopenTruncatesAt(const std::string& path, const WrittenLog& w,
                             std::size_t torn) {
  LogManager log;
  ASSERT_OK(log.Open(path));
  EXPECT_EQ(log.end_lsn(), w.lsns[torn]);
  EXPECT_EQ(std::filesystem::file_size(path), w.lsns[torn]);
  Status st;
  WrittenLog kept;
  kept.lsns.assign(w.lsns.begin(), w.lsns.begin() + torn);
  kept.bodies.assign(w.bodies.begin(), w.bodies.begin() + torn);
  EXPECT_EQ(ScanAndCompare(&log, kept, 0, &st), torn);
  ASSERT_OK(st);
  Lsn lsn = kNullLsn;
  ASSERT_OK(log.Append(VariedUpdate(7), &lsn));
  EXPECT_EQ(lsn, w.lsns[torn]);
}

TEST_F(LogManagerTest, ReopenTruncatesTornFrameInsideBlock) {
  const std::string path = dir_.path() + "/log";
  WrittenLog w;
  {
    LogManager log;
    ASSERT_OK(log.Open(path));
    for (int i = 0; i < 100; ++i) w.Append(&log, VariedUpdate(i));
    ASSERT_OK(log.Close());
  }
  // A garbled body byte in the middle of the first block.
  PatchFile(path, w.lsns[60] + 8 + 3, "\x5A");
  ExpectReopenTruncatesAt(path, w, 60);
}

TEST_F(LogManagerTest, ReopenTruncatesTornFrameStraddlingBlockEdge) {
  const Lsn edge = LogManager::first_lsn() + LogCursor::kBlockSize;
  for (bool cut : {true, false}) {
    SCOPED_TRACE(cut ? "file ends inside the frame"
                     : "frame whole, garbled past the edge");
    const std::string path =
        dir_.path() + (cut ? "/cut.log" : "/garbled.log");
    WrittenLog w;
    {
      LogManager log;
      ASSERT_OK(log.Open(path));
      for (int i = 0; i < 500; ++i) w.Append(&log, VariedUpdate(i));
      ASSERT_OK(log.Close());
    }
    const int torn = w.Straddling(edge);
    ASSERT_GE(torn, 0);
    // The header lies in the first block; the damage is past the edge.
    ASSERT_LE(w.lsns[torn] + 8, edge);
    ASSERT_LT(edge + 2, w.lsns[torn + 1]);
    if (cut) {
      std::filesystem::resize_file(path, edge + 2);
    } else {
      PatchFile(path, edge + 1, "\x5A");
    }
    ExpectReopenTruncatesAt(path, w, static_cast<std::size_t>(torn));
  }
}

TEST_F(LogManagerTest, FullScanIssuesAboutOneReadPerBlock) {
  // The deterministic evidence for block reads: a forward scan of a
  // durable log costs a read per block, not one or two per record.
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  for (int i = 0; log.end_lsn() < LogManager::first_lsn() + (1u << 20); ++i) {
    Lsn lsn = kNullLsn;
    ASSERT_OK(log.Append(VariedUpdate(i), &lsn));
  }
  ASSERT_OK(log.Flush(log.end_lsn()));
  const std::uint64_t scanned = log.end_lsn() - LogManager::first_lsn();
  const std::uint64_t reads_before = log.reads();
  LogCursor cursor(&log, LogManager::first_lsn());
  LogRecord rec;
  Status st;
  while (cursor.Next(&rec, nullptr, &st)) {
  }
  ASSERT_OK(st);
  EXPECT_EQ(cursor.position(), log.end_lsn());
  const std::uint64_t reads = log.reads() - reads_before;
  EXPECT_GT(reads, 0u);
  EXPECT_LT(reads, scanned / (32 * 1024))
      << reads << " reads for " << scanned << " bytes, "
      << cursor.records_read() << " records";
}

// Reference framing: encode the body on its own, then prepend the frame
// header exactly as the format doc specifies — u32 body_len | u32
// crc32c(body) | body, native u32 layout. The append path builds frames
// in place in the tail buffer; these tests pin it to this reference.
std::string ReferenceFrame(const LogRecord& rec) {
  std::string body;
  rec.EncodeTo(&body);
  std::uint32_t len = static_cast<std::uint32_t>(body.size());
  std::uint32_t crc = crc32c::Value(body.data(), body.size());
  std::string frame;
  frame.append(reinterpret_cast<const char*>(&len), 4);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  frame += body;
  return frame;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<LogRecord> GoldenRecords() {
  std::vector<LogRecord> recs;
  recs.push_back(MakeUpdate(MakeTxnId(1, 7), PageId{2, 5}, 42, kNullLsn,
                            "redo-bytes", "undo-bytes"));
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = MakeTxnId(1, 7);
  commit.prev_lsn = LogManager::first_lsn();
  recs.push_back(commit);
  LogRecord ckpt;
  ckpt.type = LogRecordType::kCheckpointEnd;
  ckpt.checkpoint_begin_lsn = 128;
  ckpt.dpt = {DptEntry{PageId{1, 2}, 3, 9, 500}};
  ckpt.att = {AttEntry{MakeTxnId(1, 3), 450}};
  recs.push_back(ckpt);
  recs.push_back(MakeUpdate(MakeTxnId(0, 2), PageId{0, 1}, 7, kNullLsn,
                            std::string(200, 'R'), std::string(90, 'U')));
  // Adaptive-logging record types ride through the same framing.
  LogRecord logical = MakeUpdate(MakeTxnId(2, 9), PageId{2, 3}, 11, kNullLsn,
                                 "compact-redo", /*undo=*/"");
  logical.type = LogRecordType::kLogicalUpdate;
  recs.push_back(logical);
  LogRecord backfill;
  backfill.type = LogRecordType::kUndoBackfill;
  backfill.txn = MakeTxnId(2, 9);
  backfill.prev_lsn = 700;
  backfill.backfill = {BackfillEntry{650, "old-bytes"}, BackfillEntry{680, ""}};
  recs.push_back(backfill);
  LogRecord adaptive_commit;
  adaptive_commit.type = LogRecordType::kCommit;
  adaptive_commit.txn = MakeTxnId(2, 9);
  adaptive_commit.prev_lsn = 720;
  recs.push_back(adaptive_commit);
  return recs;
}

TEST_F(LogManagerTest, AppendIsByteIdenticalToReferenceFraming) {
  // On-disk format golden test. The zero-copy append path reserves the
  // 8-byte frame header, encodes the body directly into the tail buffer,
  // and backfills len/crc; the file it produces must be byte-identical to
  // the reference framing. Any drift here orphans every existing log.
  const std::string path = dir_.path() + "/log";
  std::string expect;
  Lsn expect_lsn = LogManager::first_lsn();
  {
    LogManager log;
    ASSERT_OK(log.Open(path));
    Lsn lsn = kNullLsn;
    for (const LogRecord& rec : GoldenRecords()) {
      ASSERT_OK(log.Append(rec, &lsn));
      EXPECT_EQ(lsn, expect_lsn);  // LSNs are byte offsets of the frame.
      std::string frame = ReferenceFrame(rec);
      expect += frame;
      expect_lsn += frame.size();
    }
    ASSERT_OK(log.Flush(lsn));
    EXPECT_EQ(log.end_lsn(), expect_lsn);
    ASSERT_OK(log.Close());
  }
  std::string file = ReadWholeFile(path);
  ASSERT_EQ(file.size(), static_cast<std::size_t>(expect_lsn));
  EXPECT_EQ(file.substr(LogManager::first_lsn()), expect);
}

TEST_F(LogManagerTest, ReferenceFramedFileReplaysOnOpen) {
  // The converse direction: a log written frame-by-frame by the reference
  // encoder (i.e. by the pre-zero-copy implementation) must recover and
  // read back unchanged, and must accept new appends after its tail.
  const std::string path = dir_.path() + "/log";
  {
    LogManager log;  // Produces just the 64-byte file header.
    ASSERT_OK(log.Open(path));
    ASSERT_OK(log.Close());
  }
  std::vector<LogRecord> recs = GoldenRecords();
  std::vector<Lsn> lsns;
  Lsn at = LogManager::first_lsn();
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    for (const LogRecord& rec : recs) {
      std::string frame = ReferenceFrame(rec);
      lsns.push_back(at);
      at += frame.size();
      out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    }
  }
  LogManager log;
  ASSERT_OK(log.Open(path));
  EXPECT_EQ(log.end_lsn(), at);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    LogRecord got;
    ASSERT_OK(log.ReadRecord(lsns[i], &got));
    EXPECT_EQ(got.type, recs[i].type) << "record " << i;
    std::string want_body, got_body;
    recs[i].EncodeTo(&want_body);
    got.EncodeTo(&got_body);
    EXPECT_EQ(got_body, want_body) << "record " << i;
  }
  // The reopened log continues with zero-copy appends where the old
  // encoder left off.
  Lsn more = kNullLsn;
  ASSERT_OK(log.Append(
      MakeUpdate(MakeTxnId(2, 1), PageId{0, 0}, 1, kNullLsn, "new", ""),
      &more));
  EXPECT_EQ(more, at);
  ASSERT_OK(log.Flush(more));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(more, &got));
  EXPECT_EQ(got.redo_image, "new");
}

// --- Adaptive-logging record types: pinned byte layouts -----------------
// These spell the expected bodies out byte by byte. Any encoder change
// that shifts them orphans existing logs, exactly like the framing tests
// above; change the format doc and add a version gate instead.

void PinU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

TEST(LogRecordTest, LogicalUpdateBodyMatchesPinnedLayout) {
  LogRecord rec = MakeUpdate(MakeTxnId(3, 5), PageId{3, 8}, 21, 900,
                             "after", "ignored-before");
  rec.type = LogRecordType::kLogicalUpdate;
  std::string body;
  rec.EncodeTo(&body);

  std::string want;
  want.push_back(static_cast<char>(LogRecordType::kLogicalUpdate));
  PinU64(&want, MakeTxnId(3, 5));
  PinU64(&want, 900);                  // prev_lsn
  PinU64(&want, PageId{3, 8}.Pack());
  PinU64(&want, 21);                   // psn_before
  want.push_back(static_cast<char>(RecordOp::kUpdate));
  want.push_back(2);                   // slot (u16 LE), MakeUpdate uses 2.
  want.push_back(0);
  want.push_back(5);                   // varint len("after")
  want += "after";
  // No undo image: that is the entire point of the logical format.
  EXPECT_EQ(body, want);

  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.type, LogRecordType::kLogicalUpdate);
  EXPECT_EQ(out.redo_image, "after");
  EXPECT_TRUE(out.undo_image.empty());
  EXPECT_EQ(out.psn_before, 21u);
  EXPECT_EQ(out.slot, 2u);
}

TEST(LogRecordTest, UndoBackfillBodyMatchesPinnedLayout) {
  LogRecord rec;
  rec.type = LogRecordType::kUndoBackfill;
  rec.txn = MakeTxnId(3, 5);
  rec.prev_lsn = 950;
  rec.backfill = {BackfillEntry{901, "old"}, BackfillEntry{925, ""}};
  std::string body;
  rec.EncodeTo(&body);

  std::string want;
  want.push_back(static_cast<char>(LogRecordType::kUndoBackfill));
  PinU64(&want, MakeTxnId(3, 5));
  PinU64(&want, 950);
  want.push_back(2);    // varint count
  PinU64(&want, 901);   // covered_lsn
  want.push_back(3);    // varint len("old")
  want += "old";
  PinU64(&want, 925);
  want.push_back(0);    // empty before-image (covered an insert)
  EXPECT_EQ(body, want);

  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.backfill, rec.backfill);
}

TEST(LogRecordTest, PlainCommitKeepsLegacyBytes) {
  // Every commit, adaptive or physical, is the bare header: it encodes
  // exactly as it did before adaptive logging existed, so physical-strategy
  // logs stay byte-identical across the release.
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = MakeTxnId(3, 5);
  rec.prev_lsn = 980;
  std::string body;
  rec.EncodeTo(&body);

  std::string want;
  want.push_back(static_cast<char>(LogRecordType::kCommit));
  PinU64(&want, MakeTxnId(3, 5));
  PinU64(&want, 980);
  EXPECT_EQ(body, want);  // 17 bytes, nothing trailing.

  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.type, LogRecordType::kCommit);
  EXPECT_EQ(out.txn, rec.txn);
  EXPECT_EQ(out.prev_lsn, rec.prev_lsn);
}

TEST(LogRecordTest, CommitWithRetiredTrailingBlockDecodes) {
  // Adaptive commits written by older builds carry a trailing block: a
  // flag byte (0x1, logged logical), a varint dependency count, and one
  // (txn, commit LSN) pair per dependency. Logs holding them still replay:
  // the block decodes as a plain commit.
  std::string body;
  body.push_back(static_cast<char>(LogRecordType::kCommit));
  PinU64(&body, MakeTxnId(3, 5));
  PinU64(&body, 980);
  body.push_back(0x1);  // retired flag: logged logical
  body.push_back(2);    // varint dependency count
  PinU64(&body, MakeTxnId(1, 2));
  PinU64(&body, 400);
  PinU64(&body, MakeTxnId(0, 9));
  PinU64(&body, 150);

  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.type, LogRecordType::kCommit);
  EXPECT_EQ(out.txn, MakeTxnId(3, 5));
  EXPECT_EQ(out.prev_lsn, 980u);
}

TEST_F(LogManagerTest, BackwardCursorFollowsTxnChainAndClrSkips) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  // Chain: U1 <- U2 <- CLR(undo of U2, undo_next -> U1).
  Lsn l1, l2, l3;
  LogRecord u1 = MakeUpdate(9, PageId{0, 0}, 0, kNullLsn, "1", "");
  ASSERT_OK(log.Append(u1, &l1));
  LogRecord u2 = MakeUpdate(9, PageId{0, 0}, 1, l1, "2", "");
  ASSERT_OK(log.Append(u2, &l2));
  LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.txn = 9;
  clr.prev_lsn = l2;
  clr.page = PageId{0, 0};
  clr.psn_before = 2;
  clr.op = RecordOp::kUpdate;
  clr.undo_next_lsn = l1;  // Skip U2: already compensated.
  ASSERT_OK(log.Append(clr, &l3));

  TxnBackwardCursor cursor(&log, l3);
  LogRecord rec;
  Lsn at;
  ASSERT_TRUE(cursor.Prev(&rec, &at));
  EXPECT_EQ(rec.type, LogRecordType::kClr);
  ASSERT_TRUE(cursor.Prev(&rec, &at));
  EXPECT_EQ(at, l1);  // U2 skipped via undo_next_lsn.
  EXPECT_EQ(rec.redo_image, "1");
  EXPECT_FALSE(cursor.Prev(&rec, &at));
}

}  // namespace
}  // namespace clog
