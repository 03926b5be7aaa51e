#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/fsutil.h"
#include "common/lock_mode.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/types.h"
#include "tests/test_util.h"

namespace clog {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, CodesAndMessages) {
  Status st = Status::NotFound("page 7");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "not found: page 7");
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Deadlock().IsDeadlock());
  EXPECT_TRUE(Status::LogFull().IsLogFull());
  EXPECT_TRUE(Status::NodeDown().IsNodeDown());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::Aborted().IsAborted());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    CLOG_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kIOError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool good) -> Result<int> {
    if (good) return 7;
    return Status::Busy("later");
  };
  auto use = [&](bool good) -> Status {
    CLOG_ASSIGN_OR_RETURN(int v, make(good));
    EXPECT_EQ(v, 7);
    return Status::OK();
  };
  EXPECT_OK(use(true));
  EXPECT_TRUE(use(false).IsBusy());
}

TEST(TypesTest, TxnIdEncodesNode) {
  TxnId id = MakeTxnId(13, 99);
  EXPECT_EQ(TxnNode(id), 13u);
  EXPECT_EQ(id & 0xFFFFFFFFFFFFull, 99u);
}

TEST(TypesTest, PageIdPackUnpackRoundTrip) {
  PageId pid{3, 0xDEADBEEF};
  EXPECT_EQ(PageId::Unpack(pid.Pack()), pid);
  EXPECT_EQ(pid.ToString(), "3:3735928559");
  EXPECT_TRUE(pid.Valid());
  EXPECT_FALSE(kInvalidPageId.Valid());
}

TEST(TypesTest, PageIdOrderingAndHash) {
  PageId a{1, 5}, b{1, 6}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_NE(std::hash<PageId>()(a), std::hash<PageId>()(b));
}

TEST(LockModeTest, CompatibilityMatrix) {
  EXPECT_TRUE(Compatible(LockMode::kShared, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kShared, LockMode::kExclusive));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kExclusive));
  EXPECT_TRUE(Compatible(LockMode::kNone, LockMode::kExclusive));
}

TEST(Crc32cTest, KnownValueAndExtend) {
  // CRC-32C of "123456789" is the classic check value 0xE3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
  std::uint32_t split = crc32c::Extend(0, "12345", 5);
  // Extend is not plain concatenation of independent CRCs; recomputing the
  // full range must match Value.
  EXPECT_EQ(crc32c::Value("12345", 5), split);
}

TEST(Crc32cTest, DetectsBitFlip) {
  std::string data(100, 'a');
  std::uint32_t before = crc32c::Value(data.data(), data.size());
  data[50] ^= 1;
  EXPECT_NE(before, crc32c::Value(data.data(), data.size()));
}

TEST(CodecTest, FixedWidthRoundTrip) {
  std::string buf;
  Encoder enc(&buf);
  enc.PutU8(0xAB);
  enc.PutU16(0xBEEF);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  Decoder dec(buf);
  std::uint8_t v8;
  std::uint16_t v16;
  std::uint32_t v32;
  std::uint64_t v64;
  ASSERT_OK(dec.GetU8(&v8));
  ASSERT_OK(dec.GetU16(&v16));
  ASSERT_OK(dec.GetU32(&v32));
  ASSERT_OK(dec.GetU64(&v64));
  EXPECT_EQ(v8, 0xAB);
  EXPECT_EQ(v16, 0xBEEF);
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(dec.Done());
}

TEST(CodecTest, VarintRoundTripBoundaries) {
  std::string buf;
  Encoder enc(&buf);
  std::uint64_t values[] = {0, 1, 127, 128, 16383, 16384, ~0ull};
  for (std::uint64_t v : values) enc.PutVarint64(v);
  Decoder dec(buf);
  for (std::uint64_t v : values) {
    std::uint64_t got;
    ASSERT_OK(dec.GetVarint64(&got));
    EXPECT_EQ(got, v);
  }
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  Encoder enc(&buf);
  enc.PutLengthPrefixed("hello");
  enc.PutLengthPrefixed("");
  enc.PutLengthPrefixed(std::string(1000, 'x'));
  Decoder dec(buf);
  std::string a, b, c;
  ASSERT_OK(dec.GetLengthPrefixed(&a));
  ASSERT_OK(dec.GetLengthPrefixed(&b));
  ASSERT_OK(dec.GetLengthPrefixed(&c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'x'));
}

TEST(CodecTest, TruncatedInputIsCorruption) {
  std::string buf;
  Encoder enc(&buf);
  enc.PutU64(7);
  Decoder dec(Slice(buf.data(), 3));  // Cut short.
  std::uint64_t v;
  EXPECT_TRUE(dec.GetU64(&v).IsCorruption());
}

TEST(CodecTest, OverlongVarintIsCorruption) {
  std::string buf(11, '\x80');  // Never terminates within 64 bits.
  Decoder dec(buf);
  std::uint64_t v;
  EXPECT_TRUE(dec.GetVarint64(&v).IsCorruption());
}

TEST(RandomTest, DeterministicFromSeed) {
  Random a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    std::uint64_t r = rng.Range(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
  }
}

TEST(RandomTest, SkewedPrefersHotSet) {
  Random rng(11);
  int hot = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Skewed(100) < 20) ++hot;
  }
  // ~80% by construction plus uniform spill; allow slack.
  EXPECT_GT(hot, kDraws * 7 / 10);
}

TEST(RandomTest, BytesHasRequestedLength) {
  Random rng(3);
  EXPECT_EQ(rng.Bytes(0).size(), 0u);
  EXPECT_EQ(rng.Bytes(257).size(), 257u);
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.Advance(100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowNanos(), 150u);
  clock.Reset();
  EXPECT_EQ(clock.NowNanos(), 0u);
}

TEST(MetricsTest, CountersAccumulate) {
  Metrics m;
  m.GetCounter("a").Add(3);
  m.GetCounter("a").Add(4);
  EXPECT_EQ(m.CounterValue("a"), 7u);
  EXPECT_EQ(m.CounterValue("missing"), 0u);
  m.Reset();
  EXPECT_EQ(m.CounterValue("a"), 0u);
}

TEST(MetricsTest, SnapshotSortedByName) {
  Metrics m;
  m.GetCounter("z").Add(1);
  m.GetCounter("a").Add(2);
  auto snap = m.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a");
  EXPECT_EQ(snap[1].first, "z");
}

TEST(MetricsTest, HistogramStats) {
  Metrics m;
  Histogram& h = m.GetHistogram("lat");
  for (std::uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_GT(h.Quantile(0.99), h.Quantile(0.01));
}

// Log-linear buckets: a lone value lands in a bucket no wider than 1/8 of
// its lower bound, at every magnitude up to the top of the range.
TEST(MetricsTest, HistogramBucketsAreWithinOneEighth) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{5},
                          std::uint64_t{8}, std::uint64_t{17},
                          std::uint64_t{1000}, std::uint64_t{5430720},
                          std::uint64_t{6291456}, ~std::uint64_t{0} >> 1,
                          ~std::uint64_t{0}}) {
    Histogram h;
    h.Record(v);
    const double q = h.Quantile(0.5);
    EXPECT_LE(q, static_cast<double>(v)) << v;
    EXPECT_GE(q, static_cast<double>(v) * 7 / 8) << v;
  }
  // Below 16 every value has a bucket of its own.
  Histogram small;
  for (std::uint64_t v = 0; v < 16; ++v) small.Record(v);
  EXPECT_DOUBLE_EQ(small.Quantile(0.5), 8.0);
}

TEST(SliceTest, ComparisonAndConversion) {
  std::string s = "abc";
  Slice a(s), b("abc"), c("abd");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "abc");
  EXPECT_TRUE(Slice().empty());
}

// --- Record files (common/fsutil.h) ---------------------------------------

constexpr std::uint32_t kTestMagic = 0x54534554u;  // "TEST"

/// Writes `bytes` to `path` as is, with no framing and no rename.
void WriteRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(RecordFileTest, RoundTripWithMagicBodyCrcLayout) {
  testing::TempDir dir;
  const std::string path = dir.path() + "/rec";
  ASSERT_OK(WriteRecordFile(path, kTestMagic, "payload"));
  std::string body;
  ASSERT_OK(ReadRecordFile(path, kTestMagic, &body));
  EXPECT_EQ(body, "payload");

  // u32 magic | body | u32 crc32c(magic | body), little-endian.
  std::string raw;
  ASSERT_OK(ReadFileToString(path, &raw));
  ASSERT_EQ(raw.size(), 4u + body.size() + 4u);
  std::uint32_t magic = 0, crc = 0;
  ASSERT_OK(Decoder(Slice(raw.data(), 4)).GetU32(&magic));
  ASSERT_OK(Decoder(Slice(raw.data() + raw.size() - 4, 4)).GetU32(&crc));
  EXPECT_EQ(magic, kTestMagic);
  EXPECT_EQ(crc, crc32c::Value(raw.data(), raw.size() - 4));

  ASSERT_OK(WriteRecordFile(path, kTestMagic, ""));  // Empty body.
  ASSERT_OK(ReadRecordFile(path, kTestMagic, &body));
  EXPECT_TRUE(body.empty());
}

TEST(RecordFileTest, AbsentFileIsNotFound) {
  testing::TempDir dir;
  std::string body;
  Status st = ReadRecordFile(dir.path() + "/absent", kTestMagic, &body);
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
}

TEST(RecordFileTest, EveryTruncationAndByteFlipIsCorruption) {
  testing::TempDir dir;
  const std::string path = dir.path() + "/rec";
  ASSERT_OK(WriteRecordFile(path, kTestMagic, "small body"));
  std::string good;
  ASSERT_OK(ReadFileToString(path, &good));
  std::string body;
  for (std::size_t len = 0; len < good.size(); ++len) {
    WriteRaw(path, good.substr(0, len));
    Status st = ReadRecordFile(path, kTestMagic, &body);
    EXPECT_TRUE(st.IsCorruption()) << "length " << len << ": " << st.ToString();
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    WriteRaw(path, bad);
    Status st = ReadRecordFile(path, kTestMagic, &body);
    EXPECT_TRUE(st.IsCorruption()) << "byte " << i << ": " << st.ToString();
  }
}

TEST(RecordFileTest, WrongMagicIsCorruption) {
  // A well-formed record file of another kind is still the wrong file.
  testing::TempDir dir;
  const std::string path = dir.path() + "/rec";
  ASSERT_OK(WriteRecordFile(path, kTestMagic + 1, "body"));
  std::string body;
  Status st = ReadRecordFile(path, kTestMagic, &body);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(RecordFileTest, StaleTempFromInterruptedWriteIsIgnoredThenReplaced) {
  // A crash inside AtomicWriteFile can leave "<name>.tmp" behind. The next
  // read sees the last published file; the next write replaces the temp.
  testing::TempDir dir;
  const std::string path = dir.path() + "/rec";
  ASSERT_OK(WriteRecordFile(path, kTestMagic, "published"));
  WriteRaw(path + ".tmp", "half a record");
  std::string body;
  ASSERT_OK(ReadRecordFile(path, kTestMagic, &body));
  EXPECT_EQ(body, "published");

  ASSERT_OK(WriteRecordFile(path, kTestMagic, "next"));
  ASSERT_OK(ReadRecordFile(path, kTestMagic, &body));
  EXPECT_EQ(body, "next");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(RecordFileTest, UnreadablePathIsIOErrorNotNotFound) {
  // A path under a regular file fails with ENOTDIR. The file cannot be
  // read, which must never pass for "absent": an absent ledger reads as
  // an empty one.
  testing::TempDir dir;
  const std::string file = dir.path() + "/file";
  ASSERT_OK(WriteRecordFile(file, kTestMagic, "x"));
  std::string body;
  Status st = ReadRecordFile(file + "/rec", kTestMagic, &body);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  st = ReadFileToString(file + "/rec", &body);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

}  // namespace
}  // namespace clog
