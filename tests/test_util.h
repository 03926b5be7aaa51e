#ifndef CLOG_TESTS_TEST_UTIL_H_
#define CLOG_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/codec.h"
#include "common/fsutil.h"
#include "common/status.h"

namespace clog::testing {

/// Creates a unique scratch directory for one test under `base` (the
/// system temp directory by default) and removes it on destruction.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& base =
                       std::filesystem::temp_directory_path()) {
    std::string buf = base / "clog_test_XXXXXX";
    char* got = ::mkdtemp(buf.data());
    EXPECT_NE(got, nullptr);
    path_ = buf;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes a version-3 binary trace file (docs/observability.md) with one
/// ring, for node 0, whose header claims `emitted` events ever emitted and
/// `retained` events kept, followed by `present` zeroed events. The file is
/// framed and checksummed like a real one, so a reader must catch a
/// malformed ring from the header alone.
inline Status WriteCraftedTraceFile(const std::string& path,
                                    std::uint64_t capacity,
                                    std::uint64_t emitted,
                                    std::uint64_t retained,
                                    std::uint64_t present) {
  constexpr std::uint32_t kTraceMagic = 0x52544C43u;  // "CLTR"
  constexpr std::size_t kEventBytes = 4 * 8 + 3 * 4;
  std::string body;
  Encoder enc(&body);
  enc.PutU32(3);  // version
  enc.PutU64(capacity);
  enc.PutU32(1);  // node count
  enc.PutU32(0);  // node
  enc.PutU64(emitted);
  enc.PutU64(0);  // hash
  enc.PutU64(retained);
  body.append(present * kEventBytes, '\0');
  return WriteRecordFile(path, kTraceMagic, body);
}

}  // namespace clog::testing

/// gtest-friendly Status assertions. Each expansion names its temporary
/// uniquely, so the macros nest (a lambda inside an ASSERT_OK argument
/// may use EXPECT_OK) without one temporary shadowing another.
#define ASSERT_OK(expr) \
  CLOG_ASSERT_OK_IMPL_(expr, CLOG_TEST_CONCAT_(_assert_ok_st_, __COUNTER__))
#define CLOG_ASSERT_OK_IMPL_(expr, st)                   \
  do {                                                   \
    ::clog::Status st = (expr);                          \
    ASSERT_TRUE(st.ok()) << "status: " << st.ToString(); \
  } while (0)

#define EXPECT_OK(expr) \
  CLOG_EXPECT_OK_IMPL_(expr, CLOG_TEST_CONCAT_(_expect_ok_st_, __COUNTER__))
#define CLOG_EXPECT_OK_IMPL_(expr, st)                   \
  do {                                                   \
    ::clog::Status st = (expr);                          \
    EXPECT_TRUE(st.ok()) << "status: " << st.ToString(); \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                           \
  auto CLOG_TEST_CONCAT_(_res_, __LINE__) = (rexpr);               \
  ASSERT_TRUE(CLOG_TEST_CONCAT_(_res_, __LINE__).ok())             \
      << CLOG_TEST_CONCAT_(_res_, __LINE__).status().ToString();   \
  lhs = std::move(CLOG_TEST_CONCAT_(_res_, __LINE__)).value()

#define CLOG_TEST_CONCAT_INNER_(a, b) a##b
#define CLOG_TEST_CONCAT_(a, b) CLOG_TEST_CONCAT_INNER_(a, b)

#endif  // CLOG_TESTS_TEST_UTIL_H_
