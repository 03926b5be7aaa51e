#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"

namespace clog {
namespace {

/// RFC 3720 (iSCSI) Appendix B.4 known-answer vectors for CRC-32C.
TEST(Crc32cTest, Rfc3720Vectors) {
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);

  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8A9136AAu);

  std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::Value(ones.data(), ones.size()), 0x62A8AB43u);

  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(ascending.data(), ascending.size()), 0x46DD794Eu);

  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) descending[i] = static_cast<char>(31 - i);
  EXPECT_EQ(crc32c::Value(descending.data(), descending.size()), 0x113FDB5Cu);
}

/// The portable path must reproduce the same vectors: it is the reference
/// the dispatched path is checked against below.
TEST(Crc32cTest, PortablePathMatchesVectors) {
  EXPECT_EQ(crc32c::ValuePortable("123456789", 9), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::ValuePortable(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(crc32c::Value(nullptr, 0), 0u);
  EXPECT_EQ(crc32c::Extend(0x12345678u, nullptr, 0), 0x12345678u);
}

std::string RandomBytes(std::uint64_t seed, std::size_t n) {
  Random rng(seed);
  std::string buf;
  buf.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf.push_back(static_cast<char>(rng.Uniform(256)));
  }
  return buf;
}

/// Hardware and software paths must agree bit-for-bit on every length and
/// alignment: the dispatch is a pure performance decision, never a format
/// one. Every length up to 4,000 runs the alignment prologue, the unrolled
/// single-stream loop and the byte tail; the listed lengths sit on either
/// side of the three-stream path's strides (3 x 128 B and 3 x 1 KiB), and
/// the page checksum span (8,184 B), a page and 64 KiB run several long
/// strides followed by short ones.
TEST(Crc32cTest, HardwareSoftwareAgreementAcrossLengthsAndAlignments) {
  const std::string buf = RandomBytes(0xC5C5C5C5ull, 72 * 1024);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 4000; ++len) lengths.push_back(len);
  for (std::size_t stride : {std::size_t{3 * 128}, std::size_t{3 * 1024}}) {
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      for (std::size_t len :
           {k * stride - 1, k * stride, k * stride + 1, k * stride + 8}) {
        lengths.push_back(len);
      }
    }
  }
  for (std::size_t len : {std::size_t{8184}, std::size_t{8192},
                          std::size_t{65536}, std::size_t{70000}}) {
    lengths.push_back(len);
  }
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len : lengths) {
      ASSERT_LE(align + len, buf.size());
      const char* p = buf.data() + align;
      ASSERT_EQ(crc32c::Value(p, len), crc32c::ValuePortable(p, len))
          << "align=" << align << " len=" << len
          << " impl=" << crc32c::ImplName();
    }
  }
}

/// Extend chains must compose: CRC(a+b) == Extend(CRC(a), b) regardless of
/// where the cut lands, and the dispatched chain must equal the portable
/// chain. This is exactly how the WAL uses the API (frame bodies arrive in
/// pieces).
TEST(Crc32cTest, RandomizedExtendChainsCompose) {
  Random rng(0xFEEDF00Dull);
  for (int round = 0; round < 200; ++round) {
    std::size_t total = 1 + rng.Uniform(1500);
    std::string data;
    for (std::size_t i = 0; i < total; ++i) {
      data.push_back(static_cast<char>(rng.Uniform(256)));
    }
    std::uint32_t whole = crc32c::Value(data.data(), data.size());

    std::uint32_t chained = 0;
    std::uint32_t chained_sw = 0;
    std::size_t off = 0;
    while (off < total) {
      std::size_t piece = 1 + rng.Uniform(64);
      piece = std::min(piece, total - off);
      chained = crc32c::Extend(chained, data.data() + off, piece);
      chained_sw = crc32c::ExtendPortable(chained_sw, data.data() + off, piece);
      off += piece;
    }
    ASSERT_EQ(chained, whole) << "round=" << round;
    ASSERT_EQ(chained_sw, whole) << "round=" << round;
  }
}

/// Pieces of up to 9 KiB put the three-stream path in the middle of a
/// chain: it starts from a running CRC and a later piece extends its
/// result, at whatever alignment a random cut leaves.
TEST(Crc32cTest, ExtendChainsWithLongPiecesCompose) {
  const std::string data = RandomBytes(0xBADC0FFEEull, 72 * 1024);
  const std::uint32_t whole = crc32c::ValuePortable(data.data(), data.size());
  Random rng(0x5EED5ull);
  for (int round = 0; round < 20; ++round) {
    std::uint32_t chained = 0;
    std::size_t off = 0;
    while (off < data.size()) {
      std::size_t piece = std::min<std::size_t>(1 + rng.Uniform(9 * 1024),
                                                data.size() - off);
      chained = crc32c::Extend(chained, data.data() + off, piece);
      off += piece;
    }
    ASSERT_EQ(chained, whole) << "round=" << round;
  }
}

TEST(Crc32cTest, ImplNameIsConsistentWithAccelerationFlag) {
  if (crc32c::IsHardwareAccelerated()) {
    EXPECT_TRUE(crc32c::ImplName() == "sse4.2" ||
                crc32c::ImplName() == "armv8");
  } else {
    EXPECT_EQ(crc32c::ImplName(), "sw");
  }
}

}  // namespace
}  // namespace clog
