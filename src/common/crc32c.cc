#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#define CLOG_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define CLOG_CRC32C_ARM 1
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif
#endif

namespace clog::crc32c {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected CRC-32C polynomial

// Slice-by-8: table[0] is the classic byte table; table[k][b] advances byte
// b through k additional zero bytes, so eight table lookups consume eight
// input bytes per iteration instead of one.
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

SliceTables MakeTables() {
  SliceTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

const SliceTables& Tables() {
  static const SliceTables tables = MakeTables();
  return tables;
}

#if defined(CLOG_CRC32C_X86)
// One `crc32` instruction has a latency of three cycles but a throughput of
// one, so a single dependent chain runs at a third of the unit's speed.
// Long inputs therefore run three independent streams over adjacent blocks
// and join them afterwards (Intel, "Fast CRC Computation for iSCSI
// Polynomial Using CRC32 Instruction", 2011; Mark Adler's crc32c.c): the
// register after A||B is Shift(reg after A, |B|) ^ (B's register from 0),
// because the register update is linear over GF(2).
constexpr std::size_t kLongBlock = 1024;
constexpr std::size_t kShortBlock = 128;

// MakeShiftTable(L)[k][b] is the register value that b << 8k becomes after
// L zero bytes, so four lookups shift any register through a block of L.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable MakeShiftTable(std::size_t len) {
  std::array<std::uint32_t, 32> basis{};
  for (int i = 0; i < 32; ++i) {
    std::uint32_t crc = 1u << i;
    for (std::size_t bit = 0; bit < 8 * len; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    basis[i] = crc;
  }
  ShiftTable t{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t v = 0;
      for (int j = 0; j < 8; ++j) {
        if ((b >> j) & 1) v ^= basis[8 * k + j];
      }
      t[k][b] = v;
    }
  }
  return t;
}

constexpr ShiftTable kShiftLong = MakeShiftTable(kLongBlock);
constexpr ShiftTable kShiftShort = MakeShiftTable(kShortBlock);

inline std::uint64_t Shift(const ShiftTable& t, std::uint64_t crc) {
  return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
         t[2][(crc >> 16) & 0xFF] ^ t[3][(crc >> 24) & 0xFF];
}

struct Consumed {
  std::uint64_t crc;
  std::size_t bytes;
};

// Runs the three-stream loop over the longest prefix of whole 3-block
// strides (long blocks first, then short ones) and reports how far it got.
// Kept out of line so the short inputs that dominate (log frames of tens
// to a few hundred bytes) pay one compare for it.
__attribute__((target("sse4.2"), noinline)) Consumed ThreeStreamSse42(
    std::uint64_t crc0, const unsigned char* p, std::size_t n) {
  struct Stride {
    std::size_t block;
    const ShiftTable* shift;
  };
  static constexpr Stride kStrides[] = {{kLongBlock, &kShiftLong},
                                        {kShortBlock, &kShiftShort}};
  const unsigned char* const start = p;
  for (const Stride& s : kStrides) {
    while (n >= 3 * s.block) {
      std::uint64_t crc1 = 0;
      std::uint64_t crc2 = 0;
      const unsigned char* const end = p + s.block;
      do {
        std::uint64_t v0, v1, v2;
        std::memcpy(&v0, p, 8);
        std::memcpy(&v1, p + s.block, 8);
        std::memcpy(&v2, p + 2 * s.block, 8);
        crc0 = _mm_crc32_u64(crc0, v0);
        crc1 = _mm_crc32_u64(crc1, v1);
        crc2 = _mm_crc32_u64(crc2, v2);
        p += 8;
      } while (p < end);
      crc0 = Shift(*s.shift, crc0) ^ crc1;
      crc0 = Shift(*s.shift, crc0) ^ crc2;
      p += 2 * s.block;
      n -= 3 * s.block;
    }
  }
  return {crc0, static_cast<std::size_t>(p - start)};
}

__attribute__((target("sse4.2"))) std::uint32_t ExtendSse42(std::uint32_t crc,
                                                            const char* data,
                                                            std::size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  std::uint64_t c64 = c;
  if (n >= 3 * kShortBlock) {
    const Consumed done = ThreeStreamSse42(c64, p, n);
    c64 = done.crc;
    p += done.bytes;
    n -= done.bytes;
  }
  while (n >= 32) {
    std::uint64_t v0, v1, v2, v3;
    std::memcpy(&v0, p, 8);
    std::memcpy(&v1, p + 8, 8);
    std::memcpy(&v2, p + 16, 8);
    std::memcpy(&v3, p + 24, 8);
    c64 = _mm_crc32_u64(c64, v0);
    c64 = _mm_crc32_u64(c64, v1);
    c64 = _mm_crc32_u64(c64, v2);
    c64 = _mm_crc32_u64(c64, v3);
    p += 32;
    n -= 32;
  }
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c64 = _mm_crc32_u64(c64, v);
    p += 8;
    n -= 8;
  }
  c = static_cast<std::uint32_t>(c64);
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  return ~c;
}
#endif  // CLOG_CRC32C_X86

#if defined(CLOG_CRC32C_ARM)
std::uint32_t ExtendArmv8(std::uint32_t crc, const char* data, std::size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
    c = __crc32cb(c, *p++);
    --n;
  }
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c = __crc32cd(c, v);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = __crc32cb(c, *p++);
    --n;
  }
  return ~c;
}
#endif  // CLOG_CRC32C_ARM

using ExtendFn = std::uint32_t (*)(std::uint32_t, const char*, std::size_t);

struct Dispatch {
  ExtendFn fn;
  std::string_view name;
};

Dispatch Choose() {
#if defined(CLOG_CRC32C_X86)
  if (__builtin_cpu_supports("sse4.2")) return {ExtendSse42, "sse4.2"};
#elif defined(CLOG_CRC32C_ARM)
#if defined(__linux__)
  if ((getauxval(AT_HWCAP) & HWCAP_CRC32) != 0) return {ExtendArmv8, "armv8"};
#else
  return {ExtendArmv8, "armv8"};
#endif
#endif
  return {ExtendPortable, "sw"};
}

const Dispatch& Impl() {
  static const Dispatch dispatch = Choose();
  return dispatch;
}

}  // namespace

std::uint32_t ExtendPortable(std::uint32_t crc, const char* data,
                             std::size_t n) {
  const SliceTables& t = Tables();
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
    c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    --n;
  }
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    v ^= c;
    c = t[7][v & 0xFF] ^ t[6][(v >> 8) & 0xFF] ^ t[5][(v >> 16) & 0xFF] ^
        t[4][(v >> 24) & 0xFF] ^ t[3][(v >> 32) & 0xFF] ^
        t[2][(v >> 40) & 0xFF] ^ t[1][(v >> 48) & 0xFF] ^ t[0][v >> 56];
    p += 8;
    n -= 8;
  }
#endif
  while (n > 0) {
    c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    --n;
  }
  return ~c;
}

std::uint32_t Extend(std::uint32_t crc, const char* data, std::size_t n) {
  return Impl().fn(crc, data, n);
}

std::uint32_t Value(const char* data, std::size_t n) {
  return Impl().fn(0, data, n);
}

bool IsHardwareAccelerated() { return Impl().name != "sw"; }

std::string_view ImplName() { return Impl().name; }

}  // namespace clog::crc32c
