#ifndef CLOG_STORAGE_PAGE_H_
#define CLOG_STORAGE_PAGE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/status.h"
#include "common/types.h"

/// \file
/// In-memory image of a database page. Every page starts with a fixed
/// header carrying the page id and the page sequence number (PSN) that the
/// paper's recovery algorithms are built on (Section 2.1): the PSN is
/// incremented by one every time the page is updated, and the PSN a page had
/// *before* an update is stored in the update's log record.

namespace clog {

/// Discriminates how the page body is interpreted.
enum class PageType : std::uint16_t {
  kFree = 0,   ///< Unallocated / zeroed.
  kData = 1,   ///< Slotted record page.
};

/// Byte layout of the fixed page header (little-endian on disk; this struct
/// is only the logical view, serialization is explicit).
struct PageHeader {
  static constexpr std::uint32_t kMagic = 0x434C4F47;  // "CLOG"
  static constexpr std::size_t kSize = 40;

  std::uint32_t magic = kMagic;
  std::uint32_t checksum = 0;   ///< CRC32C of bytes [8, kPageSize).
  std::uint64_t packed_id = 0;  ///< PageId::Pack() of this page.
  Psn psn = 0;                  ///< Update counter (paper Section 2.1).
  /// LSN of the last record of this node's log that updated the page (the
  /// WAL check). kNullLsn for an image installed from another node
  /// (Node::InstallShippedCopy): that node forced its records before the
  /// image left, and none of this node's log backs it.
  Lsn page_lsn = kNullLsn;
  std::uint16_t type = 0;       ///< PageType.
  std::uint16_t reserved = 0;
  std::uint32_t reserved2 = 0;
};
static_assert(PageHeader::kSize >= sizeof(PageHeader));

/// A kPageSize byte frame plus typed access to the header. Page is the unit
/// of inter-node transfer, locking, and callback (paper Section 2.1).
class Page {
 public:
  Page();

  /// Copies the whole frame of `other` into a fresh allocation, without
  /// zero-filling it first.
  Page(const Page& other);
  Page& operator=(const Page&) = delete;
  Page(Page&&) noexcept = default;
  Page& operator=(Page&&) noexcept = default;

  /// Zeroes the frame and formats the header for `id` with initial PSN
  /// `psn_seed` (taken from the owner's space allocation map, following the
  /// ARIES/CSA technique the paper adopts).
  void Format(PageId id, PageType type, Psn psn_seed);

  PageId id() const { return PageId::Unpack(header().packed_id); }
  Psn psn() const { return header().psn; }
  PageType type() const { return static_cast<PageType>(header().type); }
  Lsn page_lsn() const { return header().page_lsn; }

  void set_psn(Psn psn) { mutable_header()->psn = psn; }
  void set_page_lsn(Lsn lsn) { mutable_header()->page_lsn = lsn; }

  /// Increments the PSN by one (call once per logged update).
  void BumpPsn() { ++mutable_header()->psn; }

  /// Raw frame access.
  char* data() { return frame_.get(); }
  const char* data() const { return frame_.get(); }

  /// Body (bytes after the header) available to the record manager.
  char* body() { return frame_.get() + PageHeader::kSize; }
  const char* body() const { return frame_.get() + PageHeader::kSize; }
  static constexpr std::size_t BodySize() {
    return kPageSize - PageHeader::kSize;
  }

  /// Recomputes and stores the header checksum; call before writing to disk
  /// or shipping across the network.
  void SealChecksum();

  /// Verifies the stored checksum and magic; Corruption on mismatch.
  Status VerifyChecksum() const;

  /// Deep copy of the whole frame.
  void CopyFrom(const Page& other);

 private:
  const PageHeader& header() const {
    return *reinterpret_cast<const PageHeader*>(frame_.get());
  }
  PageHeader* mutable_header() {
    return reinterpret_cast<PageHeader*>(frame_.get());
  }

  std::unique_ptr<char[]> frame_;
};

}  // namespace clog

#endif  // CLOG_STORAGE_PAGE_H_
