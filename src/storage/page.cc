#include "storage/page.h"

#include "common/crc32c.h"

namespace clog {

Page::Page() : frame_(new char[kPageSize]) {
  std::memset(frame_.get(), 0, kPageSize);
  PageHeader* h = mutable_header();
  h->magic = PageHeader::kMagic;
}

Page::Page(const Page& other) : frame_(new char[kPageSize]) {
  std::memcpy(frame_.get(), other.frame_.get(), kPageSize);
}

void Page::Format(PageId id, PageType type, Psn psn_seed) {
  std::memset(frame_.get(), 0, kPageSize);
  PageHeader* h = mutable_header();
  h->magic = PageHeader::kMagic;
  h->packed_id = id.Pack();
  h->psn = psn_seed;
  h->page_lsn = kNullLsn;
  h->type = static_cast<std::uint16_t>(type);
}

void Page::SealChecksum() {
  PageHeader* h = mutable_header();
  h->checksum = crc32c::Value(frame_.get() + 8, kPageSize - 8);
}

Status Page::VerifyChecksum() const {
  const PageHeader& h = header();
  if (h.magic != PageHeader::kMagic) {
    return Status::Corruption("bad page magic");
  }
  std::uint32_t expect = crc32c::Value(frame_.get() + 8, kPageSize - 8);
  if (expect != h.checksum) {
    return Status::Corruption("page checksum mismatch for page " +
                              PageId::Unpack(h.packed_id).ToString());
  }
  return Status::OK();
}

void Page::CopyFrom(const Page& other) {
  std::memcpy(frame_.get(), other.frame_.get(), kPageSize);
}

}  // namespace clog
