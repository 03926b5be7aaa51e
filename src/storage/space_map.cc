#include "storage/space_map.h"

#include "common/codec.h"
#include "common/fsutil.h"

namespace clog {

namespace {
constexpr std::uint32_t kMapMagic = 0x534D4150;  // "SMAP"
}  // namespace

Status SpaceMap::Open(const std::string& path) {
  path_ = path;
  entries_.clear();
  next_fresh_ = 0;
  return Load();
}

Status SpaceMap::Load() {
  std::string body;
  Status st = ReadRecordFile(path_, kMapMagic, &body);
  if (st.IsNotFound()) return Status::OK();  // Fresh database.
  CLOG_RETURN_IF_ERROR(st);
  Decoder dec(body);
  std::uint32_t fresh = 0;
  std::uint64_t count = 0;
  CLOG_RETURN_IF_ERROR(dec.GetU32(&fresh));
  CLOG_RETURN_IF_ERROR(dec.GetVarint64(&count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t page_no = 0;
    std::uint8_t allocated = 0;
    std::uint64_t seed = 0;
    CLOG_RETURN_IF_ERROR(dec.GetU32(&page_no));
    CLOG_RETURN_IF_ERROR(dec.GetU8(&allocated));
    CLOG_RETURN_IF_ERROR(dec.GetVarint64(&seed));
    entries_[page_no] = Entry{allocated != 0, seed};
  }
  next_fresh_ = fresh;
  return Status::OK();
}

Status SpaceMap::Persist() const {
  std::string body;
  Encoder enc(&body);
  enc.PutU32(next_fresh_);
  enc.PutVarint64(entries_.size());
  for (const auto& [page_no, e] : entries_) {
    enc.PutU32(page_no);
    enc.PutU8(e.allocated ? 1 : 0);
    enc.PutVarint64(e.psn_seed);
  }
  return WriteRecordFile(path_, kMapMagic, body);
}

Result<std::uint32_t> SpaceMap::Allocate() {
  // Reuse the lowest freed page if any, else take a fresh number.
  std::uint32_t chosen = next_fresh_;
  bool reused = false;
  for (const auto& [page_no, e] : entries_) {
    if (!e.allocated) {
      chosen = page_no;
      reused = true;
      break;
    }
  }
  if (reused) {
    entries_[chosen].allocated = true;
  } else {
    entries_[chosen] = Entry{true, 0};
    next_fresh_ = chosen + 1;
  }
  Status st = Persist();
  if (!st.ok()) return st;
  return chosen;
}

Status SpaceMap::Free(std::uint32_t page_no, Psn last_psn) {
  auto it = entries_.find(page_no);
  if (it == entries_.end() || !it->second.allocated) {
    return Status::NotFound("page not allocated: " + std::to_string(page_no));
  }
  it->second.allocated = false;
  it->second.psn_seed = last_psn + 1;
  return Persist();
}

bool SpaceMap::IsAllocated(std::uint32_t page_no) const {
  auto it = entries_.find(page_no);
  return it != entries_.end() && it->second.allocated;
}

Psn SpaceMap::PsnSeed(std::uint32_t page_no) const {
  auto it = entries_.find(page_no);
  return it == entries_.end() ? 0 : it->second.psn_seed;
}

std::vector<std::uint32_t> SpaceMap::AllocatedPages() const {
  std::vector<std::uint32_t> out;
  for (const auto& [page_no, e] : entries_) {
    if (e.allocated) out.push_back(page_no);
  }
  return out;
}

std::size_t SpaceMap::AllocatedCount() const {
  std::size_t n = 0;
  for (const auto& [_, e] : entries_) n += e.allocated;
  return n;
}

}  // namespace clog
