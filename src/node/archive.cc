#include "node/archive.h"

#include "common/codec.h"
#include "common/fsutil.h"

namespace clog {
namespace {

/// "CARC" — archive meta blob magic.
constexpr std::uint32_t kArchiveMagic = 0x43415243u;
/// "CPSN" — poison ledger blob magic.
constexpr std::uint32_t kPoisonMagic = 0x4350534Eu;

}  // namespace

// --- PageArchive -----------------------------------------------------------

Status PageArchive::Open(const std::string& dir) {
  if (file_.is_open()) return Status::FailedPrecondition("archive open");
  CLOG_RETURN_IF_ERROR(file_.Open(dir + "/node.archive"));
  meta_path_ = dir + "/node.archive.meta";
  seq_ = 0;
  entries_.clear();
  staged_.clear();
  Status st = LoadMeta();
  if (!st.ok() && !st.IsNotFound()) {
    // A torn or corrupt meta file means the last sealed pass is lost, not
    // that the node is broken: start the archive empty and let media
    // recovery fall back to seed rebuild.
    seq_ = 0;
    entries_.clear();
  }
  return Status::OK();
}

Status PageArchive::Close() {
  if (!file_.is_open()) return Status::OK();
  staged_.clear();
  return file_.Close();
}

Psn PageArchive::ArchivedPsn(std::uint32_t page_no) const {
  if (auto it = staged_.find(page_no); it != staged_.end()) return it->second;
  if (auto it = entries_.find(page_no); it != entries_.end()) return it->second;
  return 0;
}

Status PageArchive::ArchivePage(std::uint32_t page_no, const Page& src) {
  if (!file_.is_open()) return Status::FailedPrecondition("archive not open");
  // Copy before writing: WritePage seals the checksum in place, and the
  // source is a live (possibly dirty) buffer-pool frame.
  Page scratch(src);
  CLOG_RETURN_IF_ERROR(file_.WritePage(page_no, &scratch, /*sync=*/false));
  staged_[page_no] = src.psn();
  return Status::OK();
}

Status PageArchive::SealPass() {
  if (!file_.is_open()) return Status::FailedPrecondition("archive not open");
  if (staged_.empty()) return Status::OK();  // Nothing moved; keep the seal.
  CLOG_RETURN_IF_ERROR(file_.Sync());
  CLOG_RETURN_IF_ERROR(StoreMeta(seq_ + 1));
  ++seq_;
  for (const auto& [page_no, psn] : staged_) entries_[page_no] = psn;
  staged_.clear();
  return Status::OK();
}

Status PageArchive::Restore(std::uint32_t page_no, Page* out) {
  if (!file_.is_open()) return Status::FailedPrecondition("archive not open");
  return file_.ReadPage(page_no, out);
}

Status PageArchive::LoadMeta() {
  std::string body;
  CLOG_RETURN_IF_ERROR(ReadRecordFile(meta_path_, kArchiveMagic, &body));
  Decoder dec(body);
  std::uint64_t seq = 0, count = 0;
  CLOG_RETURN_IF_ERROR(dec.GetU64(&seq));
  CLOG_RETURN_IF_ERROR(dec.GetVarint64(&count));
  std::map<std::uint32_t, Psn> entries;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t page_no = 0;
    std::uint64_t psn = 0;
    CLOG_RETURN_IF_ERROR(dec.GetU32(&page_no));
    CLOG_RETURN_IF_ERROR(dec.GetU64(&psn));
    entries[page_no] = psn;
  }
  seq_ = seq;
  entries_ = std::move(entries);
  return Status::OK();
}

Status PageArchive::StoreMeta(std::uint64_t seq) const {
  std::string body;
  Encoder enc(&body);
  enc.PutU64(seq);
  // Sealed entries merged with the pass being sealed.
  std::map<std::uint32_t, Psn> merged = entries_;
  for (const auto& [page_no, psn] : staged_) merged[page_no] = psn;
  enc.PutVarint64(merged.size());
  for (const auto& [page_no, psn] : merged) {
    enc.PutU32(page_no);
    enc.PutU64(psn);
  }
  return WriteRecordFile(meta_path_, kArchiveMagic, body);
}

// --- PoisonLedger ----------------------------------------------------------

Status PoisonLedger::Open(const std::string& dir,
                          const std::string& filename) {
  path_ = dir + "/" + filename;
  entries_.clear();
  std::string body;
  Status st = ReadRecordFile(path_, kPoisonMagic, &body);
  if (st.IsNotFound()) return Status::OK();  // Healthy node: no ledger file.
  CLOG_RETURN_IF_ERROR(st);
  Decoder dec(body);
  std::uint64_t count = 0;
  CLOG_RETURN_IF_ERROR(dec.GetVarint64(&count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t pid = 0, needed = 0;
    CLOG_RETURN_IF_ERROR(dec.GetU64(&pid));
    CLOG_RETURN_IF_ERROR(dec.GetU64(&needed));
    entries_[pid] = needed;
  }
  return Status::OK();
}

Psn PoisonLedger::NeededPsn(PageId pid) const {
  auto it = entries_.find(pid.Pack());
  return it == entries_.end() ? 0 : it->second;
}

Status PoisonLedger::Add(PageId pid, Psn needed_psn) {
  auto [it, inserted] = entries_.try_emplace(pid.Pack(), needed_psn);
  if (!inserted) {
    // Independent verdicts compose as the stricter one: a page both missing
    // a finite PSN range and cursed by a destroyed log stays cursed.
    if (it->second >= needed_psn) return Status::OK();
    it->second = needed_psn;
  }
  return Persist();
}

Status PoisonLedger::Remove(PageId pid) {
  if (entries_.erase(pid.Pack()) == 0) return Status::OK();
  return Persist();
}

Status PoisonLedger::Persist() const {
  if (entries_.empty()) return RemoveFileIfExists(path_);
  std::string body;
  Encoder enc(&body);
  enc.PutVarint64(entries_.size());
  for (const auto& [pid, needed] : entries_) {
    enc.PutU64(pid);
    enc.PutU64(needed);
  }
  return WriteRecordFile(path_, kPoisonMagic, body);
}

}  // namespace clog
