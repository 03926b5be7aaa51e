#include "node/handoff_ledger.h"

#include <utility>

#include "common/codec.h"
#include "common/fsutil.h"

namespace clog {
namespace {

/// "CHND" — handoff ledger blob magic.
constexpr std::uint32_t kHandoffMagic = 0x43484E44u;

}  // namespace

Status HandoffLedger::Open(const std::string& dir) {
  path_ = dir + "/node.handoff";
  inflight_.clear();
  ceded_.clear();
  adopted_.clear();
  std::string body;
  Status st = ReadRecordFile(path_, kHandoffMagic, &body);
  if (st.IsNotFound()) return Status::OK();  // Never handed off: no file.
  CLOG_RETURN_IF_ERROR(st);
  Decoder dec(body);
  std::uint64_t n = 0;
  CLOG_RETURN_IF_ERROR(dec.GetVarint64(&n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t pid = 0;
    std::uint32_t target = 0;
    std::uint8_t phase = 0;
    std::uint64_t seed = 0;
    CLOG_RETURN_IF_ERROR(dec.GetU64(&pid));
    CLOG_RETURN_IF_ERROR(dec.GetU32(&target));
    CLOG_RETURN_IF_ERROR(dec.GetU8(&phase));
    CLOG_RETURN_IF_ERROR(dec.GetU64(&seed));
    inflight_[pid] = InflightHandoff{
        target, static_cast<HandoffLedgerPhase>(phase), seed};
  }
  CLOG_RETURN_IF_ERROR(dec.GetVarint64(&n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t pid = 0;
    std::uint32_t target = 0;
    CLOG_RETURN_IF_ERROR(dec.GetU64(&pid));
    CLOG_RETURN_IF_ERROR(dec.GetU32(&target));
    ceded_[pid] = target;
  }
  CLOG_RETURN_IF_ERROR(dec.GetVarint64(&n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t pid = 0, psn = 0, seed = 0;
    CLOG_RETURN_IF_ERROR(dec.GetU64(&pid));
    CLOG_RETURN_IF_ERROR(dec.GetU64(&psn));
    CLOG_RETURN_IF_ERROR(dec.GetU64(&seed));
    std::string image;
    CLOG_RETURN_IF_ERROR(dec.GetRaw(kPageSize, &image));
    adopted_[pid] = Adoption{psn, seed, std::move(image)};
  }
  return Status::OK();
}

Status HandoffLedger::RecordPrepare(PageId pid, NodeId target, Psn seed_psn) {
  inflight_[pid.Pack()] =
      InflightHandoff{target, HandoffLedgerPhase::kPrepared, seed_psn};
  return Persist();
}

Status HandoffLedger::RecordShipped(PageId pid) {
  auto it = inflight_.find(pid.Pack());
  if (it == inflight_.end()) {
    return Status::FailedPrecondition("handoff not prepared");
  }
  it->second.phase = HandoffLedgerPhase::kShipped;
  return Persist();
}

Status HandoffLedger::AbortHandoff(PageId pid) {
  if (inflight_.erase(pid.Pack()) == 0) return Status::OK();
  return Persist();
}

Status HandoffLedger::RecordCeded(PageId pid, NodeId target) {
  inflight_.erase(pid.Pack());
  adopted_.erase(pid.Pack());
  ceded_[pid.Pack()] = target;
  return Persist();
}

Status HandoffLedger::RecordReturned(PageId pid) {
  if (ceded_.erase(pid.Pack()) == 0) return Status::OK();
  return Persist();
}

std::optional<InflightHandoff> HandoffLedger::Inflight(PageId pid) const {
  auto it = inflight_.find(pid.Pack());
  if (it == inflight_.end()) return std::nullopt;
  return it->second;
}

std::vector<PageId> HandoffLedger::InflightPages() const {
  std::vector<PageId> out;
  out.reserve(inflight_.size());
  for (const auto& [packed, rec] : inflight_) {
    out.push_back(PageId::Unpack(packed));
  }
  return out;
}

Status HandoffLedger::RecordAdopted(PageId pid, const Page& image,
                                    Psn seed_psn) {
  Page sealed(image);
  sealed.SealChecksum();
  Adoption rec;
  rec.psn = sealed.psn();
  rec.seed_psn = seed_psn;
  rec.image.assign(sealed.data(), kPageSize);
  adopted_[pid.Pack()] = std::move(rec);
  // Adopting a page this node once ceded away (it came back) retires the
  // tombstone: the ledger again claims current ownership.
  ceded_.erase(pid.Pack());
  return Persist();
}

Status HandoffLedger::UpdateAdoptedImage(PageId pid, const Page& image) {
  auto it = adopted_.find(pid.Pack());
  if (it == adopted_.end()) {
    return Status::FailedPrecondition("page not adopted");
  }
  Page sealed(image);
  sealed.SealChecksum();
  it->second.psn = sealed.psn();
  it->second.image.assign(sealed.data(), kPageSize);
  return Persist();
}

Status HandoffLedger::ReadAdopted(PageId pid, Page* out) const {
  auto it = adopted_.find(pid.Pack());
  if (it == adopted_.end()) return Status::NotFound("page not adopted");
  if (it->second.image.size() != kPageSize) {
    return Status::Corruption("adopted image size");
  }
  std::memcpy(out->data(), it->second.image.data(), kPageSize);
  return out->VerifyChecksum();
}

Psn HandoffLedger::AdoptedPsn(PageId pid) const {
  auto it = adopted_.find(pid.Pack());
  return it == adopted_.end() ? 0 : it->second.psn;
}

Psn HandoffLedger::AdoptedSeedPsn(PageId pid) const {
  auto it = adopted_.find(pid.Pack());
  return it == adopted_.end() ? 0 : it->second.seed_psn;
}

std::vector<PageId> HandoffLedger::AdoptedPages() const {
  std::vector<PageId> out;
  out.reserve(adopted_.size());
  for (const auto& [packed, rec] : adopted_) {
    out.push_back(PageId::Unpack(packed));
  }
  return out;
}

Status HandoffLedger::Persist() const {
  if (empty()) return RemoveFileIfExists(path_);
  std::string body;
  Encoder enc(&body);
  enc.PutVarint64(inflight_.size());
  for (const auto& [pid, rec] : inflight_) {
    enc.PutU64(pid);
    enc.PutU32(rec.target);
    enc.PutU8(static_cast<std::uint8_t>(rec.phase));
    enc.PutU64(rec.seed_psn);
  }
  enc.PutVarint64(ceded_.size());
  for (const auto& [pid, target] : ceded_) {
    enc.PutU64(pid);
    enc.PutU32(target);
  }
  enc.PutVarint64(adopted_.size());
  for (const auto& [pid, rec] : adopted_) {
    enc.PutU64(pid);
    enc.PutU64(rec.psn);
    enc.PutU64(rec.seed_psn);
    enc.PutRaw(Slice(rec.image.data(), rec.image.size()));
  }
  return WriteRecordFile(path_, kHandoffMagic, body);
}

}  // namespace clog
