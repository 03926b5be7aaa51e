#include "wal/log_record.h"

#include "storage/slotted_page.h"

namespace clog {

Status ApplyRedo(const PageUpdate& rec, Page* page) {
  if (rec.psn_before != page->psn()) {
    return Status::FailedPrecondition(
        "psn mismatch applying " + rec.ToString() + " to page at psn " +
        std::to_string(page->psn()));
  }
  SlottedPage sp(page);
  switch (rec.op) {
    case RecordOp::kInsert:
      CLOG_RETURN_IF_ERROR(sp.InsertAt(rec.slot, rec.redo_image));
      break;
    case RecordOp::kUpdate:
      CLOG_RETURN_IF_ERROR(sp.Update(rec.slot, rec.redo_image));
      break;
    case RecordOp::kDelete:
      CLOG_RETURN_IF_ERROR(sp.Delete(rec.slot));
      break;
    case RecordOp::kFormat:
      page->Format(rec.page, PageType::kData, rec.psn_before);
      sp.InitBody();
      break;
  }
  page->BumpPsn();
  return Status::OK();
}

std::string_view LogRecordTypeName(LogRecordType t) {
  switch (t) {
    case LogRecordType::kBegin:
      return "BEGIN";
    case LogRecordType::kCommit:
      return "COMMIT";
    case LogRecordType::kAbort:
      return "ABORT";
    case LogRecordType::kEnd:
      return "END";
    case LogRecordType::kUpdate:
      return "UPDATE";
    case LogRecordType::kClr:
      return "CLR";
    case LogRecordType::kSavepoint:
      return "SAVEPOINT";
    case LogRecordType::kCheckpointBegin:
      return "CKPT_BEGIN";
    case LogRecordType::kCheckpointEnd:
      return "CKPT_END";
    case LogRecordType::kLogicalUpdate:
      return "LOGICAL_UPDATE";
    case LogRecordType::kUndoBackfill:
      return "UNDO_BACKFILL";
  }
  return "UNKNOWN";
}

namespace {

/// Little-endian stores into a stack scratch buffer. The update-record
/// encode is on the lock-free append hot path; staging the fixed-width
/// header fields here and appending them in ONE string operation (instead
/// of a size/capacity check per field) is worth tens of nanoseconds per
/// record. Byte-for-byte identical to the Encoder it bypasses.
inline char* StoreU8(char* p, std::uint8_t v) {
  *p++ = static_cast<char>(v);
  return p;
}
inline char* StoreU16(char* p, std::uint16_t v) {
  for (std::size_t i = 0; i < 2; ++i) {
    *p++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return p;
}
inline char* StoreU64(char* p, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    *p++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return p;
}

}  // namespace

void PageUpdate::EncodeTo(std::string* out) const {
  // type | txn | prev_lsn | page | psn_before | op | slot = 36 bytes.
  char hdr[36];
  char* p = hdr;
  p = StoreU8(p, static_cast<std::uint8_t>(type));
  p = StoreU64(p, txn);
  p = StoreU64(p, prev_lsn);
  p = StoreU64(p, page.Pack());
  p = StoreU64(p, psn_before);
  p = StoreU8(p, static_cast<std::uint8_t>(op));
  p = StoreU16(p, slot);
  out->append(hdr, static_cast<std::size_t>(p - hdr));
  Encoder enc(out);
  enc.PutLengthPrefixed(redo_image);
  // The whole point of a logical record: no before-image on disk.
  if (type != LogRecordType::kLogicalUpdate) {
    enc.PutLengthPrefixed(undo_image);
  }
  if (type == LogRecordType::kClr) enc.PutU64(undo_next_lsn);
}

LogRecord PageUpdate::ToRecord() const {
  LogRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.prev_lsn = prev_lsn;
  rec.page = page;
  rec.psn_before = psn_before;
  rec.op = op;
  rec.slot = slot;
  rec.redo_image = redo_image.ToString();
  rec.undo_image = undo_image.ToString();
  rec.undo_next_lsn = undo_next_lsn;
  return rec;
}

std::string PageUpdate::ToString() const {
  std::string out(LogRecordTypeName(type));
  out += " txn=" + std::to_string(txn & 0xFFFFFFFFFFFFull);
  out += " page=" + page.ToString();
  out += " psn_before=" + std::to_string(psn_before);
  out += " slot=" + std::to_string(slot);
  return out;
}

void LogRecord::EncodeTo(std::string* out) const {
  if (IsPageUpdate()) {
    AsPageUpdate().EncodeTo(out);
    return;
  }
  Encoder enc(out);
  enc.PutU8(static_cast<std::uint8_t>(type));
  enc.PutU64(txn);
  enc.PutU64(prev_lsn);
  switch (type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kClr:
    case LogRecordType::kLogicalUpdate:
      break;  // Encoded as a PageUpdate above.
    case LogRecordType::kSavepoint:
      enc.PutLengthPrefixed(savepoint_name);
      break;
    case LogRecordType::kUndoBackfill:
      enc.PutVarint64(backfill.size());
      for (const BackfillEntry& e : backfill) {
        enc.PutU64(e.covered_lsn);
        enc.PutLengthPrefixed(e.undo_image);
      }
      break;
    case LogRecordType::kCheckpointEnd:
      enc.PutU64(checkpoint_begin_lsn);
      enc.PutVarint64(dpt.size());
      for (const DptEntry& e : dpt) {
        enc.PutU64(e.pid.Pack());
        enc.PutU64(e.psn);
        enc.PutU64(e.curr_psn);
        enc.PutU64(e.redo_lsn);
      }
      enc.PutVarint64(att.size());
      for (const AttEntry& e : att) {
        enc.PutU64(e.txn);
        enc.PutU64(e.last_lsn);
      }
      // Trailing optional field: present only when a sealed archive pass
      // exists, so checkpoints written with archiving off (or by older
      // builds) keep their exact bytes.
      if (archive_seq != 0) enc.PutU64(archive_seq);
      break;
    default:
      break;
  }
}

Status LogRecord::DecodeFrom(Slice body, LogRecord* out) {
  *out = LogRecord();
  Decoder dec(body);
  std::uint8_t type8 = 0;
  CLOG_RETURN_IF_ERROR(dec.GetU8(&type8));
  if (type8 < 1 || type8 > 11) {
    return Status::Corruption("bad log record type");
  }
  out->type = static_cast<LogRecordType>(type8);
  CLOG_RETURN_IF_ERROR(dec.GetU64(&out->txn));
  CLOG_RETURN_IF_ERROR(dec.GetU64(&out->prev_lsn));
  switch (out->type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kClr:
    case LogRecordType::kLogicalUpdate: {
      std::uint64_t packed = 0;
      std::uint8_t op8 = 0;
      CLOG_RETURN_IF_ERROR(dec.GetU64(&packed));
      out->page = PageId::Unpack(packed);
      CLOG_RETURN_IF_ERROR(dec.GetU64(&out->psn_before));
      CLOG_RETURN_IF_ERROR(dec.GetU8(&op8));
      if (op8 < 1 || op8 > 4) return Status::Corruption("bad record op");
      out->op = static_cast<RecordOp>(op8);
      CLOG_RETURN_IF_ERROR(dec.GetU16(&out->slot));
      CLOG_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->redo_image));
      if (out->type != LogRecordType::kLogicalUpdate) {
        CLOG_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->undo_image));
      }
      if (out->type == LogRecordType::kClr) {
        CLOG_RETURN_IF_ERROR(dec.GetU64(&out->undo_next_lsn));
      }
      break;
    }
    case LogRecordType::kSavepoint:
      CLOG_RETURN_IF_ERROR(dec.GetLengthPrefixed(&out->savepoint_name));
      break;
    case LogRecordType::kUndoBackfill: {
      std::uint64_t n = 0;
      CLOG_RETURN_IF_ERROR(dec.GetVarint64(&n));
      out->backfill.resize(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        CLOG_RETURN_IF_ERROR(dec.GetU64(&out->backfill[i].covered_lsn));
        CLOG_RETURN_IF_ERROR(
            dec.GetLengthPrefixed(&out->backfill[i].undo_image));
      }
      break;
    }
    case LogRecordType::kCommit:
      // Nothing past the header. Adaptive commits written by older builds
      // carry a trailing flag and dependency block; it is ignored.
      break;
    case LogRecordType::kCheckpointEnd: {
      CLOG_RETURN_IF_ERROR(dec.GetU64(&out->checkpoint_begin_lsn));
      std::uint64_t n = 0;
      CLOG_RETURN_IF_ERROR(dec.GetVarint64(&n));
      out->dpt.resize(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t packed = 0;
        CLOG_RETURN_IF_ERROR(dec.GetU64(&packed));
        out->dpt[i].pid = PageId::Unpack(packed);
        CLOG_RETURN_IF_ERROR(dec.GetU64(&out->dpt[i].psn));
        CLOG_RETURN_IF_ERROR(dec.GetU64(&out->dpt[i].curr_psn));
        CLOG_RETURN_IF_ERROR(dec.GetU64(&out->dpt[i].redo_lsn));
      }
      CLOG_RETURN_IF_ERROR(dec.GetVarint64(&n));
      out->att.resize(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        CLOG_RETURN_IF_ERROR(dec.GetU64(&out->att[i].txn));
        CLOG_RETURN_IF_ERROR(dec.GetU64(&out->att[i].last_lsn));
      }
      if (!dec.Done()) {
        CLOG_RETURN_IF_ERROR(dec.GetU64(&out->archive_seq));
      }
      break;
    }
    default:
      break;
  }
  return Status::OK();
}

std::string LogRecord::ToString() const {
  if (IsPageUpdate()) return AsPageUpdate().ToString();
  std::string out(LogRecordTypeName(type));
  out += " txn=" + std::to_string(txn & 0xFFFFFFFFFFFFull);
  if (type == LogRecordType::kUndoBackfill) {
    out += " covers=" + std::to_string(backfill.size());
  }
  return out;
}

}  // namespace clog
