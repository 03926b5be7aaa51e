#include "node/node.h"

#include <algorithm>

#include "node/options.h"

/// \file
/// Logging-strategy helpers. B1 (kShipToOwner) models ARIES/CSA-style
/// client-server logging: clients accumulate log records and ship them to
/// the owner — before a dirty page travels (WAL-to-owner) and, with a log
/// force, at commit. B2's force-at-transfer logic lives inline in
/// node.cc/page_service.cc (it reuses the local-logging code plus forces).
///
/// The adaptive strategy (LogStrategy::kAdaptive, docs/PROTOCOLS.md) also
/// lives here: single-node transactions emit compact redo-only records and
/// stash their before-images in memory; the first event that could expose
/// those records to recovery without the stash — a cross-node page, a
/// steal, a rollback — upgrades the transaction to physical logging by
/// backfilling the stash into one kUndoBackfill record.

namespace clog {

std::string_view LoggingModeName(LoggingMode m) {
  switch (m) {
    case LoggingMode::kClientLocal:
      return "client-local";
    case LoggingMode::kShipToOwner:
      return "ship-to-owner";
    case LoggingMode::kForceAtTransfer:
      return "force-at-transfer";
  }
  return "unknown";
}

std::string_view LogStrategyName(LogStrategy s) {
  switch (s) {
    case LogStrategy::kPhysical:
      return "physical";
    case LogStrategy::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Adaptive logging (tentpole): logical emission gates, upgrade, steal barrier
// ---------------------------------------------------------------------------

bool Node::TxnLogsLogical(const Transaction* txn, PageId pid) const {
  // Logical records are only sound while the transaction's updates are the
  // undisputed tail of each touched page's PSN history: the page is owned
  // here (never shipped mid-transaction), the mode is client-local (records
  // never leave this log), and page-grain X locks exclude interleaved
  // writers (record-grain locking would let another transaction extend the
  // page's history past ours, breaking the redo skip rule).
  return txn->strategy == LogStrategy::kAdaptive && !txn->upgraded &&
         OwnsPage(pid) &&
         options_.logging_mode == LoggingMode::kClientLocal &&
         !options_.local_record_locking;
}

Status Node::UpgradeTxnToPhysical(Transaction* txn) {
  if (txn->upgraded) return Status::OK();
  txn->upgraded = true;
  if (txn->logical_undos.empty()) return Status::OK();
  LogRecord rec;
  rec.type = LogRecordType::kUndoBackfill;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.backfill.reserve(txn->logical_undos.size());
  for (const auto& [covered_lsn, undo_image] : txn->logical_undos) {
    BackfillEntry e;
    e.covered_lsn = covered_lsn;
    e.undo_image = undo_image;
    rec.backfill.push_back(std::move(e));
  }
  Lsn lsn = kNullLsn;
  // Bypasses the capacity check like rollback records: upgrades run inside
  // steals and aborts, where re-entering reclamation could recurse.
  CLOG_RETURN_IF_ERROR(log_.Append(rec, &lsn, /*enforce_capacity=*/false));
  txn->last_lsn = lsn;
  --live_logical_txns_;
  ctr_txn_upgrades_->Add(1);
  return Status::OK();
}

Status Node::PrepareSteal(PageId pid) {
  // Fast path: nothing on this node currently relies on a volatile stash.
  if (live_logical_txns_ == 0 || !OwnsPage(pid)) return Status::OK();
  Lsn fence = kNullLsn;
  auto raise = [&fence](Lsn lsn) {
    if (lsn == kNullLsn) return;
    if (fence == kNullLsn || lsn > fence) fence = lsn;
  };
  for (const Transaction* t : txns_.Active()) {
    if (t->strategy != LogStrategy::kAdaptive || t->upgraded ||
        t->logical_undos.empty()) {
      continue;
    }
    if (!std::binary_search(t->updated_pages.begin(), t->updated_pages.end(),
                            pid)) {
      continue;
    }
    Transaction* txn = txns_.Find(t->id);
    if (txn->state == TxnState::kCommitting) {
      // Parked group commit: its commit record is already appended
      // (last_lsn), so forcing that makes every record replayable — no
      // backfill needed, and appending one after the commit would be
      // malformed anyway.
      raise(txn->last_lsn);
    } else {
      CLOG_RETURN_IF_ERROR(UpgradeTxnToPhysical(txn));
      raise(txn->last_lsn);
    }
  }
  // The page may carry bytes whose undo (or commit) exists only in the
  // unforced tail; make it durable before the page image can hit a disk.
  if (fence != kNullLsn) CLOG_RETURN_IF_ERROR(ForceLog(fence));
  return Status::OK();
}

void Node::ReleaseLogicalState(const Transaction* txn) {
  // Resurrected losers default to kPhysical even when their stash was
  // refilled from a backfill record, so this never underflows the count.
  if (txn->HoldsLogicalRecords()) --live_logical_txns_;
}

Status Node::ShipPendingRecords(Transaction* txn, bool force,
                                const PageId* only_page) {
  // Partition the pending records: those covered by the filter ship now,
  // the rest stay pending.
  std::map<NodeId, std::vector<LogRecord>> batches;
  std::vector<LogRecord> keep;
  for (LogRecord& rec : txn->pending_records) {
    bool covered = only_page == nullptr || rec.page == *only_page;
    if (covered) {
      batches[OwnerOf(rec.page)].push_back(std::move(rec));
    } else {
      keep.push_back(std::move(rec));
    }
  }
  txn->pending_records = std::move(keep);

  if (force) {
    // Commit processing: every involved owner gets the commit record; a
    // read-only transaction ships nothing and stays message-free.
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn = txn->id;
    for (auto& [owner, batch] : batches) {
      if (owner != id_) batch.push_back(commit);
    }
  }

  bool logged_locally = false;
  for (auto& [owner, batch] : batches) {
    if (batch.empty()) continue;
    if (owner == id_) {
      // Records for our own pages go straight into the local log (the
      // owner in ARIES/CSA logs normally). At commit the record batch is
      // completed with the commit record and forced — a server's own
      // transactions are durable in its own log.
      Lsn lsn = kNullLsn;
      for (const LogRecord& rec : batch) {
        CLOG_RETURN_IF_ERROR(AppendWithReclaim(rec, &lsn));
      }
      if (force) {
        LogRecord commit;
        commit.type = LogRecordType::kCommit;
        commit.txn = txn->id;
        CLOG_RETURN_IF_ERROR(AppendWithReclaim(commit, &lsn));
      }
      if (force || only_page != nullptr) {
        // Commit force, or WAL before the page leaves the cache.
        CLOG_RETURN_IF_ERROR(ForceLog(lsn));
      }
      logged_locally = true;
    } else {
      CLOG_RETURN_IF_ERROR(network_->LogShip(id_, owner, batch, force));
      metrics_.GetCounter("b1.records_shipped").Add(batch.size());
    }
  }

  if (force && options_.has_local_log && !logged_locally) {
    // Pure-remote commit: a local commit record for bookkeeping only. The
    // durable copy is the owner's, so ARIES/CSA clients do NOT force
    // their local disk at commit (that is the whole point of the
    // comparison against client-based logging).
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn = txn->id;
    Lsn lsn = kNullLsn;
    CLOG_RETURN_IF_ERROR(AppendWithReclaim(commit, &lsn));
  }
  return Status::OK();
}

}  // namespace clog
