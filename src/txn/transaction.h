#ifndef CLOG_TXN_TRANSACTION_H_
#define CLOG_TXN_TRANSACTION_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "node/options.h"
#include "wal/log_record.h"

/// \file
/// Per-transaction volatile state. Transactions execute entirely on the
/// node that started them (paper Section 2.1); this struct is bookkeeping
/// only — the node engine drives logging, locking, and rollback.

namespace clog {

/// Lifecycle of a transaction.
enum class TxnState : std::uint8_t {
  kActive = 0,
  kCommitted,
  kAborted,
  /// Group commit: the commit record is appended (and the transaction can
  /// no longer be aborted) but not yet durable; the transaction is parked
  /// until a shared log force covers its commit LSN. Never acknowledged to
  /// the caller while in this state.
  kCommitting,
};

/// A savepoint a partial rollback can return to (paper Section 2.2).
struct Savepoint {
  std::string name;
  Lsn lsn = kNullLsn;  ///< LSN of the kSavepoint log record.
};

/// Volatile descriptor of one transaction.
struct Transaction {
  TxnId id = kInvalidTxnId;
  TxnState state = TxnState::kActive;

  Lsn first_lsn = kNullLsn;  ///< LSN of kBegin (log truncation barrier).
  Lsn last_lsn = kNullLsn;   ///< Most recent record (undo chain head).

  std::vector<Savepoint> savepoints;

  /// Pages this transaction updated, ascending and without duplicates
  /// (commit processing in the baseline modes forces/ships them; the
  /// adaptive steal fence looks pages up in it). A sorted vector: a
  /// transaction touches few pages.
  std::vector<PageId> updated_pages;

  /// Baseline B1 (ship-to-owner) only: log records not yet shipped.
  std::vector<LogRecord> pending_records;

  /// Transactions that blocked this one on its last Busy result; feeds the
  /// cluster deadlock detector.
  std::vector<TxnId> last_blockers;

  std::uint64_t updates = 0;  ///< Logged update count (metrics).

  // --- Adaptive logging (LogStrategy::kAdaptive) ---

  /// Strategy resolved at Begin (node policy, possibly overridden per-txn).
  LogStrategy strategy = LogStrategy::kPhysical;
  /// True once the transaction has been upgraded to physical logging (its
  /// stashed before-images were backfilled into the log, or it had none).
  /// Upgraded transactions never emit another logical record.
  bool upgraded = false;
  /// Volatile before-images of this transaction's kLogicalUpdate records,
  /// keyed by record LSN. Discarded at commit; written into one
  /// kUndoBackfill record on upgrade; consulted by rollback (and refilled
  /// from the backfill record when a resurrected loser rolls back).
  std::map<Lsn, std::string> logical_undos;

  /// True while some of the transaction's updates are logged only as
  /// logical records, their undo images held in the stash: adaptive, never
  /// upgraded, and with a stash.
  bool HoldsLogicalRecords() const {
    return strategy == LogStrategy::kAdaptive && !upgraded &&
           !logical_undos.empty();
  }
};

}  // namespace clog

#endif  // CLOG_TXN_TRANSACTION_H_
