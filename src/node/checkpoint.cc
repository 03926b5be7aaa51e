#include "node/node.h"
#include "trace/trace_sink.h"

/// \file
/// Fuzzy checkpointing (paper Section 2.2). Checkpoints are entirely local:
/// no page forcing, no communication, no synchronization with other nodes —
/// key advantage (4) in the paper's conclusions. The checkpoint logs the
/// dirty page table and the active-transaction table; the master side file
/// points at the last *complete* checkpoint.

namespace clog {

Status Node::Checkpoint() {
  if (state_ != NodeState::kUp) return Status::NodeDown("node not up");
  if (!options_.has_local_log) {
    return Status::OK();  // Nothing to checkpoint without a local log.
  }

  // Settle the commit group before snapshotting the ATT. A parked commit's
  // COMMIT record lies *before* the checkpoint-begin record this checkpoint
  // installs as the analysis start: if the transaction were checkpointed as
  // live and its END (appended when a later force completes it) did not
  // survive the crash, analysis would miss the commit record entirely and
  // undo an acknowledged commit. Draining first keeps kCommitting
  // transactions out of every durable ATT.
  CLOG_RETURN_IF_ERROR(FlushCommitGroup());

  // Checkpoints bypass the capacity check: they are how a full log gets
  // its reclaim horizon moved, so refusing them would wedge the node.
  LogRecord begin;
  begin.type = LogRecordType::kCheckpointBegin;
  Lsn begin_lsn = kNullLsn;
  CLOG_RETURN_IF_ERROR(
      log_.Append(begin, &begin_lsn, /*enforce_capacity=*/false));
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kCheckpointBegin, begin_lsn);
  }

  LogRecord end;
  end.type = LogRecordType::kCheckpointEnd;
  end.checkpoint_begin_lsn = begin_lsn;
  end.dpt = dpt_.ToEntries();
  end.att = txns_.Snapshot();
  // The seq of the last pass *sealed before this record is written*: the
  // pass below runs after the force, so it cannot be named here. Zero when
  // archiving is off, keeping the record's bytes unchanged.
  end.archive_seq = archive_.is_open() ? archive_.seq() : 0;
  Lsn end_lsn = kNullLsn;
  CLOG_RETURN_IF_ERROR(
      log_.Append(end, &end_lsn, /*enforce_capacity=*/false));

  CLOG_RETURN_IF_ERROR(ForceLog(end_lsn));
  CLOG_RETURN_IF_ERROR(log_.StoreMaster(end_lsn));
  // Durable log-extent mark, on the metadata device: a later restart that
  // finds the log shorter than this knows the log *device* was destroyed,
  // not merely an unforced tail lost (media failure detection).
  CLOG_RETURN_IF_ERROR(log_.StoreMark());

  last_ckpt_begin_ = begin_lsn;
  AdvanceReclaimHorizon();
  metrics_.GetCounter("checkpoints").Add(1);
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kCheckpointEnd, end_lsn,
                 static_cast<std::uint64_t>(end.dpt.size()),
                 static_cast<std::uint32_t>(end.att.size()));
  }

  // Fuzzy archive pass, after the force: every update in any page image
  // copied below is covered by a durable log record — locally because
  // ArchivePass runs each dirty frame through WalBeforePageLeaves (which
  // finds this force already done), remotely because the sender's gate
  // held when the page was shipped here. That is the archive's WAL rule.
  if (archive_.is_open()) CLOG_RETURN_IF_ERROR(ArchivePass());
  return Status::OK();
}

}  // namespace clog
