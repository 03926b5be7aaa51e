#include "node/node.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "common/fsutil.h"
#include "fault/fault_injector.h"
#include "trace/trace_sink.h"

namespace clog {

Node::Node(NodeId id, NodeOptions options, Network* network,
           DeadlockDetector* detector)
    : id_(id),
      options_(std::move(options)),
      network_(network),
      detector_(detector),
      pool_(options_.buffer_frames),
      txns_(id),
      trace_(options_.trace_sink),
      ctr_txn_begins_(&metrics_.GetCounter("txn.begins")),
      ctr_txn_commits_(&metrics_.GetCounter("txn.commits")),
      ctr_txn_aborts_(&metrics_.GetCounter("txn.aborts")),
      ctr_txn_updates_(&metrics_.GetCounter("txn.updates")),
      ctr_txn_reads_(&metrics_.GetCounter("txn.reads")),
      ctr_disk_page_reads_(&metrics_.GetCounter("disk.page_reads")),
      ctr_disk_page_writes_(&metrics_.GetCounter("disk.page_writes")),
      ctr_log_forces_(&metrics_.GetCounter("log.forces")),
      hist_commit_ns_(&metrics_.GetHistogram("commit.latency_ns")),
      hist_force_ns_(&metrics_.GetHistogram("force.latency_ns")),
      ctr_pages_shipped_(
          &metrics_.GetCounter("pages.shipped_on_replacement")),
      ctr_lock_grants_(&metrics_.GetCounter("lock.grants")),
      ctr_callbacks_honored_(&metrics_.GetCounter("lock.callbacks_honored")),
      ctr_callback_blocked_(&metrics_.GetCounter("lock.callback_blocked")),
      ctr_txn_begins_adaptive_(&metrics_.GetCounter("txn.begins_adaptive")),
      ctr_txn_commits_logical_(&metrics_.GetCounter("txn.commits_logical")),
      ctr_txn_logical_records_(&metrics_.GetCounter("txn.logical_records")),
      ctr_txn_upgrades_(&metrics_.GetCounter("txn.upgrades")) {
  pool_.SetEvictionHandler([this](PageId pid, Page* page, bool dirty) {
    return OnEviction(pid, page, dirty);
  });
  pool_.set_trace_sink(trace_, id_);
  global_locks_.set_trace_sink(trace_, id_);
}

Node::~Node() = default;

Status Node::OpenStorage() {
  disk_.set_fault_injector(options_.fault_injector, id_);
  log_.set_fault_injector(options_.fault_injector, id_);
  log_.set_trace_sink(trace_, id_);
  CLOG_RETURN_IF_ERROR(disk_.Open(options_.dir + "/node.db"));
  CLOG_RETURN_IF_ERROR(space_map_.Open(options_.dir + "/node.map"));
  if (options_.has_local_log) {
    CLOG_RETURN_IF_ERROR(log_.Open(options_.dir + "/node.log"));
    log_.set_capacity(options_.log_capacity_bytes);
  }
  // Media-recovery side state. The poison ledger is on the metadata device
  // (with the space map); it keeps no file while empty. The restore ledger
  // shares the machinery: pages an interrupted instant-restore epoch planned
  // but never finished, re-probed as lost-page candidates at restart.
  CLOG_RETURN_IF_ERROR(poison_.Open(options_.dir));
  CLOG_RETURN_IF_ERROR(restore_.Open(options_.dir));
  // Elastic membership: the durable ownership ledger (in-flight handoffs,
  // ceded tombstones, adopted pages). File-less on nodes that never handed
  // off a page.
  CLOG_RETURN_IF_ERROR(handoff_.Open(options_.dir));
  if (options_.logging_policy.archive.enabled) {
    CLOG_RETURN_IF_ERROR(archive_.Open(options_.dir));
  }
  return Status::OK();
}

Status Node::Start() {
  if (state_ != NodeState::kDown) {
    return Status::FailedPrecondition("node already started");
  }
  if (!options_.has_local_log &&
      options_.logging_mode != LoggingMode::kShipToOwner) {
    return Status::InvalidArgument(
        "nodes without a local log must use kShipToOwner");
  }
  CLOG_RETURN_IF_ERROR(OpenStorage());
  network_->RegisterNode(id_, this);
  network_->SetNodeUp(id_, true);
  state_ = NodeState::kUp;
  recovery_redo_done_ = true;
  RegisterHandoffState();
  return Status::OK();
}

void Node::Crash() {
  pool_.DropAll();
  dpt_.Clear();
  lock_cache_.Clear();
  global_locks_.Clear();
  for (const Transaction* t : txns_.Active()) detector_->RemoveTxn(t->id);
  txns_.Clear();
  replacers_.clear();
  // Volatile handoff fences die with the crash; restart rebuilds them from
  // the durable ledger's in-flight records.
  handoff_fenced_.clear();
  last_ckpt_begin_ = kNullLsn;
  // Parked commits die with the crash: they were never ACKed, their COMMIT
  // records ride the unforced tail, and recovery decides their fate.
  commit_group_.clear();
  completing_group_ = false;
  log_.Abandon();   // Unforced log tail is lost with the crash.
  disk_.Close().ok();
  archive_.Close().ok();
  // Volatile restore plans die with the crash; the durable restore ledger
  // survives and tells the next restart which pages were still rebuilding.
  restore_.Reset();
  // Media failure: an armed device loss takes effect at the crash point.
  // The data device is node.db alone; the log device is node.log plus its
  // master pointer (which points into the log and must die with it). The
  // space map, poison ledger, log mark, and archive are modeled as living
  // on separate metadata/archive devices and survive.
  if (options_.fault_injector != nullptr) {
    switch (options_.fault_injector->OnCrash(id_)) {
      case DeviceFault::kNone:
        break;
      case DeviceFault::kDestroyDataFile:
        RemoveFileIfExists(options_.dir + "/node.db").ok();
        metrics_.GetCounter("media.data_device_lost").Add(1);
        break;
      case DeviceFault::kDestroyLogFile:
        RemoveFileIfExists(options_.dir + "/node.log").ok();
        RemoveFileIfExists(options_.dir + "/node.log.master").ok();
        metrics_.GetCounter("media.log_device_lost").Add(1);
        break;
    }
  }
  state_ = NodeState::kDown;
  recovery_redo_done_ = false;
  parked_owners_.clear();
  // Adaptive-logging volatile state: stashes died with their transactions,
  // and the recovery skip set is rebuilt from the log by the next restart.
  live_logical_txns_ = 0;
  recovery_skip_txns_.clear();
  network_->SetNodeUp(id_, false);
  metrics_.GetCounter("node.crashes").Add(1);
  if (trace_ != nullptr) trace_->Emit(id_, TraceEventType::kNodeCrash);
}

// ---------------------------------------------------------------------------
// Simulated-cost charging
// ---------------------------------------------------------------------------

void Node::ChargeDiskRead() {
  network_->clock()->Advance(network_->cost_model().disk_read_ns);
  network_->AddBusy(id_, network_->cost_model().disk_read_ns);
  ctr_disk_page_reads_->Add(1);
}

void Node::ChargeDiskWrite() {
  network_->clock()->Advance(network_->cost_model().disk_write_ns);
  network_->AddBusy(id_, network_->cost_model().disk_write_ns);
  ctr_disk_page_writes_->Add(1);
}

void Node::ChargeLogForce() {
  std::uint64_t ns = options_.log_force_ns_override != 0
                         ? options_.log_force_ns_override
                         : network_->cost_model().log_force_ns;
  network_->clock()->Advance(ns);
  network_->AddBusy(id_, ns);
  ctr_log_forces_->Add(1);
}

void Node::ChargeCpuOp() {
  network_->clock()->Advance(network_->cost_model().cpu_op_ns);
  network_->AddBusy(id_, network_->cost_model().cpu_op_ns);
}

// ---------------------------------------------------------------------------
// Data definition
// ---------------------------------------------------------------------------

Result<PageId> Node::AllocatePage() {
  if (state_ != NodeState::kUp) return Status::NodeDown("node not up");
  CLOG_ASSIGN_OR_RETURN(std::uint32_t page_no, space_map_.Allocate());
  PageId pid{id_, page_no};
  Page page;
  // PSN seeding from the space map (ARIES/CSA technique, Section 2.1):
  // a reused page number continues its PSN sequence past its prior life.
  page.Format(pid, PageType::kData, space_map_.PsnSeed(page_no));
  SlottedPage(&page).InitBody();
  CLOG_RETURN_IF_ERROR(disk_.WritePage(page_no, &page, /*sync=*/true));
  ChargeDiskWrite();
  metrics_.GetCounter("pages.allocated").Add(1);
  return pid;
}

Status Node::FreePage(PageId pid) {
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the owner of " + pid.ToString());
  }
  if (pid.owner != id_) {
    // Freeing releases the home node's space-map slot; an adopted page must
    // travel home before it can die.
    return Status::NotSupported("cannot free adopted page " + pid.ToString());
  }
  if (!handoff_fenced_.empty() && handoff_fenced_.count(pid) != 0) {
    return Status::Busy("page handoff in progress: " + pid.ToString());
  }
  // The space map's free-time PSN seed needs the page's true final PSN, so
  // a restoring page must finish rebuilding before it can be freed.
  CLOG_RETURN_IF_ERROR(EnsureRestored(pid));
  if (poison_.Contains(pid)) {
    // The page's true final PSN is unknowable, so the space map could not
    // seed a reallocation safely past it.
    return Status::Corruption("page unrecoverable after media failure: " +
                              pid.ToString());
  }
  for (NodeId holder : global_locks_.HoldersOf(pid)) {
    if (holder != id_) {
      return Status::Busy("page still locked remotely: " + pid.ToString());
    }
  }
  if (!lock_cache_.CanComply(pid, LockMode::kNone).can_comply) {
    return Status::Busy("page in use by a local transaction: " +
                        pid.ToString());
  }
  global_locks_.Release(pid, id_);
  lock_cache_.ApplyCallback(pid, LockMode::kNone);
  CLOG_ASSIGN_OR_RETURN(Psn disk_psn, DiskPsn(pid));
  Psn last = disk_psn;
  if (Page* cached = pool_.Lookup(pid); cached != nullptr) {
    last = std::max(last, cached->psn());
    pool_.Drop(pid);
  }
  dpt_.Remove(pid);
  replacers_.erase(pid);
  return space_map_.Free(pid.page_no, last);
}

Result<Psn> Node::DiskPsn(PageId pid) {
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the owner of " + pid.ToString());
  }
  Page tmp;
  CLOG_RETURN_IF_ERROR(ReadDurablePage(pid, &tmp));
  ChargeDiskRead();
  return tmp.psn();
}

Status Node::ReadOwnPage(std::uint32_t page_no, Page* out) {
  Status st = disk_.ReadPage(page_no, out);
  if (st.IsIOError()) {
    metrics_.GetCounter("disk.page_read_retries").Add(1);
    st = disk_.ReadPage(page_no, out);
  }
  return st;
}

// ---------------------------------------------------------------------------
// Page access: locks, fetches, callbacks (Section 2.2 requester side)
// ---------------------------------------------------------------------------

Status Node::CheckOwnerAvailable(NodeId owner) {
  auto it = parked_owners_.find(owner);
  if (it == parked_owners_.end()) return Status::OK();
  std::uint64_t now = network_->clock()->NowNanos();
  if (now - it->second >= network_->retry_policy().park_ttl_ns) {
    // TTL expired without a NodeRecovered broadcast (it may have been
    // lost): stop assuming and let the request probe reality again.
    parked_owners_.erase(it);
    return Status::OK();
  }
  return Status::Unavailable("owner " + std::to_string(owner) +
                             " recovering; request parked");
}

Status Node::NoteOwnerFailure(NodeId owner, Status st) {
  if (!st.IsNodeDown() || !network_->retry_policy().enabled) return st;
  if (network_->ProbePeer(id_, owner) == PeerHealth::kRecovering) {
    // The owner's process is alive and working through restart recovery:
    // this is a wait, not a failure. Park every request for it until its
    // NodeRecovered broadcast instead of bouncing transactions.
    parked_owners_.emplace(owner, network_->clock()->NowNanos());
    metrics_.GetCounter("avail.parked").Add(1);
    if (trace_ != nullptr) trace_->Emit(id_, TraceEventType::kRpcPark, owner);
    return Status::Unavailable("owner " + std::to_string(owner) +
                               " recovering; request parked");
  }
  return st;
}

Result<Page*> Node::FetchPage(PageId pid) {
  if (Page* hit = pool_.Lookup(pid)) return hit;
  if (OwnsPage(pid)) {
    // A restoring page is rebuilt synchronously for its first toucher
    // before anything below dares read the (hole-ridden) disk version.
    // The rebuild lands the fresh image in the pool, so re-check for a
    // hit before falling through to the miss path's Insert.
    CLOG_RETURN_IF_ERROR(EnsureRestored(pid));
    if (Page* hit = pool_.Lookup(pid)) return hit;
    if (poison_.Contains(pid)) {
      return Status::Corruption("page unrecoverable after media failure: " +
                                pid.ToString());
    }
    // Own page: durable version is current (own-page evictions write in
    // place, so the cache-miss copy in the durable store is the newest
    // local version).
    CLOG_ASSIGN_OR_RETURN(Page * frame, pool_.Insert(pid, Page()));
    Status st = ReadDurablePage(pid, frame);
    if (!st.ok()) {
      pool_.Drop(pid);
      return st;
    }
    ChargeDiskRead();
    if (trace_ != nullptr) {
      trace_->Emit(id_, TraceEventType::kPageFetch, pid.Pack(), frame->psn(),
                   id_);
    }
    return frame;
  }
  // Remote page, lock already cached: re-request the image from the owner
  // (the paper bundles page transfer with lock grant; an idempotent
  // re-grant at the held mode returns the owner's current version).
  LockMode mode = lock_cache_.NodeMode(pid);
  if (mode == LockMode::kNone) {
    return Status::FailedPrecondition("fetch without a cached lock on " +
                                      pid.ToString());
  }
  const NodeId owner = OwnerOf(pid);
  CLOG_RETURN_IF_ERROR(CheckOwnerAvailable(owner));
  LockPageReply reply;
  Status fetch_st =
      RequestRemotePage(owner, pid, mode, /*want_page=*/true, &reply);
  if (!fetch_st.ok()) return NoteOwnerFailure(owner, fetch_st);
  if (!reply.granted || !reply.page) {
    return Status::Busy("owner could not supply page " + pid.ToString());
  }
  CLOG_ASSIGN_OR_RETURN(Page * frame,
                        pool_.Insert(pid, std::move(*reply.page)));
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kPageFetch, pid.Pack(), frame->psn(),
                 owner);
  }
  return frame;
}

Status Node::EnsureNodeLock(Transaction* txn, PageId pid, LockMode mode) {
  LockPageReply reply;
  Status st;
  if (OwnsPage(pid)) {
    st = HandleLockPage(id_, pid, mode, /*want_page=*/false,
                        /*carried=*/nullptr, &reply);
  } else {
    const NodeId owner = OwnerOf(pid);
    CLOG_RETURN_IF_ERROR(CheckOwnerAvailable(owner));
    st = RequestRemotePage(owner, pid, mode,
                           /*want_page=*/!pool_.Contains(pid), &reply);
    if (st.IsNodeDown()) st = NoteOwnerFailure(owner, st);
  }
  if (!st.ok()) return st;  // e.g. owner down or parked
  if (!reply.granted) {
    txn->last_blockers = reply.blocking_txns;
    return Status::Busy("node lock on " + pid.ToString() + " held elsewhere");
  }
  lock_cache_.RecordNodeLock(pid, mode);
  if (reply.page && !pool_.Contains(pid)) {
    CLOG_RETURN_IF_ERROR(pool_.Insert(pid, std::move(*reply.page)).status());
  }
  return Status::OK();
}

Status Node::RequestRemotePage(NodeId owner, PageId pid, LockMode mode,
                               bool want_page, LockPageReply* reply) {
  // When the image needs a frame and the frame to free holds a dirty page
  // of the same owner, that page rides the request home (Section 2.1)
  // instead of taking a PageShip round trip of its own. Only once its log
  // records are durable: a victim that needs a force ships on its own, so
  // a request that fails has forced nothing.
  std::optional<PageId> victim;
  if (want_page && options_.logging_mode == LoggingMode::kClientLocal &&
      pool_.size() >= pool_.capacity()) {
    victim = pool_.NextVictim();
  }
  if (!victim || !pool_.IsDirty(*victim) || OwnsPage(*victim) ||
      OwnerOf(*victim) != owner ||
      pool_.Peek(*victim)->page_lsn() >= log_.flushed_lsn()) {
    return network_->LockPage(id_, owner, pid, mode, want_page, reply);
  }
  // The gate has nothing to force or backfill for another owner's page
  // whose records are durable, so it does not wait. The victim then stays
  // cached and pinned for the call, so no task run meanwhile can evict it
  // a second way.
  const PageId v = *victim;
  CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(v));
  Page* frame = pool_.Pin(v);
  frame->SealChecksum();
  const Psn psn = frame->psn();
  Status st =
      network_->LockPage(id_, owner, pid, mode, want_page, reply, frame);
  pool_.Unpin(v);
  if (reply->carried_installed && FinishShipHome(v, psn, owner)) {
    pool_.Drop(v, /*as_eviction=*/true);
  }
  return st;
}

Result<Page*> Node::EnsureNodePage(Transaction* txn, PageId pid,
                                   LockMode mode) {
  if (lock_cache_.NodeMode(pid) < mode) {
    CLOG_RETURN_IF_ERROR(EnsureNodeLock(txn, pid, mode));
  }
  return FetchPage(pid);
}

Result<Page*> Node::AcquirePage(Transaction* txn, PageId pid, LockMode mode) {
  if (!handoff_fenced_.empty() && handoff_fenced_.count(pid) != 0) {
    // The page is mid-handoff: its shipped image must stay final until the
    // transfer settles, so even lock-cache hits wait it out.
    return Status::Busy("page handoff in progress: " + pid.ToString());
  }
  for (int attempt = 0; attempt < 4; ++attempt) {
    LocalAcquire la = lock_cache_.AcquireForTxn(txn->id, pid, mode);
    switch (la.outcome) {
      case LocalAcquire::Outcome::kGranted: {
        Result<Page*> page = FetchPage(pid);
        if (!page.ok()) return page;
        if (mode == LockMode::kExclusive) {
          // Paper Section 2.2: a DPT entry is added when the node obtains
          // an exclusive lock and none exists; RedoLSN is conservatively
          // the current end of the local log.
          dpt_.OnFirstDirty(pid, (*page)->psn(), log_.end_lsn());
        }
        txn->last_blockers.clear();
        return page;
      }
      case LocalAcquire::Outcome::kNeedNodeLock:
        CLOG_RETURN_IF_ERROR(EnsureNodeLock(txn, pid, mode));
        break;  // retry local acquisition
      case LocalAcquire::Outcome::kLocalConflict:
        txn->last_blockers = la.blockers;
        return Status::Busy("local transaction holds " + pid.ToString());
    }
  }
  return Status::Busy("lock acquisition did not converge on " +
                      pid.ToString());
}

Result<Page*> Node::AcquireRecord(Transaction* txn, RecordId rid,
                                  LockMode mode) {
  if (!options_.local_record_locking) {
    return AcquirePage(txn, rid.page, mode);
  }
  if (!handoff_fenced_.empty() && handoff_fenced_.count(rid.page) != 0) {
    return Status::Busy("page handoff in progress: " + rid.page.ToString());
  }
  for (int attempt = 0; attempt < 4; ++attempt) {
    LocalAcquire la =
        lock_cache_.AcquireRecordForTxn(txn->id, rid.page, rid.slot, mode);
    switch (la.outcome) {
      case LocalAcquire::Outcome::kGranted: {
        Result<Page*> page = FetchPage(rid.page);
        if (!page.ok()) return page;
        if (mode == LockMode::kExclusive) {
          dpt_.OnFirstDirty(rid.page, (*page)->psn(), log_.end_lsn());
        }
        txn->last_blockers.clear();
        return page;
      }
      case LocalAcquire::Outcome::kNeedNodeLock:
        CLOG_RETURN_IF_ERROR(EnsureNodeLock(txn, rid.page, mode));
        break;
      case LocalAcquire::Outcome::kLocalConflict:
        txn->last_blockers = la.blockers;
        return Status::Busy("local transaction holds " + rid.ToString());
    }
  }
  return Status::Busy("lock acquisition did not converge on " +
                      rid.ToString());
}

// ---------------------------------------------------------------------------
// Logged updates, redo application, undo
// ---------------------------------------------------------------------------

Status Node::AppendWithReclaim(const LogRecord& rec, Lsn* lsn) {
  Status st = log_.Append(rec, lsn);
  if (!st.IsLogFull()) return st;
  std::string scratch;
  rec.EncodeTo(&scratch);
  CLOG_RETURN_IF_ERROR(ReclaimLogSpace(scratch.size() + 64));
  return log_.Append(rec, lsn);
}

Status Node::AppendWithReclaim(const PageUpdate& rec, Lsn* lsn) {
  Status st = log_.Append(rec, lsn);
  if (!st.IsLogFull()) return st;
  return AppendWithReclaim(rec.ToRecord(), lsn);
}

namespace {

/// Keeps a page resident while an operation holds a raw pointer to its
/// frame (log-space reclamation may otherwise evict it mid-update).
class PinGuard {
 public:
  PinGuard(BufferPool* pool, PageId pid) : pool_(pool), pid_(pid) {
    pool_->Pin(pid_);
  }
  ~PinGuard() { pool_->Unpin(pid_); }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;

 private:
  BufferPool* pool_;
  PageId pid_;
};

}  // namespace

Status Node::LoggedUpdate(Transaction* txn, Page* page, RecordOp op,
                          SlotId slot, Slice redo_image) {
  PinGuard pin(&pool_, page->id());
  // Adaptive logging: single-node transactions on own pages write compact
  // redo-only records; the first update that falls outside the gates (a
  // remotely-owned page — the cross-node dependency the paper's recovery
  // protocol must order) upgrades the transaction to physical records,
  // backfilling the stashed before-images first.
  const bool logical = TxnLogsLogical(txn, page->id());
  if (!logical && txn->strategy == LogStrategy::kAdaptive && !txn->upgraded) {
    CLOG_RETURN_IF_ERROR(UpgradeTxnToPhysical(txn));
  }

  // The before-image is read after the upgrade above, which can wait, and
  // it views the page: the record is encoded before ApplyRedo changes it.
  Slice undo_image;
  if (op != RecordOp::kInsert) {
    CLOG_ASSIGN_OR_RETURN(undo_image, SlottedPage(page).Read(slot));
  }
  PageUpdate rec;
  rec.type = logical ? LogRecordType::kLogicalUpdate : LogRecordType::kUpdate;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.page = page->id();
  rec.psn_before = page->psn();
  rec.op = op;
  rec.slot = slot;
  rec.redo_image = redo_image;
  // A logical record's before-image stays volatile: discarded at commit,
  // backfilled into the log by the first steal/dependency/rollback. It is
  // copied before the append, which can wait.
  std::string stash;
  if (logical) {
    stash = undo_image.ToString();
  } else {
    rec.undo_image = undo_image;
  }

  Lsn lsn = kNullLsn;
  if (options_.logging_mode == LoggingMode::kShipToOwner) {
    // Baseline B1: records accumulate locally and are shipped to the owner
    // (on page replacement and at commit); no local LSN space.
    txn->pending_records.push_back(rec.ToRecord());
  } else {
    CLOG_RETURN_IF_ERROR(AppendWithReclaim(rec, &lsn));
    txn->last_lsn = lsn;
    network_->clock()->Advance((rec.redo_image.size() + rec.undo_image.size() +
                                64) *
                               network_->cost_model().log_append_byte_ns);
  }
  if (logical) {
    if (txn->logical_undos.empty()) ++live_logical_txns_;
    txn->logical_undos.emplace(lsn, std::move(stash));
    ctr_txn_logical_records_->Add(1);
  }

  // Log-space reclamation during the append may have forced this very
  // page and dropped its DPT entry; re-arm it with this record as the
  // exact RedoLSN before the page goes dirty again.
  dpt_.OnFirstDirty(page->id(), page->psn(),
                    lsn != kNullLsn ? lsn : log_.end_lsn());

  CLOG_RETURN_IF_ERROR(ApplyRedo(rec, page));
  if (lsn != kNullLsn) page->set_page_lsn(lsn);
  PageId pid = page->id();
  pool_.MarkDirty(pid);
  dpt_.OnUpdate(pid, page->psn());
  auto pos = std::lower_bound(txn->updated_pages.begin(),
                              txn->updated_pages.end(), pid);
  if (pos == txn->updated_pages.end() || *pos != pid) {
    txn->updated_pages.insert(pos, pid);
  }
  ++txn->updates;
  ctr_txn_updates_->Add(1);
  ChargeCpuOp();
  return Status::OK();
}

Status Node::UndoOne(Transaction* txn, const LogRecord& rec, Lsn rec_lsn) {
  Result<Page*> page_r = AcquireRecord(txn, RecordId{rec.page, rec.slot},
                                       LockMode::kExclusive);
  if (!page_r.ok()) return page_r.status();
  Page* page = *page_r;

  // A logical record carries no before-image; undo reads it from the
  // transaction's stash (live rollback) or from the kUndoBackfill record
  // the upgrade wrote (resurrected loser — preloaded before RollbackTo).
  const std::string* undo = &rec.undo_image;
  if (rec.type == LogRecordType::kLogicalUpdate &&
      rec.op != RecordOp::kInsert) {
    auto it = txn->logical_undos.find(rec_lsn);
    if (it == txn->logical_undos.end()) {
      return Status::Corruption("no before-image for " + rec.ToString());
    }
    undo = &it->second;
  }

  LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.txn = txn->id;
  clr.prev_lsn = txn->last_lsn;
  clr.page = rec.page;
  clr.psn_before = page->psn();
  clr.slot = rec.slot;
  clr.undo_next_lsn = rec.prev_lsn;
  switch (rec.op) {
    case RecordOp::kInsert:
      clr.op = RecordOp::kDelete;
      break;
    case RecordOp::kUpdate:
      clr.op = RecordOp::kUpdate;
      clr.redo_image = *undo;
      break;
    case RecordOp::kDelete:
      clr.op = RecordOp::kInsert;
      clr.redo_image = *undo;
      break;
    case RecordOp::kFormat:
      return Status::NotSupported("cannot undo a page format");
  }

  Lsn lsn = kNullLsn;
  // Rollback records bypass the capacity check: undo must always be able
  // to run, or a full log could never drain.
  CLOG_RETURN_IF_ERROR(log_.Append(clr, &lsn, /*enforce_capacity=*/false));
  // The DPT entry may be gone even though the transaction is still live: an
  // owner flush notification drops it once the disk version covers every
  // update this node made. The CLR dirties the page again, so the entry must
  // be re-armed here or the reclaim horizon could release the log records
  // this page still needs for redo.
  dpt_.OnFirstDirty(rec.page, page->psn(), lsn);
  CLOG_RETURN_IF_ERROR(ApplyRedo(clr, page));
  page->set_page_lsn(lsn);
  txn->last_lsn = lsn;
  pool_.MarkDirty(rec.page);
  dpt_.OnUpdate(rec.page, page->psn());
  metrics_.GetCounter("txn.undone_updates").Add(1);
  ChargeCpuOp();
  return Status::OK();
}

Status Node::RollbackTo(Transaction* txn, Lsn target_lsn) {
  TxnBackwardCursor cursor(&log_, txn->last_lsn);
  LogRecord rec;
  Lsn lsn = kNullLsn;
  Status scan_status;
  while (cursor.Prev(&rec, &lsn, &scan_status)) {
    if (target_lsn != kNullLsn && lsn <= target_lsn) break;
    if (rec.type == LogRecordType::kUpdate ||
        rec.type == LogRecordType::kLogicalUpdate) {
      CLOG_RETURN_IF_ERROR(UndoOne(txn, rec, lsn));
    } else if (rec.type == LogRecordType::kUndoBackfill) {
      // Refill the volatile stash from the upgrade record so the logical
      // records further back can be undone (no-op when already stashed).
      for (const BackfillEntry& e : rec.backfill) {
        txn->logical_undos.emplace(e.covered_lsn, e.undo_image);
      }
    } else if (rec.type == LogRecordType::kBegin) {
      break;
    }
  }
  return scan_status;
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Result<TxnId> Node::Begin(TxnOptions opts) {
  if (state_ != NodeState::kUp) return Status::NodeDown("node not up");
  Transaction* txn = txns_.Begin();
  txn->strategy = opts.strategy.value_or(options_.logging_policy.strategy);
  if (txn->strategy == LogStrategy::kAdaptive) {
    ctr_txn_begins_adaptive_->Add(1);
  }
  if (options_.logging_mode != LoggingMode::kShipToOwner) {
    LogRecord rec;
    rec.type = LogRecordType::kBegin;
    rec.txn = txn->id;
    Lsn lsn = kNullLsn;
    Status st = AppendWithReclaim(rec, &lsn);
    if (!st.ok()) {
      txns_.Remove(txn->id);
      return st;
    }
    txn->first_lsn = lsn;
    txn->last_lsn = lsn;
  }
  ctr_txn_begins_->Add(1);
  if (trace_ != nullptr) trace_->Emit(id_, TraceEventType::kTxnBegin, txn->id);
  return txn->id;
}

Status Node::Commit(TxnId txn_id) {
  if (GroupCommitEnabled()) {
    // Synchronous commit under the coalescing policy: request, and if that
    // parked us (group not yet full), lead the group force ourselves. The
    // force completes every parked committer — us included — so the caller
    // still gets the never-ACK-before-durable guarantee, and concurrent
    // parked committers ride along on our one force.
    Result<bool> done = CommitRequest(txn_id);
    if (!done.ok()) return done.status();
    if (!*done) return FlushCommitGroup();
    return Status::OK();
  }

  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr || txn->state != TxnState::kActive) {
    return Status::NotFound("no active transaction");
  }
  const std::uint64_t commit_start_ns = network_->clock()->NowNanos();

  switch (options_.logging_mode) {
    case LoggingMode::kClientLocal: {
      // The headline of the paper: commit writes and forces the *local*
      // log only. No messages, no page forces, regardless of where the
      // updated pages live.
      LogRecord commit;
      commit.type = LogRecordType::kCommit;
      commit.txn = txn_id;
      commit.prev_lsn = txn->last_lsn;
      const bool logical = txn->HoldsLogicalRecords();
      Lsn commit_lsn = kNullLsn;
      CLOG_RETURN_IF_ERROR(AppendWithReclaim(commit, &commit_lsn));
      CLOG_RETURN_IF_ERROR(ForceLog(commit_lsn));
      if (logical) ctr_txn_commits_logical_->Add(1);
      LogRecord end;
      end.type = LogRecordType::kEnd;
      end.txn = txn_id;
      end.prev_lsn = commit_lsn;
      Lsn end_lsn = kNullLsn;
      CLOG_RETURN_IF_ERROR(AppendWithReclaim(end, &end_lsn));
      break;
    }
    case LoggingMode::kShipToOwner: {
      // Baseline B1 (ARIES/CSA-like): all log records travel to the owner
      // at commit, with a force there.
      CLOG_RETURN_IF_ERROR(
          ShipPendingRecords(txn, /*force=*/true, /*only_page=*/nullptr));
      break;
    }
    case LoggingMode::kForceAtTransfer: {
      // Baseline B2 (Rdb/VMS-like): every updated page is forced to the
      // owner's disk before the commit record is written.
      for (PageId pid : txn->updated_pages) {
        if (!pool_.IsDirty(pid)) continue;
        if (OwnsPage(pid)) {
          CLOG_RETURN_IF_ERROR(ForceOwnPage(pid));
        } else {
          CLOG_RETURN_IF_ERROR(ShipDirtyCopy(pid));
          CLOG_RETURN_IF_ERROR(network_->FlushRequest(id_, OwnerOf(pid), pid));
        }
      }
      LogRecord commit;
      commit.type = LogRecordType::kCommit;
      commit.txn = txn_id;
      commit.prev_lsn = txn->last_lsn;
      Lsn commit_lsn = kNullLsn;
      CLOG_RETURN_IF_ERROR(AppendWithReclaim(commit, &commit_lsn));
      CLOG_RETURN_IF_ERROR(ForceLog(commit_lsn));
      break;
    }
  }

  txn->state = TxnState::kCommitted;
  ReleaseLogicalState(txn);
  lock_cache_.ReleaseTxnLocks(txn_id);
  detector_->RemoveTxn(txn_id);
  txns_.Remove(txn_id);
  ctr_txn_commits_->Add(1);
  hist_commit_ns_->Record(network_->clock()->NowNanos() - commit_start_ns);
  if (restore_.first_commit_pending()) {
    restore_.NoteCommit(this, network_->clock()->NowNanos());
  }
  if (trace_ != nullptr) trace_->Emit(id_, TraceEventType::kTxnCommit, txn_id);
  AdvanceReclaimHorizon();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Group commit (GroupCommitPolicy): park committers, coalesce their forces
// ---------------------------------------------------------------------------

bool Node::GroupCommitEnabled() const {
  // Coalescing only makes sense where the commit force is purely local —
  // the paper's protocol. B1 forces at the owner, B2 forces pages.
  return options_.logging_policy.group_commit.enabled &&
         options_.logging_mode == LoggingMode::kClientLocal;
}

Result<bool> Node::CommitRequest(TxnId txn_id) {
  if (!GroupCommitEnabled()) {
    CLOG_RETURN_IF_ERROR(Commit(txn_id));
    return true;
  }
  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr || txn->state != TxnState::kActive) {
    return Status::NotFound("no active transaction");
  }
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = txn_id;
  commit.prev_lsn = txn->last_lsn;
  const bool logical = txn->HoldsLogicalRecords();
  Lsn commit_lsn = kNullLsn;
  CLOG_RETURN_IF_ERROR(AppendWithReclaim(commit, &commit_lsn));
  // Past this point the transaction can no longer abort: its fate is tied
  // to whether the commit record reaches the disk. It is not ACKed either —
  // it parks until a force covers commit_lsn.
  if (logical) ctr_txn_commits_logical_->Add(1);
  txn->state = TxnState::kCommitting;
  txn->last_lsn = commit_lsn;
  commit_group_.push_back(
      {txn_id, commit_lsn, network_->clock()->NowNanos()});
  metrics_.GetCounter("gc.parked").Add(1);
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kGroupCommitPark, txn_id, commit_lsn,
                 static_cast<std::uint32_t>(commit_group_.size()));
  }
  if (commit_group_.size() >=
      options_.logging_policy.group_commit.max_group_size) {
    CLOG_RETURN_IF_ERROR(FlushCommitGroup());
    return true;
  }
  return false;
}

Result<bool> Node::PollCommit(TxnId txn_id) {
  for (const ParkedCommit& p : commit_group_) {
    if (p.txn != txn_id) continue;
    if (network_->clock()->NowNanos() <
        p.parked_at_ns + options_.logging_policy.group_commit.window_ns) {
      return false;  // Still inside the coalescing window.
    }
    CLOG_RETURN_IF_ERROR(FlushCommitGroup());
    return true;
  }
  // Not parked: either it already completed via someone else's force, or it
  // never requested commit here.
  if (txns_.Find(txn_id) == nullptr) return true;
  return Status::FailedPrecondition("PollCommit: transaction not committing");
}

Status Node::FlushCommitGroup() {
  if (commit_group_.empty()) return Status::OK();
  Lsn max_lsn = kNullLsn;
  for (const ParkedCommit& p : commit_group_) {
    max_lsn = std::max(max_lsn, p.commit_lsn);
  }
  metrics_.GetCounter("gc.group_forces").Add(1);
  metrics_.GetCounter("gc.group_size_sum").Add(commit_group_.size());
  // One force covers every parked commit record; ForceLog completes them.
  return ForceLog(max_lsn);
}

Status Node::CompleteCoveredCommits() {
  if (completing_group_ || commit_group_.empty()) return Status::OK();
  completing_group_ = true;
  const Lsn durable = log_.flushed_lsn();
  std::vector<ParkedCommit> still_parked;
  Status failed = Status::OK();
  for (const ParkedCommit& p : commit_group_) {
    if (!failed.ok() || p.commit_lsn >= durable) {
      still_parked.push_back(p);
      continue;
    }
    Transaction* txn = txns_.Find(p.txn);
    if (txn == nullptr) continue;
    LogRecord end;
    end.type = LogRecordType::kEnd;
    end.txn = p.txn;
    end.prev_lsn = p.commit_lsn;
    Lsn end_lsn = kNullLsn;
    // END records bypass the capacity check, like rollback records: going
    // through reclamation here could force and re-enter completion.
    Status st = log_.Append(end, &end_lsn, /*enforce_capacity=*/false);
    if (!st.ok()) {
      failed = st;
      still_parked.push_back(p);
      continue;
    }
    txn->state = TxnState::kCommitted;
    ReleaseLogicalState(txn);
    lock_cache_.ReleaseTxnLocks(p.txn);
    detector_->RemoveTxn(p.txn);
    txns_.Remove(p.txn);
    ctr_txn_commits_->Add(1);
    metrics_.GetCounter("gc.completed").Add(1);
    hist_commit_ns_->Record(network_->clock()->NowNanos() - p.parked_at_ns);
    if (restore_.first_commit_pending()) {
      restore_.NoteCommit(this, network_->clock()->NowNanos());
    }
    if (trace_ != nullptr) {
      trace_->Emit(id_, TraceEventType::kGroupCommitCover, p.txn,
                   p.commit_lsn);
    }
  }
  commit_group_ = std::move(still_parked);
  completing_group_ = false;
  AdvanceReclaimHorizon();
  return failed;
}

Status Node::ForceLog(Lsn lsn) {
  const std::uint64_t forces_before = log_.forces();
  const std::uint64_t force_start_ns = network_->clock()->NowNanos();
  CLOG_RETURN_IF_ERROR(log_.Flush(lsn));
  if (log_.forces() != forces_before) {
    ChargeLogForce();
    hist_force_ns_->Record(network_->clock()->NowNanos() - force_start_ns);
    // The force just made everything up to `lsn` durable; any parked group
    // commits at or below the new horizon ride along for free.
    CLOG_RETURN_IF_ERROR(CompleteCoveredCommits());
  }
  return Status::OK();
}

Status Node::Abort(TxnId txn_id) {
  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr || txn->state != TxnState::kActive) {
    return Status::NotFound("no active transaction");
  }

  if (options_.logging_mode == LoggingMode::kShipToOwner) {
    // B1: undo from the pending list (shipped or not, records are still in
    // the list); compensations are appended and shipped so the owner's log
    // tells the whole story.
    std::vector<LogRecord> clrs;
    for (auto it = txn->pending_records.rbegin();
         it != txn->pending_records.rend(); ++it) {
      if (it->type != LogRecordType::kUpdate) continue;
      Result<Page*> page_r = AcquirePage(txn, it->page, LockMode::kExclusive);
      if (!page_r.ok()) return page_r.status();
      Page* page = *page_r;
      LogRecord clr;
      clr.type = LogRecordType::kClr;
      clr.txn = txn_id;
      clr.page = it->page;
      clr.psn_before = page->psn();
      clr.slot = it->slot;
      switch (it->op) {
        case RecordOp::kInsert:
          clr.op = RecordOp::kDelete;
          break;
        case RecordOp::kUpdate:
          clr.op = RecordOp::kUpdate;
          clr.redo_image = it->undo_image;
          break;
        case RecordOp::kDelete:
          clr.op = RecordOp::kInsert;
          clr.redo_image = it->undo_image;
          break;
        case RecordOp::kFormat:
          break;
      }
      CLOG_RETURN_IF_ERROR(ApplyRedo(clr, page));
      pool_.MarkDirty(it->page);
      clrs.push_back(std::move(clr));
    }
    for (LogRecord& clr : clrs) txn->pending_records.push_back(std::move(clr));
    CLOG_RETURN_IF_ERROR(
        ShipPendingRecords(txn, /*force=*/false, /*only_page=*/nullptr));
  } else {
    // Adaptive: rollback writes CLRs whose redo images come from the
    // volatile stash; backfill the before-images into the log first so a
    // crash mid-rollback leaves the resurrected loser undoable.
    if (txn->strategy == LogStrategy::kAdaptive && !txn->upgraded) {
      CLOG_RETURN_IF_ERROR(UpgradeTxnToPhysical(txn));
    }
    LogRecord abort_rec;
    abort_rec.type = LogRecordType::kAbort;
    abort_rec.txn = txn_id;
    abort_rec.prev_lsn = txn->last_lsn;
    Lsn lsn = kNullLsn;
    CLOG_RETURN_IF_ERROR(
        log_.Append(abort_rec, &lsn, /*enforce_capacity=*/false));
    txn->last_lsn = lsn;
    CLOG_RETURN_IF_ERROR(RollbackTo(txn, kNullLsn));
    LogRecord end;
    end.type = LogRecordType::kEnd;
    end.txn = txn_id;
    end.prev_lsn = txn->last_lsn;
    CLOG_RETURN_IF_ERROR(log_.Append(end, &lsn, /*enforce_capacity=*/false));
  }

  txn->state = TxnState::kAborted;
  ReleaseLogicalState(txn);
  lock_cache_.ReleaseTxnLocks(txn_id);
  detector_->RemoveTxn(txn_id);
  txns_.Remove(txn_id);
  ctr_txn_aborts_->Add(1);
  if (trace_ != nullptr) trace_->Emit(id_, TraceEventType::kTxnAbort, txn_id);
  AdvanceReclaimHorizon();
  return Status::OK();
}

Status Node::SetSavepoint(TxnId txn_id, const std::string& name) {
  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr) return Status::NotFound("no active transaction");
  if (options_.logging_mode == LoggingMode::kShipToOwner) {
    return Status::NotSupported("savepoints require a local log");
  }
  LogRecord rec;
  rec.type = LogRecordType::kSavepoint;
  rec.txn = txn_id;
  rec.prev_lsn = txn->last_lsn;
  rec.savepoint_name = name;
  Lsn lsn = kNullLsn;
  CLOG_RETURN_IF_ERROR(AppendWithReclaim(rec, &lsn));
  txn->last_lsn = lsn;
  txn->savepoints.push_back(Savepoint{name, lsn});
  return Status::OK();
}

Status Node::RollbackToSavepoint(TxnId txn_id, const std::string& name) {
  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr) return Status::NotFound("no active transaction");
  // Latest savepoint with the given name wins.
  auto it = std::find_if(txn->savepoints.rbegin(), txn->savepoints.rend(),
                         [&](const Savepoint& s) { return s.name == name; });
  if (it == txn->savepoints.rend()) {
    return Status::NotFound("no savepoint named " + name);
  }
  Lsn target = it->lsn;
  // Same rationale as Abort: partial rollback of an adaptive transaction
  // backfills its before-images first, so CLR generation (and a possible
  // crash between CLRs) never depends on volatile-only state.
  if (txn->strategy == LogStrategy::kAdaptive && !txn->upgraded) {
    CLOG_RETURN_IF_ERROR(UpgradeTxnToPhysical(txn));
  }
  CLOG_RETURN_IF_ERROR(RollbackTo(txn, target));
  // Later savepoints are no longer reachable.
  txn->savepoints.erase(it.base(), txn->savepoints.end());
  metrics_.GetCounter("txn.partial_rollbacks").Add(1);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record operations
// ---------------------------------------------------------------------------

Result<RecordId> Node::Insert(TxnId txn_id, PageId pid, Slice payload) {
  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr) return Status::NotFound("no active transaction");
  Page* page = nullptr;
  SlotId slot = 0;
  if (options_.local_record_locking) {
    // Fine-granularity path: the slot is only known once the page is in
    // hand, so take the node lock + page first, then the record lock on
    // the chosen (dead or fresh) slot — which cannot conflict.
    CLOG_ASSIGN_OR_RETURN(page,
                          EnsureNodePage(txn, pid, LockMode::kExclusive));
    SlottedPage sp(page);
    if (payload.size() > sp.MaxInsertSize()) {
      return Status::FailedPrecondition("page full: " + pid.ToString());
    }
    slot = sp.PeekInsertSlot();
    CLOG_ASSIGN_OR_RETURN(
        page, AcquireRecord(txn, RecordId{pid, slot}, LockMode::kExclusive));
  } else {
    CLOG_ASSIGN_OR_RETURN(page,
                          AcquirePage(txn, pid, LockMode::kExclusive));
    SlottedPage sp(page);
    if (payload.size() > sp.MaxInsertSize()) {
      return Status::FailedPrecondition("page full: " + pid.ToString());
    }
    slot = sp.PeekInsertSlot();
  }
  CLOG_RETURN_IF_ERROR(
      LoggedUpdate(txn, page, RecordOp::kInsert, slot, payload));
  return RecordId{pid, slot};
}

Result<std::string> Node::Read(TxnId txn_id, RecordId rid) {
  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr) return Status::NotFound("no active transaction");
  CLOG_ASSIGN_OR_RETURN(Page * page,
                        AcquireRecord(txn, rid, LockMode::kShared));
  SlottedPage sp(page);
  CLOG_ASSIGN_OR_RETURN(Slice value, sp.Read(rid.slot));
  ChargeCpuOp();
  ctr_txn_reads_->Add(1);
  return value.ToString();
}

Status Node::Update(TxnId txn_id, RecordId rid, Slice payload) {
  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr) return Status::NotFound("no active transaction");
  CLOG_ASSIGN_OR_RETURN(Page * page,
                        AcquireRecord(txn, rid, LockMode::kExclusive));
  SlottedPage sp(page);
  CLOG_ASSIGN_OR_RETURN(Slice old_value, sp.Read(rid.slot));
  if (payload.size() > old_value.size() &&
      payload.size() - old_value.size() > sp.FreeSpace()) {
    return Status::FailedPrecondition("page full: " + rid.page.ToString());
  }
  return LoggedUpdate(txn, page, RecordOp::kUpdate, rid.slot, payload);
}

Status Node::Delete(TxnId txn_id, RecordId rid) {
  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr) return Status::NotFound("no active transaction");
  CLOG_ASSIGN_OR_RETURN(Page * page,
                        AcquireRecord(txn, rid, LockMode::kExclusive));
  CLOG_RETURN_IF_ERROR(SlottedPage(page).Read(rid.slot).status());
  return LoggedUpdate(txn, page, RecordOp::kDelete, rid.slot, Slice());
}

Result<std::vector<std::string>> Node::ScanPage(TxnId txn_id, PageId pid) {
  Transaction* txn = txns_.Find(txn_id);
  if (txn == nullptr) return Status::NotFound("no active transaction");
  CLOG_ASSIGN_OR_RETURN(Page * page,
                        AcquirePage(txn, pid, LockMode::kShared));
  SlottedPage sp(page);
  std::vector<std::string> out;
  for (SlotId s = 0; s < sp.SlotCount(); ++s) {
    if (!sp.IsLive(s)) continue;
    CLOG_ASSIGN_OR_RETURN(Slice value, sp.Read(s));
    out.push_back(value.ToString());
  }
  ChargeCpuOp();
  return out;
}

std::vector<TxnId> Node::LastBlockers(TxnId txn_id) const {
  const Transaction* txn = txns_.Find(txn_id);
  return txn == nullptr ? std::vector<TxnId>{} : txn->last_blockers;
}

// ---------------------------------------------------------------------------
// Eviction policy and flush bookkeeping
// ---------------------------------------------------------------------------

bool Node::FinishShipHome(PageId pid, Psn psn, NodeId owner) {
  // A task run while the transfer waited may have dropped or updated the
  // frame; its own bookkeeping then stands. OnReplaced at the older PSN
  // would let a flush at that PSN move RedoLSN past the task's records.
  const Page* frame = pool_.Peek(pid);
  if (frame == nullptr || frame->psn() != psn) return false;
  // Section 2.5: remember the end of the log for the owner's FlushNotify.
  dpt_.OnReplaced(pid, psn, log_.end_lsn());
  ctr_pages_shipped_->Add(1);
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kPageShip, pid.Pack(), psn, owner);
  }
  return true;
}

void Node::NotifyReplacers(PageId pid, Psn flushed_psn) {
  // Taken out before the first notice: each can wait, and a ship installed
  // meanwhile registers its sender afresh, for the next flush to notify.
  auto replacers = replacers_.extract(pid);
  if (replacers.empty() || !options_.send_flush_notifications) return;
  for (NodeId peer : replacers.mapped()) {
    if (peer != id_) network_->FlushNotify(id_, peer, pid, flushed_psn).ok();
  }
}

Status Node::OnEviction(PageId pid, Page* page, bool dirty) {
  if (!dirty) {
    // Clean pages just leave; the cached node lock stays cached.
    return Status::OK();
  }
  CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid));
  // B1's log ship can wait, and a callback run meanwhile may take the
  // dirty copy along and drop the frame.
  page = pool_.Peek(pid);
  if (page == nullptr) return Status::OK();
  if (OwnsPage(pid)) {
    // Own page: write in place. Synchronous, because the DPT entry is
    // dropped on the strength of this write.
    CLOG_RETURN_IF_ERROR(WriteDurablePage(pid, page));
    dpt_.Remove(pid);
    NotifyReplacers(pid, page->psn());
    AdvanceReclaimHorizon();
    return Status::OK();
  }
  // Remote page: the copy travels home to the owner on its own (a page
  // request to the same owner carries it instead, RequestRemotePage).
  page->SealChecksum();
  const NodeId owner = OwnerOf(pid);
  const Psn psn = page->psn();
  CLOG_RETURN_IF_ERROR(network_->PageShip(id_, owner, *page));
  FinishShipHome(pid, psn, owner);
  if (options_.logging_mode == LoggingMode::kForceAtTransfer) {
    CLOG_RETURN_IF_ERROR(network_->FlushRequest(id_, owner, pid));
  }
  return Status::OK();
}

Status Node::ForceOwnPage(PageId pid) {
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the owner of " + pid.ToString());
  }
  // Forcing a restoring page must first give it something honest to force;
  // no-ops when the force is issued by the rebuild itself.
  CLOG_RETURN_IF_ERROR(EnsureRestored(pid));
  CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid));
  Psn flushed_psn;
  Page* cached = pool_.Lookup(pid);
  if (cached != nullptr && pool_.IsDirty(pid)) {
    CLOG_RETURN_IF_ERROR(WriteDurablePage(pid, cached));
    pool_.MarkClean(pid);
    dpt_.Remove(pid);
    flushed_psn = cached->psn();
  } else {
    if (poison_.Contains(pid)) {
      // No dirty copy to write and the disk version is unrecoverable:
      // nothing can honestly be vouched for.
      return Status::Corruption("page unrecoverable after media failure: " +
                                pid.ToString());
    }
    // Nothing newer here: the disk version is what we can vouch for.
    CLOG_ASSIGN_OR_RETURN(flushed_psn, DiskPsn(pid));
  }
  NotifyReplacers(pid, flushed_psn);
  AdvanceReclaimHorizon();
  metrics_.GetCounter("pages.forced").Add(1);
  return Status::OK();
}

Status Node::ShipDirtyCopy(PageId pid) {
  if (OwnsPage(pid)) {
    return Status::InvalidArgument("own pages are forced, not shipped");
  }
  CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid));
  Page* page = pool_.Lookup(pid);
  if (page == nullptr || !pool_.IsDirty(pid)) return Status::OK();
  page->SealChecksum();
  const NodeId owner = OwnerOf(pid);
  const Psn psn = page->psn();
  CLOG_RETURN_IF_ERROR(network_->PageShip(id_, owner, *page));
  if (FinishShipHome(pid, psn, owner)) pool_.MarkClean(pid);
  return Status::OK();
}

Status Node::InstallShippedCopy(const Page& page, NodeId from) {
  const PageId pid = page.id();
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("shipped page not owned here: " +
                                   pid.ToString());
  }
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kPageShip, pid.Pack(), page.psn(),
                 from);
  }
  // The image's LSN is one of the sender's log, whose records for it the
  // sender forced before the image left (its WAL gate). No record of this
  // node's log backs the image, so it arrives with none: this node's gate
  // then forces nothing for it.
  Page* cached = pool_.Lookup(pid);
  if (cached == nullptr) {
    // Copied before Insert: its eviction can wait, and a task run meanwhile
    // on the sender may drop the frame `page` refers to.
    Page image(page);
    image.set_page_lsn(kNullLsn);
    if (pool_.Insert(pid, std::move(image)).ok()) {
      pool_.MarkDirty(pid);
      replacers_[pid].insert(from);
      return Status::OK();
    }
    if (!pool_.Contains(pid)) {
      // No frame available: every victim is dirty and unevictable (for
      // example its owner is down). The shipper has already dropped its
      // copy on the strength of this transfer, so the shipped version may
      // be the only one in existence — bypass the cache and write it
      // straight home rather than lose it. (A failed Insert leaves `image`
      // untouched.)
      bool newer = true;
      if (Result<Psn> disk_psn = DiskPsn(pid); disk_psn.ok()) {
        newer = image.psn() > *disk_psn;
      }
      if (newer) {
        CLOG_RETURN_IF_ERROR(WriteDurablePage(pid, &image));
        dpt_.OnOwnerFlushed(pid, image.psn());
      }
      replacers_[pid].insert(from);
      return Status::OK();
    }
    // An eviction that waited ran a task that cached the page meanwhile.
    cached = pool_.Lookup(pid);
    if (image.psn() > cached->psn()) {
      cached->CopyFrom(image);
      pool_.MarkDirty(pid);
    }
  } else if (page.psn() > cached->psn()) {
    cached->CopyFrom(page);
    cached->set_page_lsn(kNullLsn);
    pool_.MarkDirty(pid);
  }
  replacers_[pid].insert(from);
  return Status::OK();
}

void Node::AdvanceReclaimHorizon() {
  if (!options_.has_local_log) return;
  // The log is needed from the earliest of: the oldest RedoLSN any dirty
  // page still needs, the first record of the oldest active transaction
  // (undo), and the last complete checkpoint (restart analysis).
  Lsn horizon = log_.end_lsn();
  Lsn dpt_min = dpt_.MinRedoLsn();
  if (dpt_min != kNullLsn) horizon = std::min(horizon, dpt_min);
  Lsn txn_min = txns_.MinFirstLsn();
  if (txn_min != kNullLsn) horizon = std::min(horizon, txn_min);
  if (last_ckpt_begin_ == kNullLsn) {
    horizon = std::min(horizon, LogManager::first_lsn());
  } else {
    horizon = std::min(horizon, last_ckpt_begin_);
  }
  log_.SetReclaimableLsn(horizon);
}

// ---------------------------------------------------------------------------
// Media failure: poison ledger and fuzzy archive
// ---------------------------------------------------------------------------

std::vector<PageId> Node::PoisonedPages() const {
  std::vector<PageId> out;
  out.reserve(poison_.entries().size());
  for (const auto& [packed, needed] : poison_.entries()) {
    PageId pid = PageId::Unpack(packed);
    if (OwnsPage(pid)) out.push_back(pid);
  }
  return out;
}

Status Node::PoisonOwnPage(PageId pid, Psn needed_psn) {
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the owner of " + pid.ToString());
  }
  CLOG_RETURN_IF_ERROR(poison_.Add(pid, needed_psn));
  metrics_.GetCounter("media.pages_poisoned").Add(1);
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kPagePoison, pid.Pack(), needed_psn);
  }
  return Status::OK();
}

Status Node::UnpoisonPage(PageId pid) { return poison_.Remove(pid); }

// ---------------------------------------------------------------------------
// Instant restore: on-demand rebuild hooks (recovery/instant_restore.cc)
// ---------------------------------------------------------------------------

Status Node::EnsureRestored(PageId pid) {
  // in_restore(pid): the rebuild's own disk probes and page forces land
  // back here; recursing would re-run the ladder mid-ladder. The gate is
  // per-page so that work interleaved at a rebuild's re-entrant wait
  // points (real mode) still first-touch-rebuilds *other* pending pages.
  if (!restore_.IsRestoring(pid) || restore_.in_restore(pid)) {
    return Status::OK();
  }
  return restore_.RestoreOne(this, pid);
}

std::size_t Node::SweepRestore(std::size_t max_pages) {
  if (state_ != NodeState::kUp || !restore_.active()) {
    return restore_.pending();
  }
  restore_.Sweep(this, std::max<std::size_t>(1, max_pages));
  return restore_.pending();
}

Status Node::HandleLogLossNotice(NodeId from,
                                 const std::vector<PageId>& pages) {
  for (PageId pid : pages) {
    if (!OwnsPage(pid)) continue;
    // The sender held X on this page when its log died, so the newest
    // committed version existed only there — at the top of the page's
    // history, where no surviving log can prove a rebuild caught up.
    CLOG_RETURN_IF_ERROR(PoisonOwnPage(pid, kPsnUnrecoverable));
  }
  // Flush hygiene: the destroyed log may also have covered updates that
  // live on only in current page images (shipped to their owners but not
  // yet flushed — the Section 2.5 FlushNotify-horizon exposure). Pushing
  // every dirty copy held here to its owner's disk now means no future
  // media rebuild will go looking for the destroyed records.
  for (PageId pid : pool_.DirtyPages()) {
    if (OwnsPage(pid)) {
      ForceOwnPage(pid).ok();
    } else if (ShipDirtyCopy(pid).ok()) {
      network_->FlushRequest(id_, OwnerOf(pid), pid).ok();
    }
  }
  metrics_.GetCounter("media.log_loss_notices").Add(1);
  return Status::OK();
}

Status Node::ArchivePass() {
  if (!archive_.is_open()) return Status::OK();
  std::uint64_t written = 0;
  const std::vector<std::uint32_t> allocated = space_map_.AllocatedPages();
  for (std::uint32_t page_no : allocated) {
    PageId pid{id_, page_no};
    if (poison_.Contains(pid)) continue;  // Nothing trustworthy to copy.
    // Ceded pages live (and advance) at their new owner; the stale home
    // slot must not overwrite the archive's last pre-handoff copy.
    if (handoff_.IsCeded(pid)) continue;
    // Newest local version: the cached frame (possibly dirty — the archive
    // is fuzzy) if present, else the disk version. Archiving a dirty frame
    // is a steal (the image could seed a media rebuild), so it passes the
    // WAL gate like any other image that leaves the cache.
    CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid));
    const Page* src = pool_.Peek(pid);
    Page from_disk;
    if (src == nullptr) {
      Status rd = ReadOwnPage(page_no, &from_disk);
      // Unreadable slots (torn write artifacts, lost device before
      // recovery) simply don't advance their archive entry this pass.
      if (!rd.ok()) continue;
      ChargeDiskRead();
      src = &from_disk;
    }
    if (src->psn() <= archive_.ArchivedPsn(page_no)) continue;
    CLOG_RETURN_IF_ERROR(archive_.ArchivePage(page_no, *src));
    ChargeDiskWrite();
    ++written;
  }
  if (written == 0) return Status::OK();
  CLOG_RETURN_IF_ERROR(archive_.SealPass());
  metrics_.GetCounter("archive.passes").Add(1);
  metrics_.GetCounter("archive.pages_written").Add(written);
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kArchivePass, archive_.seq(), written,
                 static_cast<std::uint32_t>(archive_.entries().size()));
  }
  return Status::OK();
}

Status Node::CheckArchiveConsistency() {
  if (!archive_.is_open()) return Status::OK();
  for (const auto& [page_no, archived_psn] : archive_.entries()) {
    Page img;
    Status rd = archive_.Restore(page_no, &img);
    if (!rd.ok()) {
      return Status::FailedPrecondition(
          "archive entry for page " + std::to_string(page_no) +
          " not restorable: " + rd.ToString());
    }
    // The image may be *newer* than the sealed entry (a later pass wrote
    // the slot and crashed before sealing) but never older.
    if (img.psn() < archived_psn) {
      return Status::FailedPrecondition(
          "archive image of page " + std::to_string(page_no) + " at psn " +
          std::to_string(img.psn()) + " older than sealed entry " +
          std::to_string(archived_psn));
    }
    PageId pid{id_, page_no};
    // A poisoned page's live version is legitimately behind its archive:
    // media recovery restored a base image it could not replay forward.
    // A ceded page's home slot is legitimately stale too — the live
    // version advances at the new owner.
    if (poison_.Contains(pid) || handoff_.IsCeded(pid)) continue;
    Psn current = 0;
    bool known = false;
    if (const Page* cached = pool_.Peek(pid); cached != nullptr) {
      current = cached->psn();
      known = true;
    } else if (Page tmp; disk_.is_open() &&
                         disk_.ReadPage(page_no, &tmp).ok()) {
      current = tmp.psn();
      known = true;
    }
    if (known && space_map_.IsAllocated(page_no) && archived_psn > current) {
      return Status::FailedPrecondition(
          "archive of page " + std::to_string(page_no) + " at psn " +
          std::to_string(archived_psn) + " ahead of current version " +
          std::to_string(current));
    }
  }
  return Status::OK();
}

}  // namespace clog
