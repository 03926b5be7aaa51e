#include "recovery/instant_restore.h"

#include "node/node.h"
#include "storage/slotted_page.h"
#include "trace/trace_sink.h"

/// \file
/// The lost-page rebuild. Restart recovery plans every own page whose
/// durable image it cannot read (a torn write, or a lost data device);
/// RestoreOne rebuilds one plan at first touch, Sweep drains the cold tail,
/// and Drain rebuilds every plan before the node opens when instant
/// restore is off. All three run the same ladder, leaning on one invariant:
/// a planned page was unreadable when planned, and nothing but a complete
/// current version (a shipped peer copy, an eviction, an earlier rebuild)
/// writes it afterwards, so "readable" means "restored". Restart recovery
/// keeps that equivalence honest by planning only pages unreadable at plan
/// time.

namespace clog {

namespace {

/// RAII for the per-page re-entrancy gate: a rebuild's own page forces
/// and disk reads must not loop back into another rebuild of the same
/// pages. Nested rebuild conversations (real-mode reentrant waits) unwind
/// LIFO, so a push/pop stack tracks exactly the pages mid-rebuild on this
/// call stack.
class InRestoreGuard {
 public:
  InRestoreGuard(std::vector<std::uint64_t>* stack,
                 const std::vector<PageId>& pids)
      : stack_(stack), size_(stack->size()) {
    for (PageId pid : pids) stack_->push_back(pid.Pack());
  }
  ~InRestoreGuard() { stack_->resize(size_); }
  InRestoreGuard(const InRestoreGuard&) = delete;
  InRestoreGuard& operator=(const InRestoreGuard&) = delete;

 private:
  std::vector<std::uint64_t>* stack_;
  std::size_t size_;
};

}  // namespace

Status InstantRestoreManager::Open(const std::string& dir) {
  Reset();
  return ledger_.Open(dir, "node.restore");
}

void InstantRestoreManager::Reset() {
  plans_.clear();
  in_restore_pids_.clear();
  first_commit_pending_ = false;
  epoch_start_ns_ = 0;
  restored_this_epoch_ = 0;
}

std::vector<std::uint64_t> InstantRestoreManager::LedgerEntries() const {
  std::vector<std::uint64_t> out;
  out.reserve(ledger_.size());
  for (const auto& [packed, needed] : ledger_.entries()) {
    (void)needed;
    out.push_back(packed);
  }
  return out;
}

Status InstantRestoreManager::Add(Plan plan) {
  // Ledger first: a crash between the two writes re-probes the page (safe),
  // the reverse order would forget it was ever lost.
  CLOG_RETURN_IF_ERROR(ledger_.Add(plan.pid, 0));
  const std::uint64_t packed = plan.pid.Pack();
  plans_[packed] = std::move(plan);
  return Status::OK();
}

Status InstantRestoreManager::Forget(PageId pid) {
  return ledger_.Remove(pid);
}

void InstantRestoreManager::BeginEpoch(std::uint64_t now_ns) {
  epoch_start_ns_ = now_ns;
  restored_this_epoch_ = 0;
  first_commit_pending_ = active();
}

void InstantRestoreManager::NoteCommit(Node* node, std::uint64_t now_ns) {
  if (!first_commit_pending_) return;
  first_commit_pending_ = false;
  node->metrics_.GetHistogram("restore.first_commit_ns")
      .Record(now_ns - epoch_start_ns_);
}

Status InstantRestoreManager::Finish(Node* node, PageId pid, Psn psn,
                                     RestoreSource source,
                                     std::uint64_t t0_ns) {
  plans_.erase(pid.Pack());
  // Durable before return: completion must survive the next crash, or the
  // re-probe would rebuild a page whose disk image is already current —
  // wasteful but sound. The reverse (forgetting an *unfinished* page) is
  // what the ledger exists to prevent, so Remove comes after the page's
  // image is durable, never before.
  CLOG_RETURN_IF_ERROR(ledger_.Remove(pid));
  ++restored_this_epoch_;
  const std::uint64_t now = node->network_->clock()->NowNanos();
  node->metrics_.GetHistogram("restore.page_rebuild_ns").Record(now - t0_ns);
  if (node->trace_ != nullptr) {
    node->trace_->Emit(node->id_, TraceEventType::kPageRestored, pid.Pack(),
                       psn, static_cast<std::uint32_t>(source));
  }
  if (plans_.empty()) {
    node->metrics_.GetCounter("restore.epochs_drained").Add(1);
    if (node->trace_ != nullptr) {
      node->trace_->Emit(node->id_, TraceEventType::kRestoreDone,
                         restored_this_epoch_, now - epoch_start_ns_);
    }
  }
  return Status::OK();
}

Status InstantRestoreManager::Blocked(Node* node, const Status& st) {
  node->metrics_.GetCounter("restore.blocked_on_peer").Add(1);
  return Status::Unavailable("restore blocked on a redo source: " +
                             st.ToString());
}

Status InstantRestoreManager::LiftPoison(Node* node, PageId pid) {
  // The image just made durable descends from a complete current copy;
  // it supersedes any poison verdict, even a permanent one (the same
  // rescue restart applies to surviving cached copies).
  if (!node->poison_.Contains(pid)) return Status::OK();
  CLOG_RETURN_IF_ERROR(node->UnpoisonPage(pid));
  node->metrics_.GetCounter("media.pages_unpoisoned").Add(1);
  return Status::OK();
}

Status InstantRestoreManager::RestoreOne(Node* node, PageId pid) {
  if (!IsRestoring(pid)) return Status::OK();  // Already restored.
  return RunLadder(node, {pid});
}

Status InstantRestoreManager::Drain(Node* node) {
  epoch_start_ns_ = node->network_->clock()->NowNanos();
  restored_this_epoch_ = 0;
  std::vector<PageId> planned;
  for (const auto& [packed, plan] : plans_) planned.push_back(plan.pid);
  Status st = RunLadder(node, planned);
  // A blocked rebuild leaves its page planned, and the node must not open
  // with it: NodeDown makes restart void the round and re-enter later.
  return st.IsUnavailable() ? Status::NodeDown(st.ToString()) : st;
}

Status InstantRestoreManager::RunLadder(Node* node,
                                        const std::vector<PageId>& pids) {
  const std::uint64_t t0 = node->network_->clock()->NowNanos();
  InRestoreGuard guard(&in_restore_pids_, pids);
  // Rungs 1-4 per page; the pages they leave need fresh full-history PSN
  // lists, one request per redo source. BuildPsnList starts a new
  // conversation (it clears stale resume cursors), so a rebuild interrupted
  // by a crash or a down peer re-enters cleanly. An unreachable source
  // blocks this attempt only: without its list the schedule could hide a
  // hole, and a maybe-stale page must never be served.
  std::vector<PageId> unsettled;
  std::map<NodeId, std::vector<PageId>> pages_per_node;
  for (PageId pid : pids) {
    CLOG_ASSIGN_OR_RETURN(bool settled, Settle(node, pid, t0));
    if (settled) continue;
    unsettled.push_back(pid);
    pages_per_node[node->id_].push_back(pid);
    for (NodeId peer : plans_.at(pid.Pack()).redo_sources) {
      pages_per_node[peer].push_back(pid);
    }
  }
  std::map<PageId, PsnLists> lists;
  Status st = node->GatherPsnLists(pages_per_node, /*full_history=*/true,
                                   &lists);
  if (st.IsNodeDown() || st.IsUnavailable()) return Blocked(node, st);
  CLOG_RETURN_IF_ERROR(st);
  for (PageId pid : unsettled) {
    if (!IsRestoring(pid)) continue;  // A nested touch rebuilt it.
    CLOG_RETURN_IF_ERROR(Rebuild(node, pid, lists[pid], t0));
  }
  return Status::OK();
}

Result<bool> InstantRestoreManager::Settle(Node* node, PageId pid,
                                           std::uint64_t t0) {
  // 1. A cached copy already here. During a restore epoch the only way a
  //    planned page enters the pool is a peer shipping it (install) or a
  //    finished rebuild, and both are complete. Partially-redone images
  //    never touch the pool (Rebuild works on a local scratch page), so
  //    this copy is current; make it durable and be done.
  if (Page* cached = node->pool_.Lookup(pid)) {
    const Psn psn = cached->psn();
    if (node->pool_.IsDirty(pid)) {
      CLOG_RETURN_IF_ERROR(node->ForceOwnPage(pid));
    }
    CLOG_RETURN_IF_ERROR(LiftPoison(node, pid));
    node->metrics_.GetCounter("restore.pages_already_durable").Add(1);
    CLOG_RETURN_IF_ERROR(
        Finish(node, pid, psn, RestoreSource::kAlreadyDurable, t0));
    return true;
  }

  // 2. A readable durable image (restore-epoch invariant: it was written
  //    after the plan from a complete source, such as a shipped copy
  //    forced through a full pool or an eviction write-back).
  {
    Page probe;
    if (node->ReadDurablePage(pid, &probe).ok()) {
      node->ChargeDiskRead();
      CLOG_RETURN_IF_ERROR(LiftPoison(node, pid));
      node->metrics_.GetCounter("restore.pages_already_durable").Add(1);
      CLOG_RETURN_IF_ERROR(Finish(node, pid, probe.psn(),
                                  RestoreSource::kAlreadyDurable, t0));
      return true;
    }
  }

  // 3. Fast path: a peer from the plan still caches the page. Any cached
  //    copy carries the page's entire committed history.
  const std::vector<NodeId> candidates = plans_.at(pid.Pack()).peer_candidates;
  for (NodeId holder : candidates) {
    std::shared_ptr<Page> copy;
    Status st = node->network_->FetchCachedPage(node->id_, holder, pid, &copy);
    if (!st.ok() || !copy) continue;  // Down or evicted: next candidate.
    const Psn psn = copy->psn();
    CLOG_RETURN_IF_ERROR(node->InstallShippedCopy(*copy, holder));
    // Dirty in the pool, or bypass-written to disk by a full pool. Either
    // way ForceOwnPage leaves it durable and flush-notifies the plan-time
    // contributors waiting on this page.
    CLOG_RETURN_IF_ERROR(node->ForceOwnPage(pid));
    CLOG_RETURN_IF_ERROR(LiftPoison(node, pid));
    node->metrics_.GetCounter("restore.pages_from_peer").Add(1);
    CLOG_RETURN_IF_ERROR(Finish(node, pid, psn, RestoreSource::kPeerCache, t0));
    return true;
  }

  // 4. No complete copy anywhere, and a destroyed client log already proved
  //    the top of this page's history unrecoverable: the fence stands. The
  //    page leaves the restoring set; its rebuild verdict is the poison
  //    entry, and service paths refuse it with Corruption.
  if (node->poison_.NeededPsn(pid) == kPsnUnrecoverable) {
    node->metrics_.GetCounter("restore.pages_poisoned").Add(1);
    CLOG_RETURN_IF_ERROR(Finish(node, pid, 0, RestoreSource::kPoisoned, t0));
    return true;
  }
  return !IsRestoring(pid);  // A nested rebuild may have run at a wait.
}

Status InstantRestoreManager::Rebuild(Node* node, PageId pid,
                                      const PsnLists& lists,
                                      std::uint64_t t0) {
  // 5. Slow path: the newest archived image (or the PSN seed) plus the
  //    merged full-history redo schedule across every source's client log.
  const Psn seed = node->DurableSeedPsn(pid);
  Page base;
  bool from_archive = false;
  // The archive holds home pages only; an adopted page's slot there is
  // this node's own page of the same number.
  if (node->archive_.is_open() && pid.owner == node->id_) {
    Status ar = node->archive_.Restore(pid.page_no, &base);
    // An image older than the seed is from a prior life of a freed and
    // reallocated slot, useless for this incarnation.
    if (ar.ok() && base.psn() >= seed) {
      from_archive = true;
      node->metrics_.GetCounter("media.archive_restores").Add(1);
    }
  }
  if (!from_archive) {
    base.Format(pid, PageType::kData, seed);
    SlottedPage(&base).InitBody();
    node->metrics_.GetCounter("recovery.pages_rebuilt_from_seed").Add(1);
  }
  Node::ReplayStats replay;
  Status st = node->ReplayPsnSchedule(pid, lists, &base, &replay);
  if (st.IsNodeDown() || st.IsUnavailable()) return Blocked(node, st);
  CLOG_RETURN_IF_ERROR(st);
  if (replay.poisoned) {
    node->metrics_.GetCounter("restore.pages_poisoned").Add(1);
    return Finish(node, pid, base.psn(), RestoreSource::kPoisoned, t0);
  }

  // Landing is PSN-monotonic. Two rebuild conversations for the same page
  // can interleave at re-entrant wait points (a background sweeper and a
  // first-touch rebuild): the per-page recovery cursors on the redo
  // sources alias across conversations, so the conversation that resumes
  // after the other finished may have replayed nothing and still hold the
  // bare base image. A rebuilt image therefore never replaces a newer
  // pool or durable version; the interleaved duplicate becomes wasted
  // work instead of a silent rollback of committed history.
  const Page* newest = node->pool_.Lookup(pid);
  Page durable;
  if (newest == nullptr && node->ReadDurablePage(pid, &durable).ok() &&
      durable.psn() >= base.psn()) {
    node->ChargeDiskRead();
    newest = &durable;
  }
  if (newest != nullptr && newest->psn() >= base.psn()) {
    CLOG_RETURN_IF_ERROR(LiftPoison(node, pid));
    return Finish(node, pid, newest->psn(), RestoreSource::kAlreadyDurable,
                  t0);
  }
  CLOG_RETURN_IF_ERROR(node->LandRebuiltPage(pid, base, lists));
  node->metrics_
      .GetCounter(from_archive ? "restore.pages_from_archive"
                               : "restore.pages_from_seed")
      .Add(1);
  return Finish(node, pid, base.psn(),
                from_archive ? RestoreSource::kArchiveRedo
                             : RestoreSource::kSeedRedo,
                t0);
}

std::size_t InstantRestoreManager::Sweep(Node* node, std::size_t max_pages) {
  std::size_t done = 0;
  while (done < max_pages && !plans_.empty()) {
    // Hottest plan first (ties by PageId for determinism); on-demand
    // touches already jumped the queue, this drains the cold tail.
    auto best = plans_.begin();
    for (auto pit = plans_.begin(); pit != plans_.end(); ++pit) {
      if (pit->second.priority > best->second.priority) best = pit;
    }
    const PageId pid = best->second.pid;
    Status st = RestoreOne(node, pid);
    if (!st.ok()) {
      // A blocked or failed rebuild leaves the page restoring; later
      // sweeps (or a touch once the peer returns) retry. Stop the pass:
      // the same dead peer likely blocks the rest too.
      node->metrics_.GetCounter("restore.sweep_blocked").Add(1);
      break;
    }
    ++done;
  }
  if (done > 0) node->metrics_.GetCounter("restore.sweep_passes").Add(1);
  return done;
}

}  // namespace clog
