#include <algorithm>

#include "node/node.h"
#include "trace/trace_sink.h"

/// \file
/// NodeService handlers: the owner-side page/lock service of Section 2.2
/// and the peer-side recovery protocol of Sections 2.3-2.4, plus the
/// coordinator side of Section 2.3.4 that restart redo and lost-page
/// rebuilds share.

namespace clog {

// ---------------------------------------------------------------------------
// Normal processing (Section 2.2)
// ---------------------------------------------------------------------------

Status Node::HandleLockPage(NodeId from, PageId pid, LockMode mode,
                            bool want_page, const Page* carried,
                            LockPageReply* reply) {
  *reply = LockPageReply();
  if (state_ == NodeState::kDown) return Status::NodeDown("owner not up");
  if (carried != nullptr) {
    // The requester's replaced dirty copy of another of our pages rode the
    // request home (Section 2.1): install it first, exactly as a ship.
    CLOG_RETURN_IF_ERROR(HandlePageShip(from, *carried));
    reply->carried_installed = true;
  }
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the owner of " + pid.ToString());
  }
  if (pid.owner == id_ ? !space_map_.IsAllocated(pid.page_no)
                       : !handoff_.IsAdopted(pid)) {
    return Status::NotFound("page not allocated: " + pid.ToString());
  }
  if (!handoff_fenced_.empty() && handoff_fenced_.count(pid) != 0) {
    // The page is mid-handoff: its recovery state is being transferred, so
    // no new lock may be minted against the old owner's table.
    return Status::Busy("page handoff in progress: " + pid.ToString());
  }
  // Instant restore: a requester's touch of a still-restoring page rebuilds
  // it now, before the poison check — the rebuild itself may prove the page
  // whole (peer copy, archive + redo) or poison it for real.
  CLOG_RETURN_IF_ERROR(EnsureRestored(pid));
  if (poison_.Contains(pid)) {
    // Media recovery could not rebuild this page (a client log holding part
    // of its history is gone). Serving it would hand out silently wrong
    // data; refusing is the contract.
    return Status::Corruption("page unrecoverable after media failure: " +
                              pid.ToString());
  }
  if (state_ == NodeState::kRecovering) {
    // During restart recovery only conflict-free grants are served (no
    // callbacks run in this state): enough for a recovering peer to fetch
    // a base version or re-assert a lock it already holds, while normal
    // traffic stays fenced until recovery finishes.
    if (global_locks_.HeldBy(pid, from) < mode) {
      GrantOutcome out = global_locks_.TryGrant(pid, from, mode);
      if (!out.granted && recovery_redo_done_) {
        // Joint restart (Section 2.4): once our own redo pass is complete,
        // the Section 2.3.3 fences we installed on our pages have done
        // their job. A recovering peer's undo pass may need one of those
        // pages; yield the fence exactly as a normal self-callback would,
        // provided we are the only conflicting holder and no local
        // transaction uses the page.
        bool all_self = true;
        for (NodeId holder : out.conflicting) {
          if (holder != id_) {
            all_self = false;
            break;
          }
        }
        LockMode downgrade_to =
            mode == LockMode::kShared ? LockMode::kShared : LockMode::kNone;
        if (all_self && lock_cache_.CanComply(pid, downgrade_to).can_comply) {
          lock_cache_.ApplyCallback(pid, downgrade_to);
          if (downgrade_to == LockMode::kNone) {
            global_locks_.Release(pid, id_);
          } else {
            global_locks_.Downgrade(pid, id_);
          }
          out = global_locks_.TryGrant(pid, from, mode);
        }
      }
      if (!out.granted) {
        return Status::NodeDown("owner recovering; lock conflicts");
      }
    }
    reply->granted = true;
    if (want_page) {
      CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid));
      CLOG_ASSIGN_OR_RETURN(Page * latest, OwnLatestPage(pid));
      reply->page = std::make_shared<Page>(*latest);
    }
    return Status::OK();
  }

  for (int attempt = 0; attempt < 4; ++attempt) {
    GrantOutcome out = global_locks_.TryGrant(pid, from, mode);
    if (out.granted) {
      reply->granted = true;
      break;
    }
    // Callback locking: conflicting cached locks are called back. A read
    // request demotes X holders to S; a write request releases everyone
    // (Section 2.2).
    LockMode downgrade_to =
        mode == LockMode::kShared ? LockMode::kShared : LockMode::kNone;
    bool all_complied = true;
    for (NodeId holder : out.conflicting) {
      if (holder == id_) {
        // Callback to ourselves: our own local transactions are the users.
        CallbackDecision dec = lock_cache_.CanComply(pid, downgrade_to);
        if (!dec.can_comply) {
          all_complied = false;
          reply->blockers.push_back(holder);
          reply->blocking_txns.insert(reply->blocking_txns.end(),
                                      dec.blocking_txns.begin(),
                                      dec.blocking_txns.end());
          continue;
        }
        lock_cache_.ApplyCallback(pid, downgrade_to);
        if (downgrade_to == LockMode::kNone) {
          global_locks_.Release(pid, id_);
          // Our cached copy stays: the owner's pool is the home for the
          // page between remote holders.
        } else {
          global_locks_.Downgrade(pid, id_);
        }
        continue;
      }
      CallbackReply cb;
      Status st = network_->Callback(id_, holder, pid, downgrade_to, &cb);
      if (st.IsNodeDown()) {
        // Holder crashed while holding the lock: the page must wait for
        // that node's recovery (Section 2.3: exclusive locks of a crashed
        // node are retained).
        all_complied = false;
        reply->blockers.push_back(holder);
        continue;
      }
      if (!st.ok()) return st;
      if (!cb.complied) {
        all_complied = false;
        reply->blockers.push_back(holder);
        reply->blocking_txns.insert(reply->blocking_txns.end(),
                                    cb.blocking_txns.begin(),
                                    cb.blocking_txns.end());
        continue;
      }
      if (downgrade_to == LockMode::kNone) {
        global_locks_.Release(pid, holder);
      } else {
        global_locks_.Downgrade(pid, holder);
      }
      if (cb.page) {
        CLOG_RETURN_IF_ERROR(InstallShippedCopy(*cb.page, holder));
        if (options_.logging_mode == LoggingMode::kForceAtTransfer) {
          // B2 forces every transferred page to disk.
          CLOG_RETURN_IF_ERROR(ForceOwnPage(pid));
        }
      }
    }
    if (!all_complied) {
      reply->granted = false;
      ctr_callback_blocked_->Add(1);
      return Status::OK();
    }
  }

  if (!reply->granted) {
    return Status::Busy("lock grant did not converge on " + pid.ToString());
  }
  ctr_lock_grants_->Add(1);
  if (want_page) {
    CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid));
    CLOG_ASSIGN_OR_RETURN(Page * latest, OwnLatestPage(pid));
    reply->page = std::make_shared<Page>(*latest);
  }
  return Status::OK();
}

Status Node::WalBeforePageLeaves(PageId pid) {
  if (!pool_.IsDirty(pid)) return Status::OK();
  if (options_.logging_mode == LoggingMode::kShipToOwner) {
    // B1 WAL-to-owner: the owner's log must cover the page before the page
    // arrives there.
    for (const Transaction* t : txns_.Active()) {
      CLOG_RETURN_IF_ERROR(ShipPendingRecords(const_cast<Transaction*>(t),
                                              /*force=*/false, &pid));
    }
    return Status::OK();
  }
  // Adaptive: an image with live logical updates must not become durable
  // anywhere before their before-images (or commit) are in the log.
  CLOG_RETURN_IF_ERROR(PrepareSteal(pid));
  const Page* page = pool_.Peek(pid);
  if (page != nullptr && page->page_lsn() >= log_.flushed_lsn()) {
    return ForceLog(page->page_lsn());
  }
  return Status::OK();
}

Result<Page*> Node::OwnLatestPage(PageId pid) {
  if (Page* cached = pool_.Lookup(pid)) return cached;
  // An on-demand rebuild installs the page in the pool; re-check before
  // the miss path tries to Insert the same frame.
  CLOG_RETURN_IF_ERROR(EnsureRestored(pid));
  if (Page* cached = pool_.Lookup(pid)) return cached;
  if (poison_.Contains(pid)) {
    return Status::Corruption("page unrecoverable after media failure: " +
                              pid.ToString());
  }
  CLOG_ASSIGN_OR_RETURN(Page * frame, pool_.Insert(pid, Page()));
  Status st = ReadDurablePage(pid, frame);
  if (!st.ok()) {
    pool_.Drop(pid);
    return st;
  }
  ChargeDiskRead();
  return frame;
}

Status Node::HandleCallback(NodeId from, PageId pid, LockMode downgrade_to,
                            CallbackReply* reply) {
  *reply = CallbackReply();
  if (state_ != NodeState::kUp) return Status::NodeDown("holder not up");

  CallbackDecision dec = lock_cache_.CanComply(pid, downgrade_to);
  if (!dec.can_comply) {
    reply->complied = false;
    reply->blocking_txns = dec.blocking_txns;
    metrics_.GetCounter("lock.callbacks_refused").Add(1);
    return Status::OK();
  }

  // The dirty copy travels with the callback reply so the owner can hand
  // the current version to the requester. WAL first.
  CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid));
  Page* cached = pool_.Lookup(pid);
  if (cached != nullptr && pool_.IsDirty(pid)) {
    reply->page = std::make_shared<Page>(*cached);
    reply->page_psn = cached->psn();
    dpt_.OnReplaced(pid, cached->psn(), log_.end_lsn());
    pool_.MarkClean(pid);
  }
  if (downgrade_to == LockMode::kNone && cached != nullptr) {
    // Without a lock the page cannot stay cached.
    pool_.Drop(pid);
  }
  lock_cache_.ApplyCallback(pid, downgrade_to);
  reply->complied = true;
  ctr_callbacks_honored_->Add(1);
  return Status::OK();
}

Status Node::HandleUnlockNotice(NodeId from, PageId pid) {
  global_locks_.Release(pid, from);
  return Status::OK();
}

Status Node::HandlePageShip(NodeId from, const Page& page) {
  if (state_ == NodeState::kDown) return Status::NodeDown("owner down");
  CLOG_RETURN_IF_ERROR(page.VerifyChecksum());
  // Read before the install: it can wait, and a task run meanwhile on the
  // sender may drop the frame `page` refers to.
  const PageId pid = page.id();
  CLOG_RETURN_IF_ERROR(InstallShippedCopy(page, from));
  if (!handoff_fenced_.empty() && handoff_fenced_.count(pid) != 0) {
    // Mid-handoff the shipped (kShipped) durable image must stay the
    // latest version: re-force so the offer built from it misses nothing.
    CLOG_RETURN_IF_ERROR(ForceOwnPage(pid));
  }
  return Status::OK();
}

Status Node::HandleFlushRequest(NodeId from, PageId pid) {
  if (state_ != NodeState::kUp) return Status::NodeDown("owner not up");
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the owner of " + pid.ToString());
  }
  replacers_[pid].insert(from);
  return ForceOwnPage(pid);
}

void Node::HandleFlushNotify(NodeId from, PageId pid, Psn flushed_psn) {
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kFlushNotify, pid.Pack(), flushed_psn,
                 from);
  }
  dpt_.OnOwnerFlushed(pid, flushed_psn);
  // PSNs order every update to a page globally, so a flushed version at
  // PSN >= ours subsumes our cached copy: everything in it is on the
  // owner's disk. The copy can stay cached, but it no longer needs to
  // travel home on replacement.
  Page* cached = pool_.Lookup(pid);
  if (cached != nullptr && pool_.IsDirty(pid) && cached->psn() <= flushed_psn) {
    pool_.MarkClean(pid);
  }
  AdvanceReclaimHorizon();
}

Status Node::HandleLogShip(NodeId from, const std::vector<LogRecord>& records,
                           bool force) {
  if (state_ != NodeState::kUp) return Status::NodeDown("owner not up");
  if (!options_.has_local_log) {
    return Status::FailedPrecondition("log ship to a node without a log");
  }
  Lsn lsn = kNullLsn;
  for (const LogRecord& rec : records) {
    CLOG_RETURN_IF_ERROR(AppendWithReclaim(rec, &lsn));
  }
  if (force) {
    CLOG_RETURN_IF_ERROR(ForceLog(lsn));
  }
  b1_received_records_ += records.size();
  metrics_.GetCounter("b1.records_received").Add(records.size());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery protocol handlers (Sections 2.3, 2.4)
// ---------------------------------------------------------------------------

Status Node::HandleRecoveryQuery(NodeId crashed, RecoveryQueryReply* reply) {
  *reply = RecoveryQueryReply();
  if (state_ == NodeState::kDown) return Status::NodeDown("peer down");

  // (a) Pages owned by the crashed node present in our cache: these carry
  // all updates made before the crash and supersede log-based recovery
  // (Section 2.3.1).
  for (PageId pid : pool_.CachedPages()) {
    if (OwnerOf(pid) == crashed) reply->cached_pages_of_crashed.push_back(pid);
  }
  std::sort(reply->cached_pages_of_crashed.begin(),
            reply->cached_pages_of_crashed.end());

  // (b) Our DPT entries for its pages (Section 2.3.1). Ownership routes
  // through the directory: an adopted page's recovery state belongs to its
  // current owner, not the home baked into the PageId.
  for (const DptEntry& e : dpt_.ToEntries()) {
    if (OwnerOf(e.pid) == crashed) {
      reply->dpt_entries_for_crashed.push_back(e);
    }
  }
  std::sort(reply->dpt_entries_for_crashed.begin(),
            reply->dpt_entries_for_crashed.end(),
            [](const DptEntry& a, const DptEntry& b) { return a.pid < b.pid; });

  // (c) Lock reconstruction (Section 2.3.3): locks we acquired from the
  // crashed node rebuild its global table ...
  for (const LockListEntry& l : lock_cache_.NodeLocks()) {
    if (OwnerOf(l.pid) == crashed) {
      reply->locks_i_hold_on_crashed.push_back(l);
    }
  }

  // ... its shared locks here are released, its exclusive locks retained
  // (they fence off pages that are not yet recovered) and reported so it
  // can rebuild its lock cache.
  global_locks_.ReleaseSharedOf(crashed);
  reply->x_locks_crashed_held_here = global_locks_.ExclusiveLocksOf(crashed);

  // (d) Debts: pages of `crashed` whose history passed through a log we
  // lost to a media failure. The direct LogLossNotice could not be
  // delivered while it was down; the recovery query is the guaranteed
  // rendezvous (every restart queries every peer).
  for (const auto& [packed, needed] : poison_.entries()) {
    (void)needed;
    const PageId pid = PageId::Unpack(packed);
    if (OwnerOf(pid) == crashed) {
      reply->log_loss_pages_of_crashed.push_back(pid);
    }
  }
  std::sort(reply->log_loss_pages_of_crashed.begin(),
            reply->log_loss_pages_of_crashed.end());
  return Status::OK();
}

Status Node::HandleFetchCachedPage(NodeId from, PageId pid,
                                   std::shared_ptr<Page>* page) {
  page->reset();
  if (state_ == NodeState::kDown) return Status::NodeDown("peer down");
  CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid));
  Page* cached = pool_.Lookup(pid);
  if (cached == nullptr) {
    return Status::NotFound("page not cached: " + pid.ToString());
  }
  *page = std::make_shared<Page>(*cached);
  return Status::OK();
}

Status Node::HandleBuildPsnList(NodeId from, const std::vector<PageId>& pages,
                                bool full_history, PsnListReply* reply) {
  *reply = PsnListReply();
  reply->per_page.resize(pages.size());
  if (state_ == NodeState::kDown) return Status::NodeDown("peer down");
  if (!options_.has_local_log) return Status::OK();

  // Scan from the minimum RedoLSN among our DPT entries for the requested
  // pages (Section 2.3.4); without an entry we have nothing to redo. In
  // full-history mode (a torn on-disk page is being rebuilt from its
  // space-map PSN seed) the DPT is no guide — updates already flushed and
  // acknowledged must be replayed again — so the whole log is scanned.
  std::map<PageId, std::size_t> index;
  for (std::size_t i = 0; i < pages.size(); ++i) index[pages[i]] = i;

  // Re-entrancy (Section 2.4 + crash-during-recovery): a previous recovery
  // conversation for these pages may have died mid-flight — the requester
  // crashed between BuildPsnList and its final RecoverPage round — leaving
  // a stale resume cursor behind. A fresh BuildPsnList starts a fresh
  // conversation, so any leftover per-page scan state must go: the
  // try_emplace below would otherwise keep the stale cursor and make the
  // next redo pass resume at the wrong log position.
  for (const PageId& pid : pages) {
    recovery_cursor_.erase(pid);
    recovery_applied_.erase(pid);
  }
  Lsn start = kNullLsn;
  if (full_history) {
    start = LogManager::first_lsn();
  } else {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const DirtyPageInfo* info = dpt_.Find(pages[i]);
      if (info == nullptr) continue;
      if (start == kNullLsn || info->redo_lsn < start) start = info->redo_lsn;
    }
  }
  if (start == kNullLsn) return Status::OK();

  // One pass: a PSN enters the list when the record's transaction differs
  // from the transaction of the previously inserted PSN for that page.
  //
  // Adaptive logging (docs/PROTOCOLS.md "Redo skip rule"): logical records
  // of a transaction that never reached a commit NOR an UNDO_BACKFILL are
  // volatile-only — their effects were never exposed (the steal barrier
  // upgrades before any covered page leaves the cache), so redo must not
  // replay them. The same scan that builds the lists classifies them: a
  // commit/backfill always carries a higher LSN than the records it covers,
  // so "logical record seen, no commit/backfill seen by log end" is proof.
  // Live transactions are exempt — an instant-restore rebuild can run while
  // normal processing has open adaptive transactions that will still commit.
  std::map<PageId, TxnId> last_txn;
  std::vector<std::vector<TxnId>> entry_txns(pages.size());
  std::set<TxnId> logical_txns;
  std::set<TxnId> resolved_txns;
  LogCursor cursor(&log_, start);
  LogRecord rec;
  Lsn lsn = kNullLsn;
  Status scan_status;
  while (cursor.Next(&rec, &lsn, &scan_status)) {
    if (rec.type == LogRecordType::kCommit ||
        rec.type == LogRecordType::kUndoBackfill) {
      resolved_txns.insert(rec.txn);
      continue;
    }
    if (rec.type != LogRecordType::kUpdate &&
        rec.type != LogRecordType::kClr &&
        rec.type != LogRecordType::kLogicalUpdate) {
      continue;
    }
    if (rec.type == LogRecordType::kLogicalUpdate) {
      logical_txns.insert(rec.txn);
    }
    auto it = index.find(rec.page);
    if (it == index.end()) continue;
    if (!full_history) {
      const DirtyPageInfo* info = dpt_.Find(rec.page);
      if (info == nullptr || lsn < info->redo_lsn) {
        continue;  // Before this page's redo point: already on disk.
      }
    }
    // Remember where recovery for this page starts in our log. A
    // full-history scan overwrites any cursor a previous partial scan
    // left: redo must restart at the page's first record.
    auto lt = last_txn.find(rec.page);
    if (full_history && lt == last_txn.end()) {
      recovery_cursor_[rec.page] = lsn;
    } else {
      recovery_cursor_.try_emplace(rec.page, lsn);
    }
    if (lt == last_txn.end() || lt->second != rec.txn) {
      reply->per_page[it->second].push_back(PsnListEntry{rec.psn_before, lsn});
      entry_txns[it->second].push_back(rec.txn);
      last_txn[rec.page] = rec.txn;
    }
  }
  CLOG_RETURN_IF_ERROR(scan_status);

  // Drop skip-transaction entries from the lists and remember the verdict
  // for the redo rounds. Coalesced entries are per-transaction runs, so
  // erasing a skip transaction's entries removes exactly its records'
  // claim on the merged PSN order; later transactions that reused the same
  // PSNs (a previous crash's pure-logical loser) keep their own entries.
  std::set<TxnId> skip;
  for (TxnId t : logical_txns) {
    if (resolved_txns.count(t) != 0) continue;
    if (txns_.Find(t) != nullptr) continue;  // Live: will commit or upgrade.
    skip.insert(t);
  }
  if (!skip.empty()) {
    recovery_skip_txns_.insert(skip.begin(), skip.end());
    for (std::size_t i = 0; i < pages.size(); ++i) {
      auto& list = reply->per_page[i];
      std::size_t kept = 0;
      for (std::size_t j = 0; j < list.size(); ++j) {
        if (skip.count(entry_txns[i][j]) == 0) list[kept++] = list[j];
      }
      list.resize(kept);
    }
  }
  reply->records_scanned = cursor.records_read();
  metrics_.GetCounter("recovery.psn_list_scans").Add(1);
  metrics_.GetCounter("recovery.records_scanned")
      .Add(cursor.records_read());
  return Status::OK();
}

Status Node::HandleRecoverPage(NodeId from, PageId pid, const Page& page_in,
                               bool has_bound, Psn bound,
                               RecoverPageReply* reply) {
  *reply = RecoverPageReply();
  if (state_ == NodeState::kDown) return Status::NodeDown("peer down");
  if (!options_.has_local_log) {
    return Status::FailedPrecondition("no local log to recover from");
  }

  auto work = std::make_shared<Page>(page_in);

  Lsn start = kNullLsn;
  auto cit = recovery_cursor_.find(pid);
  if (cit != recovery_cursor_.end()) {
    start = cit->second;
  } else if (const DirtyPageInfo* info = dpt_.Find(pid)) {
    start = info->redo_lsn;
  } else {
    start = log_.end_lsn();  // Nothing to contribute.
  }

  LogCursor cursor(&log_, start);
  LogRecord rec;
  Lsn lsn = kNullLsn;
  Status scan_status;
  bool more = false;
  while (cursor.Next(&rec, &lsn, &scan_status)) {
    if (rec.type != LogRecordType::kUpdate &&
        rec.type != LogRecordType::kClr &&
        rec.type != LogRecordType::kLogicalUpdate) {
      continue;
    }
    if (rec.page != pid) continue;
    if (rec.type == LogRecordType::kLogicalUpdate &&
        recovery_skip_txns_.count(rec.txn) != 0) {
      // Redo skip rule: volatile-only record of a transaction that never
      // committed nor backfilled. Checked BEFORE the bound: the merged PSN
      // lists exclude skip entries, so a skip record past the bound must
      // not pause the round — the next real contributor is another node.
      continue;
    }
    if (has_bound && rec.psn_before > bound) {
      // Another node's updates come next in PSN order; remember where to
      // resume (Section 2.3.4).
      recovery_cursor_[pid] = lsn;
      more = true;
      break;
    }
    if (rec.psn_before == work->psn()) {
      CLOG_RETURN_IF_ERROR(ApplyRedo(rec, work.get()));
      ++reply->applied;
    }
    // Records with psn_before < page PSN are already reflected; records
    // with a higher PSN under the bound cannot occur (the coordinator's
    // ordering guarantees the gap belongs to another node).
  }
  CLOG_RETURN_IF_ERROR(scan_status);
  recovery_applied_[pid] += reply->applied;

  if (!more) {
    // Section 2.3.4 closing bookkeeping: a node that contributed nothing
    // drops its DPT entry (no lock held) or re-arms RedoLSN at the log end
    // (lock still held, all its past updates are on disk).
    recovery_cursor_.erase(pid);
    std::uint64_t total = recovery_applied_[pid];
    recovery_applied_.erase(pid);
    if (total == 0 && dpt_.Contains(pid)) {
      if (lock_cache_.NodeMode(pid) == LockMode::kNone) {
        dpt_.Remove(pid);
      } else {
        dpt_.SetRedoLsn(pid, log_.end_lsn());
      }
      AdvanceReclaimHorizon();
    }
  }
  reply->more = more;
  reply->page = std::move(work);
  metrics_.GetCounter("recovery.redo_applied").Add(reply->applied);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Coordinator side of Section 2.3.4: restart redo and lost-page rebuilds
// ---------------------------------------------------------------------------

Status Node::GatherPsnLists(
    const std::map<NodeId, std::vector<PageId>>& pages_per_node,
    bool full_history, std::map<PageId, PsnLists>* out) {
  for (const auto& [peer, pages] : pages_per_node) {
    PsnListReply reply;
    if (peer == id_) {
      CLOG_RETURN_IF_ERROR(
          HandleBuildPsnList(id_, pages, full_history, &reply));
    } else {
      CLOG_RETURN_IF_ERROR(
          network_->BuildPsnList(id_, peer, pages, full_history, &reply));
    }
    for (std::size_t i = 0; i < pages.size(); ++i) {
      if (!reply.per_page[i].empty()) {
        (*out)[pages[i]][peer] = std::move(reply.per_page[i]);
      }
    }
  }
  return Status::OK();
}

Status Node::ReplayPsnSchedule(PageId pid, const PsnLists& lists, Page* base,
                               ReplayStats* stats) {
  // Step 1: ascending PSN order, adjacent same-node entries merged.
  const std::vector<RecoveryRun> runs = MergePsnLists(lists);
  // Steps 2-4: each node applies its redo until the next run's PSN.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    // Runs wholly below the base are already reflected in it: an archive
    // or disk base subsumes them (a full-history list holds the page's
    // whole life).
    if (i + 1 < runs.size() && runs[i + 1].psn <= base->psn()) continue;
    if (runs[i].psn > base->psn()) {
      // PSN density: every update bumped the PSN by exactly one, so the
      // schedule must tile upward from the base without gaps. A run
      // starting above the page's current PSN proves records existed that
      // no surviving log holds (a destroyed client log). Serving the page
      // would be silent data loss, so fence it durably. The verdict records
      // the PSN a rebuild must reach; a later one that does reach it (say,
      // that client came back) lifts the fence.
      CLOG_RETURN_IF_ERROR(PoisonOwnPage(pid, runs[i].psn));
      stats->poisoned = true;
      return Status::OK();
    }
    const bool has_bound = i + 1 < runs.size();
    const Psn bound = has_bound ? runs[i + 1].psn - 1 : 0;
    const NodeId target = runs[i].node;
    RecoverPageReply reply;
    ++stats->rounds;
    CLOG_RETURN_IF_ERROR(
        target == id_
            ? HandleRecoverPage(id_, pid, *base, has_bound, bound, &reply)
            : network_->RecoverPage(id_, target, pid, *base, has_bound,
                                    bound, &reply));
    if (reply.page) *base = std::move(*reply.page);
    stats->applied += reply.applied;
  }
  return Status::OK();
}

Status Node::LandRebuiltPage(PageId pid, const Page& image,
                             const PsnLists& lists) {
  if (Page* frame = pool_.Lookup(pid)) {
    frame->CopyFrom(image);
  } else {
    CLOG_RETURN_IF_ERROR(pool_.Insert(pid, Page(image)).status());
  }
  pool_.MarkDirty(pid);
  for (const auto& [peer, _] : lists) {
    if (peer != id_) replacers_[pid].insert(peer);
  }
  // Forcing lets every contributor clear its DPT entry via the flush
  // notification (the conservative variant of the Section 2.3.4 DPT
  // adjustments).
  CLOG_RETURN_IF_ERROR(ForceOwnPage(pid));
  const Psn needed = poison_.NeededPsn(pid);
  if (needed != 0 && needed != kPsnUnrecoverable && image.psn() >= needed) {
    // An earlier rebuild poisoned this page over a PSN hole, and this one
    // got past it (a missing client's log came back). The image is durable
    // as of the force above, so the fence can lift.
    CLOG_RETURN_IF_ERROR(UnpoisonPage(pid));
    metrics_.GetCounter("media.pages_unpoisoned").Add(1);
  }
  metrics_.GetCounter("recovery.pages_recovered").Add(1);
  return Status::OK();
}

void Node::HandleNodeRecovered(NodeId who) {
  metrics_.GetCounter("recovery.peer_recovered_notices").Add(1);
  // Resume parked traffic: requests for `who` stopped at the door with
  // Unavailable while it was recovering; the next attempt goes through.
  if (parked_owners_.erase(who) > 0) {
    metrics_.GetCounter("avail.resumed").Add(1);
  }
}

PeerHealth Node::HandlePing() {
  switch (state_) {
    case NodeState::kUp:
      return PeerHealth::kUp;
    case NodeState::kRecovering:
      return PeerHealth::kRecovering;
    case NodeState::kDown:
      break;
  }
  // Unreachable in practice: the network refuses dispatch to down nodes.
  return PeerHealth::kDown;
}

}  // namespace clog
