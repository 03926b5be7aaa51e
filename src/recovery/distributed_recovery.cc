#include "recovery/distributed_recovery.h"

#include <algorithm>
#include <memory>

#include "trace/trace_sink.h"
#include "wal/log_reader.h"

namespace clog {

void RestartRecovery::FinishPhase(std::uint32_t phase, const char* hist_name,
                                  std::uint64_t start_ns) {
  const std::uint64_t dur =
      node_->network_->clock()->NowNanos() - start_ns;
  node_->metrics_.GetHistogram(hist_name).Record(dur);
  if (node_->trace_ != nullptr) {
    node_->trace_->Emit(node_->id_, TraceEventType::kRecoveryPhase, phase,
                        dur);
  }
}

Status RestartRecovery::OpenAndAnalyze() {
  if (node_->state_ != NodeState::kDown) {
    return Status::FailedPrecondition("node is not crashed");
  }
  const std::uint64_t t0 = node_->network_->clock()->NowNanos();
  CLOG_RETURN_IF_ERROR(node_->OpenStorage());
  // Elastic membership: re-fence pages the crash left mid-handoff and
  // publish surviving adoptions into the shared directory before any peer
  // RPC (or recovery phase) can route by ownership.
  node_->RegisterHandoffState();
  if (node_->options_.has_local_log) {
    // Media check before analysis: forced log bytes never shrink, so a log
    // shorter than the durable extent mark written at the last checkpoint
    // cannot be a lost unforced tail — the log device was destroyed and
    // recreated empty. (The mark lives on the metadata device and survives.)
    CLOG_ASSIGN_OR_RETURN(Lsn mark, node_->log_.LoadMark());
    if (mark != kNullLsn && node_->log_.end_lsn() < mark) {
      log_lost_ = true;
      stats_.log_loss_detected = true;
      node_->metrics_.GetCounter("media.log_loss_detected").Add(1);
    }
    CLOG_RETURN_IF_ERROR(AnalyzeLog(&node_->log_, &analysis_));
    // The rebuilt superset DPT (Sections 2.3.1 / 2.4).
    for (const auto& [pid, entry] : analysis_.dpt) {
      node_->dpt_.Install(entry);
    }
    stats_.analysis_records = analysis_.records_scanned;
    node_->metrics_.GetCounter("recovery.analysis_records")
        .Add(analysis_.records_scanned);
  }
  // Reachable for recovery RPCs; normal traffic stays fenced by the state.
  node_->state_ = NodeState::kRecovering;
  node_->network_->RegisterNode(node_->id_, node_);
  node_->network_->SetNodeUp(node_->id_, true);
  FinishPhase(0, "recovery.analyze_ns", t0);
  return Status::OK();
}

Status RestartRecovery::QueryPeers() {
  for (NodeId peer : node_->network_->OperationalNodes(node_->id_)) {
    RecoveryQueryReply reply;
    Status st = node_->network_->RecoveryQuery(node_->id_, peer, &reply);
    if (st.IsNodeDown()) continue;  // Crashed and not yet restarting.
    CLOG_RETURN_IF_ERROR(st);
    peer_replies_[peer] = std::move(reply);
    ++stats_.peers_queried;
  }
  return Status::OK();
}

Status RestartRecovery::ReconstructLocks() {
  // Section 2.3.3: peers report (a) locks they acquired from us — these
  // rebuild our global lock table — and (b) the exclusive locks we held on
  // their pages — retained there, and now re-installed in our lock cache.
  for (const auto& [peer, reply] : peer_replies_) {
    for (const LockListEntry& l : reply.locks_i_hold_on_crashed) {
      node_->global_locks_.Install(l.pid, peer, l.mode);
    }
    for (const LockListEntry& l : reply.x_locks_crashed_held_here) {
      node_->lock_cache_.Install(l.pid, LockMode::kExclusive);
    }
  }
  // "The crashed node needs to acquire exclusive locks for the pages
  // present in its DPT that do not have a lock entry": for owned pages the
  // fence is installed directly; remotely owned DPT pages either still
  // have our retained X (reported above) or their current version lives at
  // an operational node and needs no fence from us.
  for (const auto& [pid, info] : node_->dpt_.entries()) {
    if (!node_->OwnsPage(pid)) continue;
    if (node_->global_locks_.HoldersOf(pid).empty()) {
      node_->global_locks_.Install(pid, node_->id_, LockMode::kExclusive);
      node_->lock_cache_.Install(pid, LockMode::kExclusive);
    }
  }
  return Status::OK();
}

Status RestartRecovery::RecoverOwnPages() {
  NodeId me = node_->id_;

  // Candidates: every page of ours with a DPT entry anywhere — our
  // rebuilt superset and the peers' replies (Section 2.3.1: the basic
  // ARIES DPT alone is not enough because remote-only updates leave no
  // local log records). A peer restarting in the same round answers the
  // query from the superset its analysis rebuilt, which is how Section
  // 2.4 gets those entries to their owner.
  std::map<PageId, std::map<NodeId, DptEntry>> contributors;
  // Ownership routes through the directory: adopted pages are ours to
  // coordinate, home pages ceded away are not.
  for (const DptEntry& e : node_->dpt_.ToEntries()) {
    if (!node_->OwnsPage(e.pid)) continue;
    contributors[e.pid][me] = e;
  }
  for (const auto& [peer, reply] : peer_replies_) {
    for (const DptEntry& e : reply.dpt_entries_for_crashed) {
      contributors[e.pid][peer] = e;
    }
  }

  std::map<PageId, std::vector<NodeId>> cached_at;
  for (const auto& [peer, reply] : peer_replies_) {
    for (PageId pid : reply.cached_pages_of_crashed) {
      cached_at[pid].push_back(peer);
    }
  }

  if (log_lost_) {
    // Our log is gone: the DPT-driven redo below has nothing to stand on.
    return RecoverOwnPagesAfterLogLoss(cached_at);
  }

  // Media scan (requires the archive subsystem): flushes only ever extend
  // the database file, so a file shorter than the allocation horizon means
  // the data device was lost and recreated. Every allocated page becomes a
  // probe candidate — even ones with no DPT entry anywhere — and the
  // unreadable ones are planned for the lost-page rebuild below.
  std::set<PageId> media_probe;
  if (node_->archive_.is_open()) {
    std::uint32_t horizon = 0;
    const std::vector<std::uint32_t> allocated =
        node_->space_map_.AllocatedPages();
    for (std::uint32_t p : allocated) horizon = std::max(horizon, p + 1);
    if (horizon != 0) {
      CLOG_ASSIGN_OR_RETURN(std::uint32_t have, node_->disk_.NumPages());
      if (have < horizon) {
        for (std::uint32_t p : allocated) {
          const PageId probe{me, p};
          // Ceded pages live (durably) at their new owner; the recreated
          // data device owes them nothing.
          if (node_->handoff_.IsCeded(probe)) continue;
          media_probe.insert(probe);
          if (contributors.try_emplace(probe).second) {
            ++stats_.media_candidates;
          }
        }
      }
    }
  }
  // Pages an earlier restart planned but never finished rebuilding.
  // Rebuilds run in workload order, so a completed high-numbered page may
  // have re-extended the file — the extent check above can go blind while
  // lower pages are still holes, and a torn page may have lost the DPT
  // entry that made it a candidate. The durable restore ledger is the
  // authority: its entries are probe candidates regardless.
  for (std::uint64_t packed : node_->restore_.LedgerEntries()) {
    const PageId pid = PageId::Unpack(packed);
    if (!node_->OwnsPage(pid) ||
        (pid.owner == me && !node_->space_map_.IsAllocated(pid.page_no))) {
      CLOG_RETURN_IF_ERROR(node_->restore_.Forget(pid));
      continue;
    }
    if (media_probe.insert(pid).second &&
        contributors.try_emplace(pid).second) {
      ++stats_.media_candidates;
    }
  }
  if (stats_.media_candidates != 0) {
    node_->metrics_.GetCounter("media.scan_candidates")
        .Add(stats_.media_candidates);
  }

  struct WorkItem {
    PageId pid;
    std::unique_ptr<Page> base;
    std::map<NodeId, DptEntry> involved;
  };
  std::vector<WorkItem> work;
  std::uint64_t planned_with_peer = 0;

  for (auto& [pid, contribs] : contributors) {
    auto cit = cached_at.find(pid);
    // Instant restore defers media-lost pages even when a peer caches a
    // copy: the plan records the holder as a peer candidate and the
    // on-demand rebuild fetches it at first touch, so restart itself does
    // no page transfers at all. (If the holder drops the copy first, the
    // rebuild falls back to archive + redo — the contributors' logs stay
    // pinned below either way.)
    const bool defer_fetch =
        node_->options_.instant_restore.enabled && media_probe.contains(pid);
    if (cit != cached_at.end() && !defer_fetch) {
      // Section 2.3.1: a copy cached at an operational node carries every
      // update made before the crash; fetch it instead of redoing logs.
      bool fetched = false;
      for (NodeId holder : cit->second) {
        std::shared_ptr<Page> copy;
        Status st =
            node_->network_->FetchCachedPage(me, holder, pid, &copy);
        if (st.ok() && copy) {
          CLOG_RETURN_IF_ERROR(node_->InstallShippedCopy(*copy, holder));
          fetched = true;
          break;
        }
      }
      if (fetched || node_->pool_.Contains(pid)) {
        for (const auto& [n, e] : contribs) {
          if (n != me) node_->replacers_[pid].insert(n);
        }
        ++stats_.own_pages_fetched;
        node_->metrics_.GetCounter("recovery.pages_fetched_from_cache").Add(1);
        const bool device_rebuilding = media_probe.contains(pid);
        if (node_->poison_.Contains(pid) &&
            (device_rebuilding || node_->pool_.IsDirty(pid))) {
          // A surviving cached copy carries every committed update — it
          // supersedes any poison verdict, even a permanent one. Make it
          // durable first, then lift the fence.
          CLOG_RETURN_IF_ERROR(node_->ForceOwnPage(pid));
          CLOG_RETURN_IF_ERROR(node_->UnpoisonPage(pid));
          node_->metrics_.GetCounter("media.pages_unpoisoned").Add(1);
        } else if (device_rebuilding && node_->pool_.IsDirty(pid)) {
          // The fetched copy may be the recreated data device's only image
          // of this page. Force it home now: a fuzzy checkpoint never
          // flushes it, so an ordinary crash later would otherwise find the
          // rebuilt device still holding a hole here — with nothing left to
          // flag the page for redo.
          CLOG_RETURN_IF_ERROR(node_->ForceOwnPage(pid));
        }
        continue;
      }
      // Fall through to the redo path if every fetch failed.
    }

    if (node_->poison_.NeededPsn(pid) == kPsnUnrecoverable) {
      // Permanently fenced with no surviving cache copy: the lost records
      // were at the top of its history, so no redo collection can prove a
      // rebuild complete. Leave the fence standing.
      continue;
    }

    auto base = std::make_unique<Page>();
    Status rd = node_->ReadDurablePage(pid, base.get());
    node_->ChargeDiskRead();

    if (rd.IsCorruption() || rd.IsNotFound()) {
      // Torn page write (the crash interrupted a flush mid-page or
      // half-extended the file) or a lost data device: the durable image
      // is gone. Plan its rebuild (recovery/instant_restore.h), durably, so
      // a crash before the rebuild re-probes this page even after later
      // rebuilds re-extend the file. Only pages *unreadable right now* are
      // planned: anything readable was either never lost or already
      // rebuilt, and the readable-means-restored rule the rebuild relies on
      // holds only under that discipline.
      InstantRestoreManager::Plan plan;
      plan.pid = pid;
      if (defer_fetch && cit != cached_at.end()) {
        plan.peer_candidates = cit->second;
        ++planned_with_peer;
      }
      for (const auto& [peer, _] : peer_replies_) {
        plan.redo_sources.push_back(peer);
      }
      plan.priority = static_cast<std::uint32_t>(
          contribs.size() + plan.peer_candidates.size());
      // Pin the contributors' logs: their DPT entries stand until the
      // rebuild's page force sends flush notifications.
      for (const auto& [n, e] : contribs) {
        if (n != me) node_->replacers_[pid].insert(n);
      }
      CLOG_RETURN_IF_ERROR(node_->restore_.Add(std::move(plan)));
      ++stats_.pages_planned;
      continue;
    }
    CLOG_RETURN_IF_ERROR(rd);
    WorkItem item;
    item.pid = pid;
    Psn disk_psn = base->psn();
    // Section 2.3.2: a node whose CurrPSN <= the disk PSN has all its
    // updates on disk already — not involved; its entry can be dropped
    // (the flush notification does exactly that).
    for (const auto& [n, e] : contribs) {
      if (e.curr_psn > disk_psn) {
        item.involved[n] = e;
      } else if (n != me) {
        node_->network_->FlushNotify(me, n, pid, disk_psn).ok();
      } else {
        node_->dpt_.OnOwnerFlushed(pid, disk_psn);
      }
    }
    if (item.involved.empty()) {
      ++stats_.clean_candidates;
      continue;
    }
    item.base = std::move(base);
    work.push_back(std::move(item));
  }

  // Section 2.3.4: one NodePSNList request per involved node, covering all
  // of that node's pages.
  std::map<NodeId, std::vector<PageId>> pages_per_node;
  for (const WorkItem& item : work) {
    for (const auto& [n, _] : item.involved) {
      pages_per_node[n].push_back(item.pid);
    }
  }
  std::map<PageId, PsnLists> lists;
  CLOG_RETURN_IF_ERROR(
      node_->GatherPsnLists(pages_per_node, /*full_history=*/false, &lists));

  // Section 2.3.4: every page is redone in ascending PSN order across its
  // contributors' logs. A page whose only contributor is this node takes
  // one RecoverPage round on the local log and bounces nowhere.
  for (WorkItem& item : work) {
    Node::ReplayStats replay;
    CLOG_RETURN_IF_ERROR(node_->ReplayPsnSchedule(item.pid, lists[item.pid],
                                                  item.base.get(), &replay));
    stats_.redo_rounds += replay.rounds;
    stats_.redo_applied += replay.applied;
    if (replay.poisoned) {
      ++stats_.pages_poisoned;
      continue;
    }
    CLOG_RETURN_IF_ERROR(
        node_->LandRebuiltPage(item.pid, *item.base, lists[item.pid]));
    ++stats_.own_pages_recovered;
  }

  // Ledger hygiene: any restore-ledger entry without a live plan was
  // settled above (rescued from a peer cache, readable after all, or
  // permanently poisoned) — durably forget it so later restarts stop
  // re-probing it.
  for (std::uint64_t packed : node_->restore_.LedgerEntries()) {
    const PageId pid = PageId::Unpack(packed);
    if (!node_->restore_.IsRestoring(pid)) {
      CLOG_RETURN_IF_ERROR(node_->restore_.Forget(pid));
    }
  }
  if (stats_.pages_planned != 0) {
    node_->metrics_.GetCounter("restore.pages_planned")
        .Add(stats_.pages_planned);
    if (node_->trace_ != nullptr) {
      node_->trace_->Emit(me, TraceEventType::kRestorePlan,
                          stats_.pages_planned, planned_with_peer);
    }
  }
  if (!node_->options_.instant_restore.enabled) {
    // Without instant restore the node opens only once every plan is
    // rebuilt.
    stats_.pages_drained = node_->restore_.pending();
    CLOG_RETURN_IF_ERROR(node_->restore_.Drain(node_));
  }
  return Status::OK();
}

Status RestartRecovery::RecoverOwnPagesAfterLogLoss(
    const std::map<PageId, std::vector<NodeId>>& cached_at) {
  const NodeId me = node_->id_;
  // With the log destroyed there is no analysis DPT, no redo source, and —
  // decisively — no way to bound which of our own pages had updates whose
  // only trace was here (top of history: local updates to own pages leave
  // no remote record). Exactly one rescue exists per page: a copy still
  // cached at a peer carries every committed update (a cached copy implies
  // a live lock, and any newer update would have called that lock back).
  // Fetch those, flush them durable, and poison everything else.
  std::uint64_t restored = 0;
  std::vector<PageId> sweep;
  for (std::uint32_t page_no : node_->space_map_.AllocatedPages()) {
    const PageId pid{me, page_no};
    if (node_->handoff_.IsCeded(pid)) continue;  // Lives at its new owner.
    sweep.push_back(pid);
  }
  // Adopted pages are ours too: their newest history could be in the lost
  // log just like a home page's.
  for (PageId pid : node_->handoff_.AdoptedPages()) sweep.push_back(pid);
  for (PageId pid : sweep) {
    bool fetched = false;
    auto cit = cached_at.find(pid);
    if (cit != cached_at.end()) {
      for (NodeId holder : cit->second) {
        std::shared_ptr<Page> copy;
        Status st = node_->network_->FetchCachedPage(me, holder, pid, &copy);
        if (st.ok() && copy) {
          CLOG_RETURN_IF_ERROR(node_->InstallShippedCopy(*copy, holder));
          fetched = true;
          break;
        }
      }
    }
    if (fetched) {
      if (node_->pool_.IsDirty(pid)) {
        CLOG_RETURN_IF_ERROR(node_->ForceOwnPage(pid));
      }
      // (Not dirty means the install bypassed a full pool and wrote the
      // copy straight home, synced — durable either way.)
      if (node_->poison_.Contains(pid)) {
        CLOG_RETURN_IF_ERROR(node_->UnpoisonPage(pid));
        node_->metrics_.GetCounter("media.pages_unpoisoned").Add(1);
      }
      ++restored;
      ++stats_.own_pages_fetched;
      node_->metrics_.GetCounter("recovery.pages_fetched_from_cache").Add(1);
      continue;
    }
    CLOG_RETURN_IF_ERROR(node_->PoisonOwnPage(pid, kPsnUnrecoverable));
    ++stats_.pages_poisoned;
  }
  node_->metrics_.GetCounter("media.log_loss_pages_restored").Add(restored);
  // Every allocated page is now durable or poisoned, so any restore-ledger
  // entries from an interrupted earlier epoch are settled too.
  for (std::uint64_t packed : node_->restore_.LedgerEntries()) {
    CLOG_RETURN_IF_ERROR(node_->restore_.Forget(PageId::Unpack(packed)));
  }
  return Status::OK();
}

Status RestartRecovery::RecoverRemotePages() {
  NodeId me = node_->id_;
  // Section 2.3.1 (b): remotely owned pages that were exclusively locked
  // by this node at crash time — their newest version died with our cache.
  for (const DptEntry& e : node_->dpt_.ToEntries()) {
    PageId pid = e.pid;
    if (node_->OwnsPage(pid)) continue;
    if (node_->lock_cache_.NodeMode(pid) != LockMode::kExclusive) {
      continue;  // Current version lives elsewhere; nothing of ours is lost.
    }
    // Base version: the owner's newest copy (cache or disk). If the owner
    // crashed too, it coordinates this page itself (Section 2.4) using the
    // DPT entries and log scans it collects from us.
    LockPageReply reply;
    Status st = node_->network_->LockPage(me, node_->OwnerOf(pid), pid,
                                          LockMode::kExclusive,
                                          /*want_page=*/true, &reply);
    if (st.IsNodeDown()) continue;
    if (st.IsCorruption()) {
      // The owner poisoned the page after a media failure: it refuses to
      // hand out a base version, and our redo would change nothing. Drop
      // our DPT entry — the records it guards redo a page that can never
      // be served again — so the log is not pinned forever.
      node_->dpt_.Remove(pid);
      node_->AdvanceReclaimHorizon();
      continue;
    }
    CLOG_RETURN_IF_ERROR(st);
    if (!reply.granted || !reply.page) continue;
    if (reply.page->psn() >= e.curr_psn) {
      // Owner's version already covers all our updates — but the grant may
      // have demoted the owner's dirty copy to a clean stale home copy, on
      // the strength of the version that just traveled here. Discarding it
      // would let the newest committed state evaporate when the owner
      // evicts; cache it dirty so it ships home like any callback copy.
      if (Page* frame = node_->pool_.Lookup(pid)) {
        if (reply.page->psn() > frame->psn()) frame->CopyFrom(*reply.page);
      } else {
        CLOG_RETURN_IF_ERROR(
            node_->pool_.Insert(pid, std::move(*reply.page)).status());
      }
      node_->pool_.MarkDirty(pid);
      continue;
    }
    // Only our log can contain the missing tail (any other node's updates
    // predate our exclusive lock and traveled with the page).
    PsnListReply plist;
    CLOG_RETURN_IF_ERROR(
        node_->HandleBuildPsnList(me, {pid}, /*full_history=*/false, &plist));
    RecoverPageReply rreply;
    ++stats_.redo_rounds;
    CLOG_RETURN_IF_ERROR(node_->HandleRecoverPage(
        me, pid, *reply.page, /*has_bound=*/false, 0, &rreply));
    stats_.redo_applied += rreply.applied;
    if (Page* frame = node_->pool_.Lookup(pid)) {
      frame->CopyFrom(*rreply.page);
    } else {
      CLOG_RETURN_IF_ERROR(
          node_->pool_.Insert(pid, std::move(*rreply.page)).status());
    }
    node_->pool_.MarkDirty(pid);
    ++stats_.remote_pages_recovered;
    node_->metrics_.GetCounter("recovery.remote_pages_recovered").Add(1);
  }
  return Status::OK();
}

Status RestartRecovery::ExchangePeerState() {
  if (node_->state_ != NodeState::kRecovering) {
    return Status::FailedPrecondition("analysis has not run");
  }
  const std::uint64_t t0 = node_->network_->clock()->NowNanos();
  CLOG_RETURN_IF_ERROR(QueryPeers());
  CLOG_RETURN_IF_ERROR(ReconstructLocks());

  // Debts owed to us: pages of ours that a peer's destroyed log left
  // unrecoverable while we were unreachable. The verdict is permanent.
  for (const auto& [peer, reply] : peer_replies_) {
    (void)peer;
    for (PageId pid : reply.log_loss_pages_of_crashed) {
      if (!node_->OwnsPage(pid)) continue;
      CLOG_RETURN_IF_ERROR(node_->PoisonOwnPage(pid, kPsnUnrecoverable));
      ++stats_.pages_poisoned;
    }
  }

  // Debts we owe: verdicts from an earlier log loss whose owners were
  // unreachable then. Retry delivery; the entry is retired once the owner
  // has durably poisoned (its handler does so before replying OK).
  std::map<NodeId, std::vector<PageId>> owed;
  for (const auto& [packed, needed] : node_->poison_.entries()) {
    (void)needed;
    const PageId pid = PageId::Unpack(packed);
    if (!node_->OwnsPage(pid)) owed[node_->OwnerOf(pid)].push_back(pid);
  }
  for (const auto& [owner, pages] : owed) {
    if (node_->network_->LogLossNotice(node_->id_, owner, pages).ok()) {
      for (PageId pid : pages) {
        CLOG_RETURN_IF_ERROR(node_->poison_.Remove(pid));
      }
    }
  }

  if (log_lost_) CLOG_RETURN_IF_ERROR(HandleLogLoss());

  exchange_done_ = true;
  FinishPhase(1, "recovery.exchange_ns", t0);
  return Status::OK();
}

Status RestartRecovery::HandleLogLoss() {
  const NodeId me = node_->id_;
  // In ship-to-owner mode (B1) the destroyed log held records for OUR
  // pages only; remote owners' histories live in their own logs and need
  // no poisoning from us. In the paper's client-local mode, any remote
  // page we held exclusively at the crash had the newest part of its
  // history only in our log — at the very top, where no surviving log can
  // prove a rebuild complete — so its owner must fence it permanently.
  // Every reachable peer is notified even with an empty page list: the
  // notice also triggers the receivers' flush hygiene, pushing surviving
  // dirty copies to disk so no future rebuild needs the destroyed records.
  for (const auto& [peer, reply] : peer_replies_) {
    std::vector<PageId> pages;
    if (node_->options_.logging_mode != LoggingMode::kShipToOwner) {
      for (const LockListEntry& l : reply.x_locks_crashed_held_here) {
        if (node_->OwnerOf(l.pid) == peer) pages.push_back(l.pid);
      }
      std::sort(pages.begin(), pages.end());
      pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    }
    Status st = node_->network_->LogLossNotice(me, peer, pages);
    if (st.ok()) continue;
    if (!st.IsNodeDown() && !st.IsUnavailable()) return st;
    // Owner vanished before the verdict landed: record it as a durable
    // debt, delivered when the owner's own restart queries us (or by the
    // retry sweep above on our next restart).
    for (PageId pid : pages) {
      CLOG_RETURN_IF_ERROR(node_->poison_.Add(pid, kPsnUnrecoverable));
    }
    node_->metrics_.GetCounter("media.debts_recorded").Add(pages.size());
  }
  return Status::OK();
}

Status RestartRecovery::RedoPages() {
  if (node_->state_ != NodeState::kRecovering || !exchange_done_) {
    return Status::FailedPrecondition("peer exchange has not run");
  }
  const std::uint64_t t0 = node_->network_->clock()->NowNanos();
  CLOG_RETURN_IF_ERROR(RecoverOwnPages());
  CLOG_RETURN_IF_ERROR(RecoverRemotePages());
  node_->recovery_redo_done_ = true;
  if (node_->trace_ != nullptr &&
      (log_lost_ || stats_.media_candidates != 0 ||
       stats_.pages_drained != 0 || stats_.pages_poisoned != 0)) {
    node_->trace_->Emit(node_->id_, TraceEventType::kMediaRecovery,
                        stats_.media_candidates, stats_.pages_drained,
                        static_cast<std::uint32_t>(stats_.pages_poisoned));
  }
  FinishPhase(2, "recovery.redo_ns", t0);
  return Status::OK();
}

Status RestartRecovery::UndoLosersAndFinish() {
  if (node_->state_ != NodeState::kRecovering) {
    return Status::FailedPrecondition("recovery phases out of order");
  }
  const std::uint64_t t0 = node_->network_->clock()->NowNanos();
  // Roll back every loser (ARIES undo over the local log only — no log
  // merging, the paper's key property). Exclusive locks reconstructed in
  // Section 2.3.3 fence these pages until the undo completes.
  for (const auto& [txn_id, loser] : analysis_.losers) {
    Transaction* txn =
        node_->txns_.Resurrect(txn_id, loser.first_lsn, loser.last_lsn);
    // Adaptive logging: walk the raw prev_lsn chain first — NOT the undo
    // cursor, whose CLR undo_next jumps can hop over an UNDO_BACKFILL
    // record — to refill the before-image stash and classify the loser.
    // A pure-logical loser (logical records, no backfill) never exposed
    // anything: the steal barrier upgrades before a covered page can leave
    // the cache, so its records were redo-skipped everywhere and there is
    // nothing on any page to compensate. It gets an END record only; its
    // log records stay behind as permanent skip records.
    bool saw_logical = false;
    bool saw_backfill = false;
    for (Lsn walk = loser.last_lsn; walk != kNullLsn;) {
      LogRecord rec;
      CLOG_RETURN_IF_ERROR(node_->log_.ReadRecord(walk, &rec));
      if (rec.type == LogRecordType::kUndoBackfill) {
        saw_backfill = true;
        for (const BackfillEntry& e : rec.backfill) {
          txn->logical_undos.emplace(e.covered_lsn, e.undo_image);
        }
      } else if (rec.type == LogRecordType::kLogicalUpdate) {
        saw_logical = true;
      }
      walk = rec.prev_lsn;
    }
    const bool pure_logical = saw_logical && !saw_backfill;
    if (pure_logical) {
      ++stats_.logical_losers_skipped;
      node_->metrics_.GetCounter("recovery.logical_losers_skipped").Add(1);
    } else if (loser.last_lsn != kNullLsn) {
      CLOG_RETURN_IF_ERROR(node_->RollbackTo(txn, kNullLsn));
    }
    LogRecord end;
    end.type = LogRecordType::kEnd;
    end.txn = txn_id;
    end.prev_lsn = txn->last_lsn;
    Lsn lsn = kNullLsn;
    CLOG_RETURN_IF_ERROR(node_->log_.Append(end, &lsn));
    node_->lock_cache_.ReleaseTxnLocks(txn_id);
    node_->txns_.Remove(txn_id);
    ++stats_.losers_undone;
    node_->metrics_.GetCounter("recovery.losers_undone").Add(1);
  }

  node_->state_ = NodeState::kUp;
  // Elastic membership: settle handoffs the crash interrupted — prepared
  // records abort locally, shipped ones ask the target whether its durable
  // adoption landed. In-doubt records (target unreachable) stay fenced.
  CLOG_RETURN_IF_ERROR(node_->ResolvePendingHandoffs());
  if (node_->restore_.active()) {
    // Open-for-business with rebuilds pending: the next successful commit
    // closes the restore.first_commit_ns measurement.
    node_->restore_.BeginEpoch(node_->network_->clock()->NowNanos());
  }
  if (node_->options_.has_local_log) {
    CLOG_RETURN_IF_ERROR(node_->Checkpoint());
  }
  for (NodeId peer : node_->network_->OperationalNodes(node_->id_)) {
    node_->network_->NodeRecovered(node_->id_, peer, node_->id_).ok();
  }
  node_->metrics_.GetCounter("recovery.restarts").Add(1);
  FinishPhase(3, "recovery.undo_ns", t0);
  return Status::OK();
}

}  // namespace clog
