#include "node/node.h"

/// \file
/// Elastic membership, node side: the crash-restartable page-ownership
/// handoff protocol (docs/PROTOCOLS.md "Membership & ownership handoff").
///
/// A handoff moves the *current owner* role — durable copy, global lock
/// table, FlushRequest service — of one page from this node to a target,
/// in four steps, each durable in the per-node handoff ledger before it
/// returns:
///
///   1. Prepare   fence the page, record the intent (kPrepared)
///   2. Ship      quiet durable force: the local durable copy becomes
///                current *without* notifying replacers (kShipped)
///   3. Transfer  send the HandoffOffer; the target's durable adoption
///                record is the protocol's commit point
///   4. Complete  write the ceded tombstone, drop volatile state, unfence
///
/// A crash at any boundary on either endpoint re-enters cleanly:
/// ResolvePendingHandoffs aborts prepared handoffs locally and settles
/// shipped ones by asking the target (kHandoffQuery) whether its durable
/// adoption landed. An unreachable target leaves the page fenced in doubt
/// — neither endpoint serves it — until a later resolution pass.

namespace clog {

Status Node::ReadDurablePage(PageId pid, Page* out) {
  if (pid.owner == id_) return ReadOwnPage(pid.page_no, out);
  return handoff_.ReadAdopted(pid, out);
}

Status Node::WriteDurablePage(PageId pid, Page* page) {
  if (pid.owner == id_) {
    CLOG_RETURN_IF_ERROR(disk_.WritePage(pid.page_no, page, /*sync=*/true));
  } else {
    CLOG_RETURN_IF_ERROR(handoff_.UpdateAdoptedImage(pid, *page));
  }
  ChargeDiskWrite();
  return Status::OK();
}

Psn Node::DurableSeedPsn(PageId pid) const {
  if (pid.owner == id_) return space_map_.PsnSeed(pid.page_no);
  return handoff_.AdoptedSeedPsn(pid);
}

void Node::RegisterHandoffState() {
  for (PageId pid : handoff_.InflightPages()) handoff_fenced_.insert(pid);
  if (directory_ == nullptr) return;
  for (PageId pid : handoff_.AdoptedPages()) {
    // An adopted page mid-re-handoff stays unregistered until resolution
    // decides whether the next owner's adoption landed.
    if (handoff_.Inflight(pid).has_value()) continue;
    directory_->SetOwner(pid, id_);
  }
}

std::vector<PageId> Node::OwnedPages() const {
  std::vector<PageId> out;
  for (std::uint32_t page_no : space_map_.AllocatedPages()) {
    PageId pid{id_, page_no};
    if (handoff_.IsCeded(pid)) continue;
    if (!OwnsPage(pid)) continue;
    out.push_back(pid);
  }
  for (PageId pid : handoff_.AdoptedPages()) {
    if (OwnsPage(pid)) out.push_back(pid);
  }
  return out;
}

Status Node::PrepareDeparture() {
  if (state_ != NodeState::kUp) return Status::NodeDown("node not up");
  if (!txns_.Active().empty()) {
    return Status::FailedPrecondition(
        "active transactions block a graceful leave");
  }
  // Dirty remote copies travel home first (the Section 2.1 steal rules),
  // so the owners hold every update this node ever made.
  for (const LockListEntry& e : lock_cache_.NodeLocks()) {
    if (!OwnsPage(e.pid)) CLOG_RETURN_IF_ERROR(ShipDirtyCopy(e.pid));
  }
  // This node's log dies with it, so every remote page it is still a redo
  // source for must become durable at its owner before the leave commits
  // (Section 2.5 — the owner's FlushNotify then drops the DPT entry).
  for (const DptEntry& e : dpt_.ToEntries()) {
    if (OwnsPage(e.pid)) continue;
    CLOG_RETURN_IF_ERROR(network_->FlushRequest(id_, OwnerOf(e.pid), e.pid));
  }
  // Return every cached lock: a departed node never restarts, so a
  // retained entry in an owner's global table would block readers forever.
  for (const LockListEntry& e : lock_cache_.NodeLocks()) {
    const PageId pid = e.pid;
    if (OwnsPage(pid)) continue;
    lock_cache_.DropNodeLock(pid);
    if (pool_.Contains(pid)) pool_.Drop(pid);
    CLOG_RETURN_IF_ERROR(network_->UnlockNotice(id_, OwnerOf(pid), pid));
  }
  metrics_.GetCounter("handoff.departures").Add(1);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Outbound protocol steps (old-owner side)
// ---------------------------------------------------------------------------

Status Node::HandoffPrepare(PageId pid, NodeId target) {
  if (state_ != NodeState::kUp) return Status::NodeDown("node not up");
  if (directory_ == nullptr) {
    return Status::FailedPrecondition("no ownership directory attached");
  }
  if (target == id_) return Status::InvalidArgument("handoff to self");
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the current owner of " +
                                   pid.ToString());
  }
  if (handoff_.Inflight(pid).has_value()) {
    return Status::Busy("handoff already in flight for " + pid.ToString());
  }
  if (pid.owner == id_ && !space_map_.IsAllocated(pid.page_no)) {
    return Status::NotFound("page not allocated: " + pid.ToString());
  }
  if (restore_.IsRestoring(pid)) {
    return Status::Busy("page still restoring: " + pid.ToString());
  }
  if (poison_.Contains(pid)) {
    return Status::Corruption("page unrecoverable after media failure: " +
                              pid.ToString());
  }
  // Local transactions pin the page's fate to this node's log; remote
  // holders are fine (their residue travels with the offer, and PSN guards
  // reconcile their cached copies).
  if (!lock_cache_.CanComply(pid, LockMode::kNone).can_comply) {
    return Status::Busy("page in use by a local transaction: " +
                        pid.ToString());
  }
  if (network_->ProbePeer(id_, target) != PeerHealth::kUp) {
    return Status::Unavailable("handoff target " + std::to_string(target) +
                               " not up");
  }
  handoff_fenced_.insert(pid);
  Status st = handoff_.RecordPrepare(pid, target, DurableSeedPsn(pid));
  if (!st.ok()) handoff_fenced_.erase(pid);
  metrics_.GetCounter("handoff.prepared").Add(1);
  return st;
}

Status Node::HandoffShip(PageId pid) {
  std::optional<InflightHandoff> rec = handoff_.Inflight(pid);
  if (!rec.has_value() || rec->phase != HandoffLedgerPhase::kPrepared) {
    return Status::FailedPrecondition("handoff not prepared for " +
                                      pid.ToString());
  }
  // The quiet force: the same WAL gate and durable write as ForceOwnPage,
  // but *no* FlushNotify — the replacer set and its un-advanced RedoLSNs
  // travel to the target with the offer, and the target notifies after
  // adoption (the Section 2.5 RedoLSN transfer).
  CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid));
  Page* cached = pool_.Lookup(pid);
  if (cached != nullptr && pool_.IsDirty(pid)) {
    CLOG_RETURN_IF_ERROR(WriteDurablePage(pid, cached));
    pool_.MarkClean(pid);
    dpt_.Remove(pid);
    AdvanceReclaimHorizon();
  }
  return handoff_.RecordShipped(pid);
}

Status Node::HandoffTransfer(PageId pid) {
  std::optional<InflightHandoff> rec = handoff_.Inflight(pid);
  if (!rec.has_value() || rec->phase != HandoffLedgerPhase::kShipped) {
    return Status::FailedPrecondition("handoff not shipped for " +
                                      pid.ToString());
  }
  HandoffOffer offer;
  offer.pid = pid;
  auto page = std::make_shared<Page>();
  CLOG_RETURN_IF_ERROR(ReadDurablePage(pid, page.get()));
  ChargeDiskRead();
  offer.page = page;
  offer.psn = page->psn();
  offer.seed_psn = rec->seed_psn;
  if (auto it = replacers_.find(pid); it != replacers_.end()) {
    offer.replacers.assign(it->second.begin(), it->second.end());
  }
  // Lock residue: every remote holder verbatim, plus this node's own
  // requester-side cached mode (after the handoff it is a plain client).
  for (NodeId holder : global_locks_.HoldersOf(pid)) {
    if (holder == id_) continue;
    offer.holders.push_back(
        HandoffHolderEntry{holder, global_locks_.HeldBy(pid, holder)});
  }
  if (LockMode self = lock_cache_.NodeMode(pid); self != LockMode::kNone) {
    offer.holders.push_back(HandoffHolderEntry{id_, self});
  }
  offer.epoch = directory_ != nullptr ? directory_->epoch() : 0;

  HandoffOfferReply reply;
  Status st = network_->HandoffOfferRpc(id_, rec->target, offer, &reply);
  // Unreachable target: the offer may or may not have landed. Stay
  // kShipped and fenced — ResolvePendingHandoffs settles it later.
  if (!st.ok()) return st;
  if (!reply.accepted) {
    CLOG_RETURN_IF_ERROR(handoff_.AbortHandoff(pid));
    handoff_fenced_.erase(pid);
    metrics_.GetCounter("handoff.refused").Add(1);
    return Status::Busy("handoff target refused " + pid.ToString());
  }
  return Status::OK();
}

Status Node::HandoffComplete(PageId pid) {
  std::optional<InflightHandoff> rec = handoff_.Inflight(pid);
  if (!rec.has_value() || rec->phase != HandoffLedgerPhase::kShipped) {
    return Status::FailedPrecondition("handoff not shipped for " +
                                      pid.ToString());
  }
  CLOG_RETURN_IF_ERROR(handoff_.RecordCeded(pid, rec->target));
  handoff_fenced_.erase(pid);
  replacers_.erase(pid);
  dpt_.Remove(pid);
  for (NodeId holder : global_locks_.HoldersOf(pid)) {
    global_locks_.Release(pid, holder);
  }
  // A cached frame without a requester-side lock would be unreachable and
  // unaccounted; with one it is an ordinary client copy and stays.
  if (lock_cache_.NodeMode(pid) == LockMode::kNone && pool_.Contains(pid)) {
    pool_.Drop(pid);
  }
  AdvanceReclaimHorizon();
  metrics_.GetCounter("handoff.ceded").Add(1);
  return Status::OK();
}

Status Node::ResolvePendingHandoffs(std::size_t* resolved) {
  std::size_t settled = 0;
  for (PageId pid : handoff_.InflightPages()) {
    std::optional<InflightHandoff> rec = handoff_.Inflight(pid);
    if (!rec.has_value()) continue;
    if (rec->phase == HandoffLedgerPhase::kPrepared) {
      // Nothing moved: abort locally and resume ownership.
      CLOG_RETURN_IF_ERROR(handoff_.AbortHandoff(pid));
      handoff_fenced_.erase(pid);
      if (directory_ != nullptr) directory_->SetOwner(pid, id_);
      metrics_.GetCounter("handoff.reentry_aborted").Add(1);
      ++settled;
      continue;
    }
    // Shipped: only the target's durable ledger knows whether the adoption
    // committed.
    HandoffQueryReply reply;
    Status st = network_->HandoffQueryRpc(id_, rec->target, pid, &reply);
    if (!st.ok()) {
      if (directory_ != nullptr) {
        // The target is unreachable (crashed or departed), but the
        // adoption commit point publishes the new owner to the directory
        // in the same halt-atomic step as the durable adopt (HaltNode
        // joins the in-flight handler before stopping a node, so an offer
        // handler either ran whole or not at all, and an offer RPC that
        // reported failure was never delivered). The directory is
        // therefore a sound witness either way: naming someone else means
        // the handoff committed; still naming this node means the offer
        // never landed and the handoff aborts. Waiting instead would
        // deadlock when the target's own restart needs a lock on the
        // fenced page to rebuild its recovery state.
        NodeId current = directory_->OwnerOf(pid);
        if (current != id_) {
          CLOG_RETURN_IF_ERROR(handoff_.RecordCeded(pid, current));
          handoff_fenced_.erase(pid);
          replacers_.erase(pid);
          dpt_.Remove(pid);
          for (NodeId holder : global_locks_.HoldersOf(pid)) {
            global_locks_.Release(pid, holder);
          }
          if (lock_cache_.NodeMode(pid) == LockMode::kNone &&
              pool_.Contains(pid)) {
            pool_.Drop(pid);
          }
          metrics_.GetCounter("handoff.reentry_completed").Add(1);
        } else {
          CLOG_RETURN_IF_ERROR(handoff_.AbortHandoff(pid));
          handoff_fenced_.erase(pid);
          metrics_.GetCounter("handoff.reentry_aborted").Add(1);
        }
        ++settled;
        continue;
      }
      // No directory attached: stay fenced in doubt; a later pass settles.
      continue;
    }
    if (reply.adopted) {
      CLOG_RETURN_IF_ERROR(handoff_.RecordCeded(pid, rec->target));
      handoff_fenced_.erase(pid);
      replacers_.erase(pid);
      dpt_.Remove(pid);
      for (NodeId holder : global_locks_.HoldersOf(pid)) {
        global_locks_.Release(pid, holder);
      }
      if (lock_cache_.NodeMode(pid) == LockMode::kNone &&
          pool_.Contains(pid)) {
        pool_.Drop(pid);
      }
      metrics_.GetCounter("handoff.reentry_completed").Add(1);
    } else {
      CLOG_RETURN_IF_ERROR(handoff_.AbortHandoff(pid));
      handoff_fenced_.erase(pid);
      if (directory_ != nullptr) directory_->SetOwner(pid, id_);
      metrics_.GetCounter("handoff.reentry_aborted").Add(1);
    }
    ++settled;
  }
  AdvanceReclaimHorizon();
  if (resolved != nullptr) *resolved = settled;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Inbound handlers (new-owner side)
// ---------------------------------------------------------------------------

Status Node::HandleHandoffOffer(NodeId from, const HandoffOffer& offer,
                                HandoffOfferReply* reply) {
  reply->accepted = false;
  if (state_ != NodeState::kUp) return Status::OK();  // Refuse, not error.
  if (offer.page == nullptr) {
    return Status::InvalidArgument("handoff offer without a page image");
  }
  const PageId pid = offer.pid;
  if (handoff_.Inflight(pid).has_value()) {
    // This node is itself mid-outbound for the page (shouldn't happen —
    // the source owns it — but a confused retry must not double-adopt).
    return Status::OK();
  }
  // Idempotent re-delivery after a source retry: already adopted at (or
  // past) the offered PSN means the commit point already happened.
  if (pid.owner != id_ ? handoff_.IsAdopted(pid) : !handoff_.IsCeded(pid)) {
    reply->accepted = true;
    return Status::OK();
  }
  // Durable adoption — the protocol's commit point. A page whose home is
  // this node goes back into its (still allocated) home slot; any other
  // page lands in the ledger's adopted store.
  if (pid.owner == id_) {
    Page img(*offer.page);
    CLOG_RETURN_IF_ERROR(disk_.WritePage(pid.page_no, &img, /*sync=*/true));
    ChargeDiskWrite();
    CLOG_RETURN_IF_ERROR(handoff_.RecordReturned(pid));
  } else {
    CLOG_RETURN_IF_ERROR(
        handoff_.RecordAdopted(pid, *offer.page, offer.seed_psn));
  }
  if (directory_ != nullptr) directory_->SetOwner(pid, id_);
  // Lock residue: the old owner's global table entries, verbatim. This
  // node's own entry (it may have been a client of the page) moves from
  // the source's table into its own.
  for (const HandoffHolderEntry& h : offer.holders) {
    global_locks_.Install(pid, h.node, h.mode);
  }
  // A stale clean cached copy refreshes from the offer; a *newer* cached
  // copy (this node held X and kept updating) stays — it is now the
  // owner's own newest version, still tracked by its DPT entry.
  if (Page* cached = pool_.Lookup(pid);
      cached != nullptr && !pool_.IsDirty(pid) &&
      cached->psn() < offer.psn) {
    cached->CopyFrom(*offer.page);
  }
  // Section 2.5 RedoLSN transfer: the inherited replacers' updates became
  // durable with the source's quiet force; the *new* owner now advances
  // their RedoLSNs by notifying at the shipped PSN.
  for (NodeId r : offer.replacers) {
    if (r == id_) {
      dpt_.OnOwnerFlushed(pid, offer.psn);
      AdvanceReclaimHorizon();
    } else if (options_.send_flush_notifications) {
      network_->FlushNotify(id_, r, pid, offer.psn).ok();
    }
  }
  metrics_.GetCounter("handoff.adopted").Add(1);
  (void)from;
  reply->accepted = true;
  return Status::OK();
}

Status Node::HandleHandoffQuery(NodeId from, PageId pid,
                                HandoffQueryReply* reply) {
  (void)from;
  // "Did your adoption commit?" — answered from durable state only. For a
  // home page the commit point was erasing the ceded tombstone; for any
  // other page it was the adoption record (a later ceded tombstone means
  // it adopted and has since moved the page on — still yes).
  if (pid.owner == id_) {
    reply->adopted = !handoff_.IsCeded(pid);
  } else {
    reply->adopted = handoff_.IsAdopted(pid) || handoff_.IsCeded(pid);
  }
  reply->psn = handoff_.AdoptedPsn(pid);
  return Status::OK();
}

}  // namespace clog
