#ifndef CLOG_NET_MESSAGE_H_
#define CLOG_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/lock_mode.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"
#include "wal/log_record.h"

/// \file
/// Message vocabulary of the cluster. Transport is synchronous in-process
/// dispatch (DESIGN.md Section 4), but every logical message the 1996 system
/// would put on the wire is represented here so the network layer can count
/// messages and bytes per type — the currency of the paper's performance
/// arguments.

namespace clog {

/// Every distinct wire message. Kept in one enum so benchmark output can
/// break traffic down by purpose.
enum class MsgType : std::uint8_t {
  // Normal processing (Section 2.2).
  kLockPageRequest,   ///< Requester -> owner: lock (and maybe fetch) a page.
  kLockPageReply,     ///< Owner -> requester: grant + optional page copy.
  kCallback,          ///< Owner -> holder: release/downgrade a cached lock.
  kCallbackReply,     ///< Holder -> owner: ack + optional dirty page copy.
  kUnlockNotice,      ///< Requester -> owner: dropped a cached lock.
  kPageShip,          ///< Client -> owner: replaced dirty page travels home.
  kFlushNotify,       ///< Owner -> replacers: page now on disk (Section 2.5).
  kFlushRequest,      ///< Any -> owner: please force page (Section 2.5).
  kLogShip,           ///< Baseline B1 only: client log records -> owner.
  kLogShipReply,      ///< Owner -> client: a commit-time ship is forced.

  // Crash recovery (Sections 2.3 and 2.4).
  kRecoveryQuery,       ///< Restarting node -> peer: caches/DPT/lock lists.
  kRecoveryQueryReply,  ///< Peer -> restarting node.
  kFetchCachedPage,     ///< Owner -> cache holder: send current page copy.
  kFetchCachedPageReply,
  kBuildPsnList,        ///< Restarting node -> peer: scan your log.
  kBuildPsnListReply,   ///< Peer -> restarting node: NodePSNList.
  kRecoverPage,         ///< Coordinator -> peer: apply your redo up to PSN.
  kRecoverPageReply,    ///< Peer -> coordinator: page after redo.
  kNodeRecovered,       ///< Broadcast: node back online.
  kLogLossNotice,       ///< Restarting node -> owner: my log was destroyed;
                        ///< these pages of yours held updates only I logged.

  // Availability layer (failure detection).
  kPing,                ///< Prober -> peer: are you up, recovering, or gone?
  kPingReply,           ///< Peer -> prober: liveness verdict.

  // Elastic membership (ownership handoff, docs/PROTOCOLS.md).
  kHandoffOffer,        ///< Old owner -> new owner: adopt this page + residue.
  kHandoffOfferReply,   ///< New owner -> old owner: adoption verdict.
  kHandoffQuery,        ///< Old owner -> new owner: did my offer land?
  kHandoffQueryReply,   ///< New owner -> old owner: adopted or not.
};

/// Number of MsgType values (they are dense from 0).
inline constexpr std::size_t kNumMsgTypes =
    static_cast<std::size_t>(MsgType::kHandoffQueryReply) + 1;

/// Canonical name used as the metrics key suffix ("msg.lock_page_request").
std::string_view MsgTypeName(MsgType t);

/// What a heartbeat probe learns about a peer. A *recovering* peer answers
/// pings (its process is alive and serving recovery RPCs) but refuses
/// ordinary page traffic; a *down* peer answers nothing.
enum class PeerHealth : std::uint8_t {
  kDown = 0,
  kRecovering = 1,
  kUp = 2,
  /// Left the cluster for good (elastic membership). Unlike kDown this is
  /// authoritative and permanent: nobody waits for, retries against, or
  /// tries to recover a departed peer.
  kDeparted = 3,
};

/// Canonical lower-case name ("down", "recovering", "up", "departed").
std::string_view PeerHealthName(PeerHealth h);

/// Reply to kLockPageRequest.
struct LockPageReply {
  bool granted = false;
  /// Current page image, present when the requester asked for the page.
  std::shared_ptr<Page> page;
  /// The owner installed the replaced page the request carried home.
  bool carried_installed = false;
  /// When not granted: nodes whose cached locks conflict (deadlock info).
  std::vector<NodeId> blockers;
  /// When not granted: remote transactions actively using the conflicting
  /// locks (collected from failed callbacks; feeds the waits-for graph).
  std::vector<TxnId> blocking_txns;
};

/// Reply to kCallback.
struct CallbackReply {
  bool complied = false;
  /// Latest page image if the holder's copy was dirty.
  std::shared_ptr<Page> page;
  Psn page_psn = 0;
  /// When not complied: local transactions still using the lock.
  std::vector<TxnId> blocking_txns;
};

/// One node's lock-state contribution to a restarting node
/// (Section 2.3.3).
struct LockListEntry {
  PageId pid;
  LockMode mode = LockMode::kNone;
};

/// Reply to kRecoveryQuery: everything an operational node tells a
/// restarting node N (Section 2.3).
struct RecoveryQueryReply {
  /// Pages owned by N present in this node's cache.
  std::vector<PageId> cached_pages_of_crashed;
  /// This node's DPT entries for pages owned by N.
  std::vector<DptEntry> dpt_entries_for_crashed;
  /// Locks this node holds on pages owned by N (rebuilds N's global lock
  /// table). Shared locks N held here have been released; exclusive locks N
  /// held here are listed separately below and retained.
  std::vector<LockListEntry> locks_i_hold_on_crashed;
  /// Exclusive locks the crashed node held on pages this node owns.
  std::vector<LockListEntry> x_locks_crashed_held_here;
  /// Pages owned by N that *this* node's destroyed log left unrecoverable
  /// (log-loss debts, docs/RECOVERY_WALKTHROUGH.md): recorded durably when
  /// this node lost its log while holding X on N's pages and N was
  /// unreachable. N poisons these on receipt.
  std::vector<PageId> log_loss_pages_of_crashed;
};

/// One entry of a NodePSNList (Section 2.3.4): the PSN stored in the first
/// log record a transaction run wrote for the page, plus where that run
/// starts in the node's log.
struct PsnListEntry {
  Psn psn = 0;
  Lsn start_lsn = kNullLsn;
};

/// Reply to kBuildPsnList: per requested page, the ascending list of
/// transaction-run start PSNs found in this node's log.
struct PsnListReply {
  /// Parallel to the request's page vector.
  std::vector<std::vector<PsnListEntry>> per_page;
  /// Log records scanned building the list (benchmark metric).
  std::uint64_t records_scanned = 0;
};

/// Reply to kRecoverPage.
struct RecoverPageReply {
  std::shared_ptr<Page> page;    ///< Page after applying this node's redo.
  bool more = false;             ///< Node has further records past the bound.
  std::uint64_t applied = 0;     ///< Redo records applied (metric).
};

/// One holder-residue entry travelling with a handoff: a node-level cached
/// lock on the page granted by the old owner and re-installed verbatim by
/// the new one, so callback locking survives the transfer.
struct HandoffHolderEntry {
  NodeId node = kInvalidNodeId;
  LockMode mode = LockMode::kNone;
};

/// kHandoffOffer: everything the new owner needs to take a page over — the
/// latest durable image plus the *owner-side recovery state* the paper's
/// protocols hang off the owner (Section 2.5): the replacer set whose DPT
/// RedoLSNs are waiting on a FlushNotify from whoever owns the page, the
/// node-level lock residue, and the PSN the page's durable history was
/// seeded at (needed for full-history rebuilds after the home node's space
/// map is out of the picture).
struct HandoffOffer {
  PageId pid;
  std::shared_ptr<Page> page;  ///< Durable-latest image at the old owner.
  Psn psn = 0;                 ///< page->psn(), for cheap logging/metrics.
  Psn seed_psn = 0;            ///< PSN the page's durable history starts at.
  /// Nodes that replaced this page dirty and still hold a DPT entry for it:
  /// the new owner notifies them (FlushNotify) once its copy is durable, so
  /// their RedoLSNs advance off a node that was never the page's home.
  std::vector<NodeId> replacers;
  /// Node-level cached locks the old owner's global table granted.
  std::vector<HandoffHolderEntry> holders;
  /// Membership epoch at the old owner when the offer was built.
  std::uint64_t epoch = 0;
};

/// Reply to kHandoffOffer.
struct HandoffOfferReply {
  bool accepted = false;
};

/// Reply to kHandoffQuery: the crash-re-entry probe. `adopted` is read from
/// the target's durable handoff ledger, so the answer survives any number
/// of crashes on either side.
struct HandoffQueryReply {
  bool adopted = false;
  Psn psn = 0;  ///< Adopted image's PSN when adopted.
};

}  // namespace clog

#endif  // CLOG_NET_MESSAGE_H_
