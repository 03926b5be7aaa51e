#include "net/message.h"

namespace clog {

std::string_view MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kLockPageRequest:
      return "lock_page_request";
    case MsgType::kLockPageReply:
      return "lock_page_reply";
    case MsgType::kCallback:
      return "callback";
    case MsgType::kCallbackReply:
      return "callback_reply";
    case MsgType::kUnlockNotice:
      return "unlock_notice";
    case MsgType::kPageShip:
      return "page_ship";
    case MsgType::kFlushNotify:
      return "flush_notify";
    case MsgType::kFlushRequest:
      return "flush_request";
    case MsgType::kLogShip:
      return "log_ship";
    case MsgType::kLogShipReply:
      return "log_ship_reply";
    case MsgType::kRecoveryQuery:
      return "recovery_query";
    case MsgType::kRecoveryQueryReply:
      return "recovery_query_reply";
    case MsgType::kFetchCachedPage:
      return "fetch_cached_page";
    case MsgType::kFetchCachedPageReply:
      return "fetch_cached_page_reply";
    case MsgType::kBuildPsnList:
      return "build_psn_list";
    case MsgType::kBuildPsnListReply:
      return "build_psn_list_reply";
    case MsgType::kRecoverPage:
      return "recover_page";
    case MsgType::kRecoverPageReply:
      return "recover_page_reply";
    case MsgType::kNodeRecovered:
      return "node_recovered";
    case MsgType::kLogLossNotice:
      return "log_loss_notice";
    case MsgType::kPing:
      return "ping";
    case MsgType::kPingReply:
      return "ping_reply";
    case MsgType::kHandoffOffer:
      return "handoff_offer";
    case MsgType::kHandoffOfferReply:
      return "handoff_offer_reply";
    case MsgType::kHandoffQuery:
      return "handoff_query";
    case MsgType::kHandoffQueryReply:
      return "handoff_query_reply";
  }
  return "unknown";
}

std::string_view PeerHealthName(PeerHealth h) {
  switch (h) {
    case PeerHealth::kDown:
      return "down";
    case PeerHealth::kRecovering:
      return "recovering";
    case PeerHealth::kUp:
      return "up";
    case PeerHealth::kDeparted:
      return "departed";
  }
  return "unknown";
}

}  // namespace clog
