#include "fault/fault_injector.h"

#include <algorithm>

namespace clog {
namespace {

std::pair<NodeId, NodeId> NormalizedLink(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed, FaultConfig config)
    : seed_(seed), config_(config), rng_(seed ^ 0xFA171F17ull) {}

bool FaultInjector::LinkBlocked(NodeId a, NodeId b) const {
  if (!enabled_) return false;
  return blocked_links_.contains(NormalizedLink(a, b));
}

bool FaultInjector::DropMessage(NodeId from, NodeId to) {
  if (!enabled_ || config_.net_drop_p <= 0.0) return false;
  if (!rng_.Bernoulli(config_.net_drop_p)) return false;
  ++counters_.dropped_msgs;
  return true;
}

std::uint64_t FaultInjector::DelayNanos(NodeId from, NodeId to) {
  if (!enabled_ || config_.net_delay_p <= 0.0) return 0;
  if (!rng_.Bernoulli(config_.net_delay_p)) return 0;
  ++counters_.delayed_msgs;
  return rng_.Range(config_.net_delay_min_ns, config_.net_delay_max_ns);
}

bool FaultInjector::DuplicateNotice(NodeId from, NodeId to) {
  if (!enabled_ || config_.net_duplicate_p <= 0.0) return false;
  if (!rng_.Bernoulli(config_.net_duplicate_p)) return false;
  ++counters_.duplicated_msgs;
  return true;
}

void FaultInjector::BlockLink(NodeId a, NodeId b) {
  blocked_links_.insert(NormalizedLink(a, b));
}

void FaultInjector::HealAllLinks() { blocked_links_.clear(); }

void FaultInjector::ArmIoFault(NodeId node, IoFault fault) {
  if (fault == IoFault::kNone) {
    armed_.erase(node);
  } else {
    armed_[node] = fault;
  }
}

IoFault FaultInjector::OnPageWrite(NodeId node) {
  if (!enabled_) return IoFault::kNone;
  auto it = armed_.find(node);
  if (it == armed_.end()) return IoFault::kNone;
  IoFault f = it->second;
  if (f != IoFault::kFailPageWrite && f != IoFault::kTornPageWrite) {
    return IoFault::kNone;
  }
  armed_.erase(it);
  fired_nodes_.insert(node);
  if (f == IoFault::kTornPageWrite) {
    ++counters_.torn_page_writes;
  } else {
    ++counters_.failed_page_writes;
  }
  return f;
}

bool FaultInjector::OnPageRead(NodeId node) {
  if (!enabled_) return false;
  auto it = armed_.find(node);
  if (it == armed_.end() || it->second != IoFault::kFailPageRead) return false;
  armed_.erase(it);
  ++counters_.failed_page_reads;
  return true;
}

bool FaultInjector::OnDiskSync(NodeId node) {
  if (!enabled_) return false;
  auto it = armed_.find(node);
  if (it == armed_.end() || it->second != IoFault::kFailDiskSync) return false;
  armed_.erase(it);
  fired_nodes_.insert(node);
  ++counters_.failed_syncs;
  return true;
}

bool FaultInjector::OnLogSync(NodeId node) {
  if (!enabled_) return false;
  auto it = armed_.find(node);
  if (it == armed_.end() || it->second != IoFault::kFailLogSync) return false;
  armed_.erase(it);
  fired_nodes_.insert(node);
  ++counters_.failed_syncs;
  return true;
}

FaultInjector::TornTail FaultInjector::OnAbandon(NodeId node,
                                                std::size_t buffered_bytes) {
  TornTail out;
  if (!enabled_ || buffered_bytes == 0 || config_.torn_tail_p <= 0.0) {
    return out;
  }
  if (!rng_.Bernoulli(config_.torn_tail_p)) return out;
  // Any prefix of the unacknowledged tail may have reached the platter
  // before the crash — including all of it (records that survive without
  // ever having been acknowledged are legal under WAL semantics).
  out.tear = true;
  out.keep_bytes =
      static_cast<std::size_t>(rng_.Uniform(buffered_bytes + 1));
  out.corrupt_last =
      out.keep_bytes > 0 && rng_.Bernoulli(config_.torn_tail_corrupt_p);
  if (out.keep_bytes > 0) ++counters_.torn_tails;
  return out;
}

void FaultInjector::ArmDeviceFault(NodeId node, DeviceFault fault) {
  if (fault == DeviceFault::kNone) {
    armed_device_.erase(node);
  } else {
    armed_device_[node] = fault;
  }
}

DeviceFault FaultInjector::OnCrash(NodeId node) {
  auto it = armed_device_.find(node);
  if (it == armed_device_.end()) return DeviceFault::kNone;
  DeviceFault f = it->second;
  armed_device_.erase(it);
  if (f == DeviceFault::kDestroyDataFile) {
    ++counters_.data_devices_lost;
  } else {
    ++counters_.log_devices_lost;
  }
  return f;
}

std::vector<NodeId> FaultInjector::TakeFiredNodes() {
  std::vector<NodeId> out(fired_nodes_.begin(), fired_nodes_.end());
  fired_nodes_.clear();
  return out;
}

}  // namespace clog
