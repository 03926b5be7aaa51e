#include "buffer/dirty_page_table.h"

namespace clog {

void DirtyPageTable::OnFirstDirty(PageId pid, Psn page_psn, Lsn log_end_lsn) {
  if (table_.contains(pid)) return;
  DirtyPageInfo info;
  info.psn = page_psn;
  info.curr_psn = page_psn;
  info.redo_lsn = log_end_lsn;
  table_.emplace(pid, info);
  by_redo_lsn_.emplace(log_end_lsn, pid);
}

void DirtyPageTable::OnUpdate(PageId pid, Psn new_psn) {
  auto it = table_.find(pid);
  if (it == table_.end()) return;
  it->second.curr_psn = new_psn;
  it->second.updated_since_replace = true;
}

void DirtyPageTable::OnReplaced(PageId pid, Psn page_psn, Lsn log_end_lsn) {
  auto it = table_.find(pid);
  if (it == table_.end()) return;
  it->second.replaced_end_lsn = log_end_lsn;
  it->second.psn_at_replace = page_psn;
  it->second.updated_since_replace = false;
}

bool DirtyPageTable::OnOwnerFlushed(PageId pid, Psn flushed_psn) {
  auto it = table_.find(pid);
  if (it == table_.end()) return false;
  DirtyPageInfo& info = it->second;
  if (flushed_psn >= info.curr_psn) {
    // Every update this node made is reflected in the disk version: the
    // entry may be dropped (Section 2.2). A later re-dirtying re-adds it
    // when the transaction obtains the exclusive lock again.
    by_redo_lsn_.erase({info.redo_lsn, pid});
    table_.erase(it);
    return true;
  }
  if (info.psn_at_replace != kInvalidPsn && flushed_psn >= info.psn_at_replace) {
    // The disk version covers at least our last shipped copy; updates made
    // before that replacement are durable, so RedoLSN advances to the
    // remembered end-of-log (Section 2.5).
    if (info.replaced_end_lsn != kNullLsn &&
        info.replaced_end_lsn > info.redo_lsn) {
      Reindex(pid, info.redo_lsn, info.replaced_end_lsn);
      info.redo_lsn = info.replaced_end_lsn;
    }
  }
  return false;
}

void DirtyPageTable::Remove(PageId pid) {
  auto it = table_.find(pid);
  if (it == table_.end()) return;
  by_redo_lsn_.erase({it->second.redo_lsn, pid});
  table_.erase(it);
}

void DirtyPageTable::SetRedoLsn(PageId pid, Lsn redo_lsn) {
  auto it = table_.find(pid);
  if (it == table_.end()) return;
  Reindex(pid, it->second.redo_lsn, redo_lsn);
  it->second.redo_lsn = redo_lsn;
}

void DirtyPageTable::Reindex(PageId pid, Lsn from, Lsn to) {
  ByRedoLsn::node_type node = by_redo_lsn_.extract({from, pid});
  node.value().first = to;
  by_redo_lsn_.insert(std::move(node));
}

void DirtyPageTable::Clear() {
  table_.clear();
  by_redo_lsn_.clear();
}

bool DirtyPageTable::Contains(PageId pid) const { return table_.contains(pid); }

const DirtyPageInfo* DirtyPageTable::Find(PageId pid) const {
  auto it = table_.find(pid);
  return it == table_.end() ? nullptr : &it->second;
}

Lsn DirtyPageTable::MinRedoLsn() const {
  return by_redo_lsn_.empty() ? kNullLsn : by_redo_lsn_.begin()->first;
}

std::optional<PageId> DirtyPageTable::MinRedoLsnPage() const {
  if (by_redo_lsn_.empty()) return std::nullopt;
  return by_redo_lsn_.begin()->second;
}

std::vector<PageId> DirtyPageTable::PagesByRedoLsn() const {
  std::vector<PageId> out;
  out.reserve(by_redo_lsn_.size());
  for (const auto& [_, pid] : by_redo_lsn_) out.push_back(pid);
  return out;
}

std::vector<DptEntry> DirtyPageTable::ToEntries(
    std::optional<NodeId> owner) const {
  std::vector<DptEntry> out;
  for (const auto& [pid, info] : table_) {
    if (owner.has_value() && pid.owner != *owner) continue;
    out.push_back(DptEntry{pid, info.psn, info.curr_psn, info.redo_lsn});
  }
  return out;
}

void DirtyPageTable::Install(const DptEntry& e) {
  DirtyPageInfo info;
  info.psn = e.psn;
  info.curr_psn = e.curr_psn;
  info.redo_lsn = e.redo_lsn;
  auto [it, inserted] = table_.try_emplace(e.pid, info);
  if (inserted) {
    by_redo_lsn_.emplace(e.redo_lsn, e.pid);
    return;
  }
  Reindex(e.pid, it->second.redo_lsn, e.redo_lsn);
  it->second = info;
}

}  // namespace clog
