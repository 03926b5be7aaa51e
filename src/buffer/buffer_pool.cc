#include "buffer/buffer_pool.h"

#include "trace/trace_sink.h"

namespace clog {

BufferPool::BufferPool(std::size_t capacity) : capacity_(capacity) {
  // The pool holds at most `capacity` frames (plus one transiently while a
  // victim is mid-eviction); sizing the table up front means the hot
  // Lookup/Insert path never pays a rehash storm as the pool warms.
  frames_.reserve(capacity_ + 1);
}

void BufferPool::SetEvictionHandler(EvictionHandler handler) {
  handler_ = std::move(handler);
}

Page* BufferPool::Lookup(PageId pid) {
  auto it = frames_.find(pid);
  if (it == frames_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // Allocates nothing.
  return it->second.page.get();
}

bool BufferPool::Contains(PageId pid) const { return frames_.contains(pid); }

Result<Page*> BufferPool::Insert(PageId pid, Page&& image) {
  if (frames_.contains(pid)) {
    return Status::FailedPrecondition("page already cached: " +
                                      pid.ToString());
  }
  while (frames_.size() >= capacity_) {
    CLOG_RETURN_IF_ERROR(EvictOne());
  }
  if (frames_.contains(pid)) {
    // A handler that waited ran a task caching the same page; that frame
    // may already carry newer updates, so the caller retries instead.
    return Status::Busy("page cached during eviction: " + pid.ToString());
  }
  Frame frame;
  frame.page = std::make_unique<Page>(std::move(image));
  lru_.push_front(pid);
  frame.lru_pos = lru_.begin();
  Page* raw = frame.page.get();
  frames_.emplace(pid, std::move(frame));
  return raw;
}

std::optional<PageId> BufferPool::NextVictim() const {
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    auto fit = frames_.find(*it);
    if (fit != frames_.end() && fit->second.pins == 0 &&
        !fit->second.evicting) {
      return *it;
    }
  }
  return std::nullopt;
}

Status BufferPool::EvictOne() {
  std::optional<PageId> victim = NextVictim();
  if (!victim) {
    return Status::Busy("buffer pool: all frames pinned or mid-eviction");
  }
  return EvictFrame(*victim);
}

Status BufferPool::EvictFrame(PageId pid) {
  auto it = frames_.find(pid);
  if (it == frames_.end()) return Status::OK();
  if (it->second.evicting) {
    return Status::Busy("page mid-eviction: " + pid.ToString());
  }
  it->second.evicting = true;
  const Psn psn = it->second.page->psn();
  Status st = Status::OK();
  if (handler_) {
    st = handler_(pid, it->second.page.get(), it->second.dirty);
  }
  // The handler may have re-entered the pool: nested inserts rehash the
  // map (invalidating `it`) and nested drops may have removed this frame.
  it = frames_.find(pid);
  if (it == frames_.end()) return st;
  if (st.ok() && it->second.page->psn() != psn) {
    // A task run while the handler waited installed a newer image (a
    // shipped copy, a local update): what the handler wrote or shipped is
    // stale, so the frame stays for a later eviction.
    st = Status::Busy("page changed during eviction: " + pid.ToString());
  }
  if (!st.ok()) {
    it->second.evicting = false;
    return st;
  }
  Drop(pid, /*as_eviction=*/true);
  return Status::OK();
}

Status BufferPool::Evict(PageId pid) {
  auto it = frames_.find(pid);
  if (it == frames_.end()) {
    return Status::NotFound("page not cached: " + pid.ToString());
  }
  if (it->second.pins > 0) {
    return Status::Busy("page pinned: " + pid.ToString());
  }
  return EvictFrame(pid);
}

Page* BufferPool::Pin(PageId pid) {
  auto it = frames_.find(pid);
  if (it == frames_.end()) return nullptr;
  ++it->second.pins;
  return it->second.page.get();
}

void BufferPool::Unpin(PageId pid) {
  auto it = frames_.find(pid);
  if (it != frames_.end() && it->second.pins > 0) --it->second.pins;
}

void BufferPool::MarkDirty(PageId pid) {
  auto it = frames_.find(pid);
  if (it != frames_.end()) it->second.dirty = true;
}

void BufferPool::MarkClean(PageId pid) {
  auto it = frames_.find(pid);
  if (it != frames_.end()) it->second.dirty = false;
}

bool BufferPool::IsDirty(PageId pid) const {
  auto it = frames_.find(pid);
  return it != frames_.end() && it->second.dirty;
}

void BufferPool::Drop(PageId pid, bool as_eviction) {
  auto it = frames_.find(pid);
  if (it == frames_.end()) return;
  if (as_eviction) {
    if (trace_ != nullptr) {
      trace_->Emit(trace_node_, TraceEventType::kPageEvict, pid.Pack(), 0,
                   it->second.dirty ? 1 : 0);
    }
    ++evictions_;
  }
  lru_.erase(it->second.lru_pos);
  frames_.erase(it);
}

void BufferPool::DropAll() {
  frames_.clear();
  lru_.clear();
}

std::vector<PageId> BufferPool::CachedPages() const {
  std::vector<PageId> out;
  out.reserve(frames_.size());
  for (const auto& [pid, _] : frames_) out.push_back(pid);
  return out;
}

std::vector<PageId> BufferPool::DirtyPages() const {
  std::vector<PageId> out;
  for (const auto& [pid, frame] : frames_) {
    if (frame.dirty) out.push_back(pid);
  }
  return out;
}

}  // namespace clog
