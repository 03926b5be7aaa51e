#ifndef CLOG_BUFFER_BUFFER_POOL_H_
#define CLOG_BUFFER_BUFFER_POOL_H_

#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

/// \file
/// Per-node buffer pool (node cache, paper Section 2.1). Policies follow
/// the paper exactly: steal (dirty pages with uncommitted updates may be
/// replaced) and no-force (commit does not write pages). What happens to a
/// replaced dirty page — write in place for locally owned pages, ship to the
/// owner node otherwise — is node policy, injected as the eviction handler.

namespace clog {

class TraceSink;

/// Fixed-capacity page cache with LRU replacement and pin counts.
class BufferPool {
 public:
  /// Called when a victim frame must leave the cache. `dirty` reflects the
  /// pool's dirty bit. The handler must complete whatever WAL flushing and
  /// write/ship the node's policy requires; returning non-OK aborts the
  /// eviction (and the insertion that triggered it).
  using EvictionHandler = std::function<Status(PageId, Page*, bool dirty)>;

  /// Creates a pool with `capacity` frames.
  explicit BufferPool(std::size_t capacity);

  /// Installs the eviction policy. Must be set before the pool fills.
  void SetEvictionHandler(EvictionHandler handler);

  /// Returns the cached frame for `pid`, or nullptr on miss. Refreshes LRU.
  Page* Lookup(PageId pid);

  /// True if `pid` is cached (no LRU effect).
  bool Contains(PageId pid) const;

  /// The cached frame, or nullptr on miss. No LRU effect and no hit or miss
  /// counted: invariant checkers use it, and node code finds a frame again
  /// with it after a call that can wait.
  const Page* Peek(PageId pid) const {
    auto it = frames_.find(pid);
    return it == frames_.end() ? nullptr : it->second.page.get();
  }
  Page* Peek(PageId pid) {
    auto it = frames_.find(pid);
    return it == frames_.end() ? nullptr : it->second.page.get();
  }

  /// Caches `image` as the frame for `pid` (must not be cached), evicting
  /// the LRU unpinned victim if full. The image is adopted, not copied:
  /// callers pass a fetched or rebuilt image, or `Page()` for a frame they
  /// fill themselves (from disk or Format). An eviction handler can wait
  /// and run a task that caches `pid` itself; then Insert returns Busy and
  /// leaves both that frame and `image` untouched, as on any failure.
  Result<Page*> Insert(PageId pid, Page&& image);

  /// Pins `pid` so it cannot be evicted while the caller works on it.
  /// Returns its frame (nullptr if not cached); no LRU effect.
  Page* Pin(PageId pid);
  void Unpin(PageId pid);

  /// Marks / clears the dirty bit.
  void MarkDirty(PageId pid);
  void MarkClean(PageId pid);
  bool IsDirty(PageId pid) const;

  /// Removes `pid` without invoking the eviction handler (callback-release,
  /// page forced and dropped, recovery rewiring). No-op if absent. With
  /// `as_eviction` the removal is counted and traced as an eviction whose
  /// write or ship the caller did itself.
  void Drop(PageId pid, bool as_eviction = false);

  /// Explicitly evicts `pid` through the eviction handler (Section 2.5 log
  /// space pressure evicts a specific page, not the LRU choice).
  Status Evict(PageId pid);

  /// The frame the next eviction would pick: the least recently used one
  /// that is neither pinned nor mid-eviction. No LRU effect.
  std::optional<PageId> NextVictim() const;

  /// Discards every frame without any handler calls: a node crash.
  void DropAll();

  /// Ids of all cached pages (used by recovery: "pages owned by N present
  /// in your cache").
  std::vector<PageId> CachedPages() const;

  /// Ids of all cached-and-dirty pages (checkpoint support).
  std::vector<PageId> DirtyPages() const;

  std::size_t size() const { return frames_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Counters for benchmarks.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

  /// Attaches a trace sink emitting PAGE_EVICT events as `node` (nullptr
  /// detaches). Not owned.
  void set_trace_sink(TraceSink* trace, NodeId node) {
    trace_ = trace;
    trace_node_ = node;
  }

 private:
  struct Frame {
    std::unique_ptr<Page> page;
    bool dirty = false;
    int pins = 0;
    /// Set while the eviction handler runs. The handler can re-enter the
    /// pool (shipping a dirty page installs the reply on the peer, whose
    /// own eviction may ship a page back here); a frame mid-eviction must
    /// not be picked as a victim again or two nodes bounce the same pages
    /// in unbounded mutual recursion.
    bool evicting = false;
    std::list<PageId>::iterator lru_pos;
  };

  /// Evicts the least recently used unpinned frame.
  Status EvictOne();
  Status EvictFrame(PageId pid);

  std::size_t capacity_;
  EvictionHandler handler_;
  std::unordered_map<PageId, Frame> frames_;
  std::list<PageId> lru_;  ///< Front = most recent.

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;

  TraceSink* trace_ = nullptr;
  NodeId trace_node_ = kInvalidNodeId;
};

}  // namespace clog

#endif  // CLOG_BUFFER_BUFFER_POOL_H_
