#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/dirty_page_table.h"
#include "common/random.h"
#include "tests/test_util.h"

namespace clog {
namespace {

PageId P(std::uint32_t n) { return PageId{0, n}; }

TEST(BufferPoolTest, LookupMissThenInsert) {
  BufferPool pool(4);
  EXPECT_EQ(pool.Lookup(P(1)), nullptr);
  EXPECT_EQ(pool.misses(), 1u);
  ASSERT_OK_AND_ASSIGN(Page * frame, pool.Insert(P(1), Page()));
  frame->Format(P(1), PageType::kData, 0);
  EXPECT_EQ(pool.Lookup(P(1)), frame);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(pool.Contains(P(1)));
}

TEST(BufferPoolTest, InsertAdoptsTheImageAndEvictionHandsItBack) {
  BufferPool pool(1);
  Page image;
  image.Format(P(1), PageType::kData, 5);
  for (std::size_t i = 0; i < Page::BodySize(); ++i) {
    image.body()[i] = static_cast<char>(i * 13 + 3);
  }
  const Page expected(image);
  const char* const frame_bytes = image.data();
  ASSERT_OK_AND_ASSIGN(Page * frame, pool.Insert(P(1), std::move(image)));
  EXPECT_EQ(frame->data(), frame_bytes);  // Adopted, not copied.
  EXPECT_EQ(std::memcmp(frame->data(), expected.data(), kPageSize), 0);

  bool same_bytes = false;
  pool.SetEvictionHandler([&](PageId pid, Page* page, bool) {
    same_bytes = pid == P(1) &&
                 std::memcmp(page->data(), expected.data(), kPageSize) == 0;
    return Status::OK();
  });
  ASSERT_OK(pool.Insert(P(2), Page()).status());
  EXPECT_TRUE(same_bytes);
}

TEST(BufferPoolTest, InsertRechecksAfterAnEvictionCachedThePage) {
  // An eviction handler that waits can run a task that caches the very
  // page being inserted. Insert must then report Busy (the transaction
  // retries) and leave that frame and the caller's image alone. Without
  // the re-check Insert drops its new frame and returns a dangling
  // pointer, and the write below is a heap-use-after-free under ASan.
  BufferPool pool(2);
  bool reentered = false;
  pool.SetEvictionHandler([&](PageId, Page*, bool) {
    if (!reentered) {
      reentered = true;
      Page other;
      other.Format(P(3), PageType::kData, 7);
      EXPECT_OK(pool.Insert(P(3), std::move(other)).status());
    }
    return Status::OK();
  });
  ASSERT_OK(pool.Insert(P(1), Page()).status());
  ASSERT_OK(pool.Insert(P(2), Page()).status());
  Page image;
  image.Format(P(3), PageType::kData, 9);
  Result<Page*> frame = pool.Insert(P(3), std::move(image));
  if (frame.ok()) (*frame)->BumpPsn();
  ASSERT_TRUE(frame.status().IsBusy()) << frame.status().ToString();
  ASSERT_NE(pool.Lookup(P(3)), nullptr);
  EXPECT_EQ(pool.Lookup(P(3))->psn(), 7u);
  EXPECT_EQ(image.psn(), 9u);  // A failed Insert does not consume the image.
  EXPECT_EQ(pool.size(), 1u);
}

TEST(BufferPoolTest, EvictionKeepsAFrameThatChangedWhileItsHandlerWaited) {
  // An owner's eviction handler waits on FlushNotify; a task run meanwhile
  // installs a client's newer shipped copy into the same frame. What the
  // handler wrote is then stale, so erasing the frame would lose the newer
  // image: the eviction reports Busy and the frame stays cached, dirty,
  // and evictable by a later call.
  BufferPool pool(1);
  int calls = 0;
  pool.SetEvictionHandler([&](PageId, Page* page, bool) {
    if (++calls == 1) page->BumpPsn();
    return Status::OK();
  });
  ASSERT_OK_AND_ASSIGN(Page * frame, pool.Insert(P(1), Page()));
  frame->Format(P(1), PageType::kData, 4);
  pool.MarkDirty(P(1));
  Status st = pool.Insert(P(2), Page()).status();
  EXPECT_TRUE(st.IsBusy()) << st.ToString();
  ASSERT_NE(pool.Peek(P(1)), nullptr);
  EXPECT_EQ(pool.Peek(P(1))->psn(), 5u);
  EXPECT_TRUE(pool.IsDirty(P(1)));
  EXPECT_EQ(pool.evictions(), 0u);

  ASSERT_OK(pool.Insert(P(2), Page()).status());
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(pool.Contains(P(1)));
  EXPECT_EQ(pool.evictions(), 1u);
}

TEST(BufferPoolTest, NextVictimSkipsPinnedFramesAndADropCanCountAsEviction) {
  BufferPool pool(2);
  ASSERT_OK_AND_ASSIGN(Page * one, pool.Insert(P(1), Page()));
  ASSERT_OK(pool.Insert(P(2), Page()).status());
  EXPECT_EQ(pool.NextVictim(), P(1));
  EXPECT_EQ(pool.Pin(P(1)), one);
  EXPECT_EQ(pool.NextVictim(), P(2));
  pool.Unpin(P(1));
  pool.Drop(P(2));
  EXPECT_EQ(pool.evictions(), 0u);
  pool.Drop(P(1), /*as_eviction=*/true);  // Shipped home by its caller.
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_EQ(pool.NextVictim(), std::nullopt);
}

TEST(BufferPoolTest, DoubleInsertFails) {
  BufferPool pool(4);
  ASSERT_OK(pool.Insert(P(1), Page()).status());
  EXPECT_EQ(pool.Insert(P(1), Page()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BufferPoolTest, LruEvictionOrder) {
  BufferPool pool(2);
  std::vector<PageId> evicted;
  pool.SetEvictionHandler([&](PageId pid, Page*, bool) {
    evicted.push_back(pid);
    return Status::OK();
  });
  ASSERT_OK(pool.Insert(P(1), Page()).status());
  ASSERT_OK(pool.Insert(P(2), Page()).status());
  pool.Lookup(P(1));  // P(1) most recent; P(2) is the LRU victim.
  ASSERT_OK(pool.Insert(P(3), Page()).status());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], P(2));
  EXPECT_TRUE(pool.Contains(P(1)));
  EXPECT_TRUE(pool.Contains(P(3)));
}

TEST(BufferPoolTest, PinnedPagesNotEvicted) {
  BufferPool pool(2);
  std::vector<PageId> evicted;
  pool.SetEvictionHandler([&](PageId pid, Page*, bool) {
    evicted.push_back(pid);
    return Status::OK();
  });
  ASSERT_OK(pool.Insert(P(1), Page()).status());
  ASSERT_OK(pool.Insert(P(2), Page()).status());
  pool.Pin(P(1));
  pool.Lookup(P(2));  // P(1) would be LRU, but it is pinned.
  ASSERT_OK(pool.Insert(P(3), Page()).status());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], P(2));
  pool.Unpin(P(1));
}

TEST(BufferPoolTest, AllPinnedMeansBusy) {
  BufferPool pool(1);
  pool.SetEvictionHandler([](PageId, Page*, bool) { return Status::OK(); });
  ASSERT_OK(pool.Insert(P(1), Page()).status());
  pool.Pin(P(1));
  EXPECT_TRUE(pool.Insert(P(2), Page()).status().IsBusy());
}

TEST(BufferPoolTest, DirtyBitFlowsToHandler) {
  BufferPool pool(1);
  bool saw_dirty = false;
  pool.SetEvictionHandler([&](PageId, Page*, bool dirty) {
    saw_dirty = dirty;
    return Status::OK();
  });
  ASSERT_OK(pool.Insert(P(1), Page()).status());
  pool.MarkDirty(P(1));
  EXPECT_TRUE(pool.IsDirty(P(1)));
  ASSERT_OK(pool.Insert(P(2), Page()).status());
  EXPECT_TRUE(saw_dirty);
}

TEST(BufferPoolTest, ExplicitEvictAndDrop) {
  BufferPool pool(4);
  int handler_calls = 0;
  pool.SetEvictionHandler([&](PageId, Page*, bool) {
    ++handler_calls;
    return Status::OK();
  });
  ASSERT_OK(pool.Insert(P(1), Page()).status());
  ASSERT_OK(pool.Insert(P(2), Page()).status());
  ASSERT_OK(pool.Evict(P(1)));
  EXPECT_EQ(handler_calls, 1);
  EXPECT_FALSE(pool.Contains(P(1)));
  pool.Drop(P(2));  // No handler for Drop.
  EXPECT_EQ(handler_calls, 1);
  EXPECT_TRUE(pool.Evict(P(9)).IsNotFound());
}

TEST(BufferPoolTest, DropAllSimulatesCrash) {
  BufferPool pool(4);
  int handler_calls = 0;
  pool.SetEvictionHandler([&](PageId, Page*, bool) {
    ++handler_calls;
    return Status::OK();
  });
  ASSERT_OK(pool.Insert(P(1), Page()).status());
  ASSERT_OK(pool.Insert(P(2), Page()).status());
  pool.MarkDirty(P(1));
  pool.DropAll();
  EXPECT_EQ(handler_calls, 0);  // Crash writes nothing.
  EXPECT_EQ(pool.size(), 0u);
}

TEST(BufferPoolTest, CachedAndDirtyLists) {
  BufferPool pool(4);
  ASSERT_OK(pool.Insert(P(1), Page()).status());
  ASSERT_OK(pool.Insert(P(2), Page()).status());
  pool.MarkDirty(P(2));
  EXPECT_EQ(pool.CachedPages().size(), 2u);
  auto dirty = pool.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], P(2));
  pool.MarkClean(P(2));
  EXPECT_TRUE(pool.DirtyPages().empty());
}

// --- DirtyPageTable: the paper's Section 2.2 rules ---

TEST(DirtyPageTableTest, FirstDirtyCapturesPsnAndRedoLsn) {
  DirtyPageTable dpt;
  dpt.OnFirstDirty(P(1), /*page_psn=*/10, /*log_end=*/500);
  const DirtyPageInfo* info = dpt.Find(P(1));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->psn, 10u);
  EXPECT_EQ(info->curr_psn, 10u);
  EXPECT_EQ(info->redo_lsn, 500u);
  // A second first-dirty is a no-op (entry exists).
  dpt.OnFirstDirty(P(1), 99, 900);
  EXPECT_EQ(dpt.Find(P(1))->redo_lsn, 500u);
}

TEST(DirtyPageTableTest, UpdatesAdvanceCurrPsnOnly) {
  DirtyPageTable dpt;
  dpt.OnFirstDirty(P(1), 10, 500);
  dpt.OnUpdate(P(1), 11);
  dpt.OnUpdate(P(1), 12);
  EXPECT_EQ(dpt.Find(P(1))->psn, 10u);
  EXPECT_EQ(dpt.Find(P(1))->curr_psn, 12u);
}

TEST(DirtyPageTableTest, FlushCoveringAllUpdatesDropsEntry) {
  DirtyPageTable dpt;
  dpt.OnFirstDirty(P(1), 10, 500);
  dpt.OnUpdate(P(1), 12);
  dpt.OnReplaced(P(1), 12, 800);
  EXPECT_TRUE(dpt.OnOwnerFlushed(P(1), 12));
  EXPECT_FALSE(dpt.Contains(P(1)));
}

TEST(DirtyPageTableTest, StaleFlushKeepsEntry) {
  DirtyPageTable dpt;
  dpt.OnFirstDirty(P(1), 10, 500);
  dpt.OnUpdate(P(1), 15);
  // Disk only reached PSN 12: our updates 13..15 are not durable.
  EXPECT_FALSE(dpt.OnOwnerFlushed(P(1), 12));
  EXPECT_TRUE(dpt.Contains(P(1)));
  EXPECT_EQ(dpt.Find(P(1))->redo_lsn, 500u);
}

TEST(DirtyPageTableTest, Section25RedoLsnAdvance) {
  // Replace at log end 800, re-dirty, then the owner flushes the shipped
  // copy: RedoLSN advances to the remembered 800 (Section 2.5).
  DirtyPageTable dpt;
  dpt.OnFirstDirty(P(1), 10, 500);
  dpt.OnUpdate(P(1), 12);
  dpt.OnReplaced(P(1), 12, 800);
  dpt.OnUpdate(P(1), 14);  // Re-dirtied after replacement.
  EXPECT_FALSE(dpt.OnOwnerFlushed(P(1), 12));
  ASSERT_TRUE(dpt.Contains(P(1)));
  EXPECT_EQ(dpt.Find(P(1))->redo_lsn, 800u);
}

TEST(DirtyPageTableTest, MinRedoLsnAndVictim) {
  DirtyPageTable dpt;
  EXPECT_EQ(dpt.MinRedoLsn(), kNullLsn);
  EXPECT_FALSE(dpt.MinRedoLsnPage().has_value());
  dpt.OnFirstDirty(P(1), 0, 700);
  dpt.OnFirstDirty(P(2), 0, 300);
  dpt.OnFirstDirty(P(3), 0, 900);
  EXPECT_EQ(dpt.MinRedoLsn(), 300u);
  EXPECT_EQ(dpt.MinRedoLsnPage().value(), P(2));
}

TEST(DirtyPageTableTest, ToEntriesFiltersByOwner) {
  DirtyPageTable dpt;
  dpt.OnFirstDirty(PageId{1, 1}, 0, 100);
  dpt.OnFirstDirty(PageId{2, 1}, 0, 200);
  EXPECT_EQ(dpt.ToEntries().size(), 2u);
  auto owned = dpt.ToEntries(NodeId{2});
  ASSERT_EQ(owned.size(), 1u);
  EXPECT_EQ(owned[0].pid, (PageId{2, 1}));
}

TEST(DirtyPageTableTest, RedoLsnIndexMatchesTheTableUnderRandomMutations) {
  // Every mutator keeps the (RedoLSN, PID) index in step with the table:
  // after each step of a seeded random walk, the indexed answers equal a
  // brute-force recomputation over entries().
  DirtyPageTable dpt;
  Random rng(2510);
  Lsn log_end = 64;
  int drops = 0;
  int advances = 0;
  for (int step = 0; step < 5000; ++step) {
    const PageId pid = P(static_cast<std::uint32_t>(rng.Uniform(24)));
    log_end += rng.Range(1, 100);
    const DirtyPageInfo* info = dpt.Find(pid);
    switch (rng.Uniform(8)) {
      case 0:
        dpt.OnFirstDirty(pid, rng.Uniform(50), log_end);
        break;
      case 1:
        if (info != nullptr) dpt.OnUpdate(pid, info->curr_psn + 1);
        break;
      case 2:
        if (info != nullptr) dpt.OnReplaced(pid, info->curr_psn, log_end);
        break;
      case 3: {
        // The flush covers every update (drop), or only the copy shipped
        // at the last replacement (RedoLSN advances if re-dirtied since).
        if (info == nullptr) break;
        const Lsn before = info->redo_lsn;
        const Psn flushed =
            rng.Bernoulli(0.5) || info->psn_at_replace == kInvalidPsn
                ? info->curr_psn
                : info->psn_at_replace;
        if (dpt.OnOwnerFlushed(pid, flushed)) {
          ++drops;
        } else if (dpt.Find(pid)->redo_lsn != before) {
          ++advances;
        }
        break;
      }
      case 4:
        dpt.Remove(pid);
        break;
      case 5: {
        // Overwrites an existing entry about half the time.
        const Psn psn = rng.Uniform(50);
        dpt.Install(DptEntry{pid, psn, psn + rng.Uniform(5),
                             rng.Range(64, log_end)});
        break;
      }
      case 6:
        dpt.SetRedoLsn(pid, rng.Range(64, log_end));
        break;
      case 7:
        if (rng.Uniform(40) == 0) dpt.Clear();
        break;
    }
    std::vector<std::pair<Lsn, PageId>> order;
    for (const auto& [p, e] : dpt.entries()) order.emplace_back(e.redo_lsn, p);
    std::sort(order.begin(), order.end());
    std::vector<PageId> pages;
    for (const auto& [_, p] : order) pages.push_back(p);
    ASSERT_EQ(dpt.MinRedoLsn(), order.empty() ? kNullLsn : order[0].first)
        << "step " << step;
    ASSERT_EQ(dpt.PagesByRedoLsn(), pages) << "step " << step;
  }
  EXPECT_GT(drops, 0);
  EXPECT_GT(advances, 0);
}

TEST(DirtyPageTableTest, InstallForAnalysis) {
  DirtyPageTable dpt;
  dpt.Install(DptEntry{P(4), 5, 9, 1234});
  ASSERT_TRUE(dpt.Contains(P(4)));
  EXPECT_EQ(dpt.Find(P(4))->curr_psn, 9u);
  EXPECT_EQ(dpt.Find(P(4))->redo_lsn, 1234u);
}

}  // namespace
}  // namespace clog
