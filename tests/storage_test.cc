#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/slotted_page.h"
#include "storage/space_map.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

TEST(PageTest, FormatSetsHeader) {
  Page page;
  page.Format(PageId{2, 9}, PageType::kData, 41);
  EXPECT_EQ(page.id(), (PageId{2, 9}));
  EXPECT_EQ(page.psn(), 41u);
  EXPECT_EQ(page.type(), PageType::kData);
  EXPECT_EQ(page.page_lsn(), kNullLsn);
}

TEST(PageTest, PsnBumpsByOne) {
  Page page;
  page.Format(PageId{0, 0}, PageType::kData, 0);
  page.BumpPsn();
  page.BumpPsn();
  EXPECT_EQ(page.psn(), 2u);
}

TEST(PageTest, ChecksumRoundTrip) {
  Page page;
  page.Format(PageId{1, 1}, PageType::kData, 0);
  page.body()[10] = 'x';
  page.SealChecksum();
  EXPECT_OK(page.VerifyChecksum());
  page.body()[10] = 'y';  // Corrupt after sealing.
  EXPECT_TRUE(page.VerifyChecksum().IsCorruption());
}

TEST(PageTest, CopyConstructorCopiesEveryByte) {
  Page a;
  a.Format(PageId{3, 4}, PageType::kData, 11);
  for (std::size_t i = 0; i < Page::BodySize(); ++i) {
    a.body()[i] = static_cast<char>(i * 7 + 1);
  }
  a.SealChecksum();
  Page b(a);
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(std::memcmp(b.data(), a.data(), kPageSize), 0);
  EXPECT_OK(b.VerifyChecksum());
  a.body()[0] = 'z';  // Deep: the copy keeps its own frame.
  EXPECT_EQ(b.body()[0], static_cast<char>(1));
}

TEST(PageTest, CopyFromIsDeep) {
  Page a, b;
  a.Format(PageId{1, 2}, PageType::kData, 7);
  a.body()[0] = 'q';
  b.CopyFrom(a);
  EXPECT_EQ(b.id(), a.id());
  EXPECT_EQ(b.psn(), 7u);
  EXPECT_EQ(b.body()[0], 'q');
  a.body()[0] = 'z';
  EXPECT_EQ(b.body()[0], 'q');
}

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : sp_(&page_) {
    page_.Format(PageId{0, 1}, PageType::kData, 0);
    sp_.InitBody();
  }
  Page page_;
  SlottedPage sp_;
};

TEST_F(SlottedPageTest, InsertAndRead) {
  ASSERT_OK_AND_ASSIGN(SlotId s, sp_.Insert("hello"));
  EXPECT_EQ(s, 0);
  ASSERT_OK_AND_ASSIGN(Slice v, sp_.Read(s));
  EXPECT_EQ(v.ToString(), "hello");
  EXPECT_EQ(sp_.LiveRecords(), 1);
}

TEST_F(SlottedPageTest, PeekMatchesInsert) {
  EXPECT_EQ(sp_.PeekInsertSlot(), 0);
  ASSERT_OK_AND_ASSIGN(SlotId a, sp_.Insert("a"));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(sp_.PeekInsertSlot(), 1);
  ASSERT_OK(sp_.Delete(0));
  EXPECT_EQ(sp_.PeekInsertSlot(), 0);  // Dead slot reused first.
}

TEST_F(SlottedPageTest, DeleteFreesSlotForReuse) {
  ASSERT_OK_AND_ASSIGN(SlotId a, sp_.Insert("one"));
  ASSERT_OK_AND_ASSIGN(SlotId b, sp_.Insert("two"));
  ASSERT_OK(sp_.Delete(a));
  EXPECT_FALSE(sp_.IsLive(a));
  EXPECT_TRUE(sp_.IsLive(b));
  ASSERT_OK_AND_ASSIGN(SlotId c, sp_.Insert("three"));
  EXPECT_EQ(c, a);  // Reused.
  EXPECT_TRUE(sp_.Read(99).status().IsNotFound());
}

TEST_F(SlottedPageTest, UpdateInPlaceAndGrow) {
  ASSERT_OK_AND_ASSIGN(SlotId s, sp_.Insert("abcdef"));
  ASSERT_OK(sp_.Update(s, "xy"));
  ASSERT_OK_AND_ASSIGN(Slice v1, sp_.Read(s));
  EXPECT_EQ(v1.ToString(), "xy");
  ASSERT_OK(sp_.Update(s, std::string(200, 'k')));
  ASSERT_OK_AND_ASSIGN(Slice v2, sp_.Read(s));
  EXPECT_EQ(v2.size(), 200u);
}

TEST_F(SlottedPageTest, InsertAtSpecificSlot) {
  ASSERT_OK(sp_.InsertAt(3, "late"));
  EXPECT_EQ(sp_.SlotCount(), 4);
  EXPECT_FALSE(sp_.IsLive(0));
  EXPECT_TRUE(sp_.IsLive(3));
  EXPECT_TRUE(sp_.InsertAt(3, "again").code() ==
              StatusCode::kFailedPrecondition);
  // Undo-of-delete pattern: delete then reinstate at the same slot.
  ASSERT_OK(sp_.Delete(3));
  ASSERT_OK(sp_.InsertAt(3, "back"));
  ASSERT_OK_AND_ASSIGN(Slice v, sp_.Read(3));
  EXPECT_EQ(v.ToString(), "back");
}

TEST_F(SlottedPageTest, FillsUntilFullThenCompacts) {
  // Fill with 100-byte records.
  std::vector<SlotId> slots;
  while (sp_.MaxInsertSize() >= 100) {
    ASSERT_OK_AND_ASSIGN(SlotId s, sp_.Insert(std::string(100, 'r')));
    slots.push_back(s);
  }
  EXPECT_GT(slots.size(), 30u);
  Result<SlotId> overflow = sp_.Insert(std::string(4000, 'x'));
  EXPECT_FALSE(overflow.ok());
  // Delete every other record, then insert one that only fits after
  // compaction.
  for (std::size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_OK(sp_.Delete(slots[i]));
  }
  std::size_t big = sp_.MaxInsertSize();
  EXPECT_GE(big, 100u);
  ASSERT_OK_AND_ASSIGN(SlotId s2, sp_.Insert(std::string(big, 'c')));
  ASSERT_OK_AND_ASSIGN(Slice v, sp_.Read(s2));
  EXPECT_EQ(v.size(), big);
  // Survivors intact after compaction.
  for (std::size_t i = 1; i < slots.size(); i += 2) {
    ASSERT_OK_AND_ASSIGN(Slice kept, sp_.Read(slots[i]));
    EXPECT_EQ(kept.ToString(), std::string(100, 'r'));
  }
}

TEST(DiskManagerTest, WriteReadRoundTrip) {
  TempDir dir;
  DiskManager disk;
  ASSERT_OK(disk.Open(dir.path() + "/db"));
  Page page;
  page.Format(PageId{0, 3}, PageType::kData, 5);
  page.body()[0] = 'd';
  ASSERT_OK(disk.WritePage(3, &page, /*sync=*/true));
  Page readback;
  ASSERT_OK(disk.ReadPage(3, &readback));
  EXPECT_EQ(readback.psn(), 5u);
  EXPECT_EQ(readback.body()[0], 'd');
  ASSERT_OK_AND_ASSIGN(std::uint32_t pages, disk.NumPages());
  EXPECT_EQ(pages, 4u);  // Pages 0..3 exist (0..2 as zero-fill holes).
  EXPECT_EQ(disk.reads(), 1u);
  EXPECT_EQ(disk.writes(), 1u);
  ASSERT_OK(disk.Close());
}

TEST(DiskManagerTest, ReadPastEndIsNotFound) {
  TempDir dir;
  DiskManager disk;
  ASSERT_OK(disk.Open(dir.path() + "/db"));
  Page page;
  EXPECT_TRUE(disk.ReadPage(0, &page).IsNotFound());
}

TEST(DiskManagerTest, DetectsTornPage) {
  TempDir dir;
  DiskManager disk;
  ASSERT_OK(disk.Open(dir.path() + "/db"));
  Page page;
  page.Format(PageId{0, 0}, PageType::kData, 0);
  ASSERT_OK(disk.WritePage(0, &page, true));
  ASSERT_OK(disk.Close());
  // Corrupt a byte in the middle of the page on disk.
  FILE* f = std::fopen((dir.path() + "/db").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 2000, SEEK_SET);
  std::fputc('!', f);
  std::fclose(f);
  DiskManager reopened;
  ASSERT_OK(reopened.Open(dir.path() + "/db"));
  EXPECT_TRUE(reopened.ReadPage(0, &page).IsCorruption());
}

TEST(SpaceMapTest, AllocateSequentially) {
  TempDir dir;
  SpaceMap map;
  ASSERT_OK(map.Open(dir.path() + "/map"));
  ASSERT_OK_AND_ASSIGN(std::uint32_t a, map.Allocate());
  ASSERT_OK_AND_ASSIGN(std::uint32_t b, map.Allocate());
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_TRUE(map.IsAllocated(a));
  EXPECT_EQ(map.AllocatedCount(), 2u);
  EXPECT_EQ(map.PsnSeed(a), 0u);
}

TEST(SpaceMapTest, PsnSeedSurvivesReuse) {
  // The ARIES/CSA seeding the paper adopts: a reallocated page continues
  // its PSN sequence, keeping per-page PSNs monotone across lives.
  TempDir dir;
  SpaceMap map;
  ASSERT_OK(map.Open(dir.path() + "/map"));
  ASSERT_OK_AND_ASSIGN(std::uint32_t a, map.Allocate());
  ASSERT_OK(map.Free(a, /*last_psn=*/41));
  EXPECT_FALSE(map.IsAllocated(a));
  ASSERT_OK_AND_ASSIGN(std::uint32_t b, map.Allocate());
  EXPECT_EQ(b, a);  // Lowest free page is reused.
  EXPECT_EQ(map.PsnSeed(b), 42u);
}

TEST(SpaceMapTest, PersistsAcrossReopen) {
  TempDir dir;
  {
    SpaceMap map;
    ASSERT_OK(map.Open(dir.path() + "/map"));
    ASSERT_OK(map.Allocate().status());
    ASSERT_OK(map.Allocate().status());
    ASSERT_OK(map.Free(0, 10));
  }
  SpaceMap map;
  ASSERT_OK(map.Open(dir.path() + "/map"));
  EXPECT_FALSE(map.IsAllocated(0));
  EXPECT_TRUE(map.IsAllocated(1));
  EXPECT_EQ(map.PsnSeed(0), 11u);
  ASSERT_OK_AND_ASSIGN(std::uint32_t next, map.Allocate());
  EXPECT_EQ(next, 0u);
}

TEST(SpaceMapTest, FreeUnallocatedFails) {
  TempDir dir;
  SpaceMap map;
  ASSERT_OK(map.Open(dir.path() + "/map"));
  EXPECT_TRUE(map.Free(3, 0).IsNotFound());
}

}  // namespace
}  // namespace clog
