#include <gtest/gtest.h>

#include <cstring>

#include "core/cluster.h"
#include "core/workload.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

// Page copies that travel with a lock grant or a callback, cached-page or
// recovery reply carry whatever checksum field their frame had: no
// receiver verifies them. The rule that keeps that safe is that every path writing
// or shipping a frame reseals it first, so a verifier (HandlePageShip,
// DiskManager::ReadPage) never sees a stale checksum.
void SpoilChecksum(Page* page) {
  const std::uint32_t garbage = 0xDEADBEEFu;
  std::memcpy(page->data() + 4, &garbage, sizeof(garbage));
  ASSERT_TRUE(page->VerifyChecksum().IsCorruption());
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    ClusterOptions opts;
    opts.dir = dir_.path();
    opts.node_defaults.buffer_frames = 32;
    cluster_ = std::make_unique<Cluster>(opts);
    auto owner = cluster_->AddNode();
    auto client = cluster_->AddNode();
    EXPECT_TRUE(owner.ok());
    EXPECT_TRUE(client.ok());
    owner_ = *owner;
    client_ = *client;
  }

  std::uint64_t Msgs(const std::string& type) {
    return cluster_->network().metrics().CounterValue("msg." + type);
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* owner_ = nullptr;
  Node* client_ = nullptr;
};

TEST_F(ClusterTest, RemotePageFetchAndUpdate) {
  // Client caches a page owned by the server, updates it, logs locally,
  // and commits without talking to the owner (data shipping, Section 2.2).
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "remote"));
  EXPECT_GE(Msgs("lock_page_request"), 1u);
  std::uint64_t msgs_before_commit =
      cluster_->network().metrics().CounterValue("msg.total");
  ASSERT_OK(client_->Commit(txn));
  // No commit-time messages.
  EXPECT_EQ(cluster_->network().metrics().CounterValue("msg.total"),
            msgs_before_commit);
  // The client's log carries the records, the owner's does not.
  EXPECT_GT(client_->log().appended_records(), 0u);
  // Client can re-read from cache with no further owner traffic.
  std::uint64_t lock_reqs = Msgs("lock_page_request");
  ASSERT_OK_AND_ASSIGN(TxnId t2, client_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, client_->Read(t2, rid));
  EXPECT_EQ(v, "remote");
  ASSERT_OK(client_->Commit(t2));
  EXPECT_EQ(Msgs("lock_page_request"), lock_reqs);  // Inter-txn caching.
}

TEST_F(ClusterTest, CallbackDemotesWriterForReader) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  // Client writes and commits; it retains an exclusive cached lock.
  ASSERT_OK_AND_ASSIGN(TxnId tw, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(tw, pid, "w"));
  ASSERT_OK(client_->Commit(tw));
  EXPECT_EQ(client_->lock_cache().NodeMode(pid), LockMode::kExclusive);

  // Owner-side read triggers a demotion callback; the dirty copy travels.
  ASSERT_OK_AND_ASSIGN(TxnId tr, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(tr, rid));
  EXPECT_EQ(v, "w");
  ASSERT_OK(owner_->Commit(tr));
  EXPECT_GE(Msgs("callback"), 1u);
  EXPECT_EQ(client_->lock_cache().NodeMode(pid), LockMode::kShared);
  // The client's DPT entry survives: its updates are not on disk yet.
  EXPECT_TRUE(client_->dpt().Contains(pid));
}

TEST_F(ClusterTest, CallbackReleasesReaderForWriter) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t0, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(t0, pid, "v0"));
  ASSERT_OK(owner_->Commit(t0));

  // Client reads: holds a cached S lock.
  ASSERT_OK_AND_ASSIGN(TxnId tr, client_->Begin());
  ASSERT_OK(client_->Read(tr, rid).status());
  ASSERT_OK(client_->Commit(tr));
  EXPECT_EQ(client_->lock_cache().NodeMode(pid), LockMode::kShared);

  // Owner writes: the client's cached S lock is called back entirely.
  ASSERT_OK_AND_ASSIGN(TxnId tw, owner_->Begin());
  ASSERT_OK(owner_->Update(tw, rid, "v1"));
  ASSERT_OK(owner_->Commit(tw));
  EXPECT_EQ(client_->lock_cache().NodeMode(pid), LockMode::kNone);
  EXPECT_FALSE(client_->pool().Contains(pid));

  // Client re-reads: sees the new value.
  ASSERT_OK_AND_ASSIGN(TxnId tr2, client_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, client_->Read(tr2, rid));
  EXPECT_EQ(v, "v1");
  ASSERT_OK(client_->Commit(tr2));
}

TEST_F(ClusterTest, PageTravelsWithMultipleOutstandingUpdates) {
  // The paper's distinguishing capability vs Rdb/VMS: a page carries
  // uncommitted-at-disk updates from several nodes without being forced.
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t0, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(t0, pid, "v0"));
  ASSERT_OK(owner_->Commit(t0));

  std::uint64_t disk_writes_before = owner_->disk().writes();
  for (int round = 0; round < 3; ++round) {
    ASSERT_OK_AND_ASSIGN(TxnId tc, client_->Begin());
    ASSERT_OK(client_->Update(tc, rid, "c" + std::to_string(round)));
    ASSERT_OK(client_->Commit(tc));
    ASSERT_OK_AND_ASSIGN(TxnId to, owner_->Begin());
    ASSERT_OK(owner_->Update(to, rid, "o" + std::to_string(round)));
    ASSERT_OK(owner_->Commit(to));
  }
  // No disk writes during the ping-pong (no force at transfer).
  EXPECT_EQ(owner_->disk().writes(), disk_writes_before);
  // Both nodes hold DPT entries for the page: multiple outstanding
  // updates, exactly what single-log-per-page schemes cannot have.
  EXPECT_TRUE(owner_->dpt().Contains(pid) || client_->dpt().Contains(pid));
  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "o2");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(ClusterTest, ReplacedDirtyPageShipsHomeAndFlushNotifyClearsDpt) {
  // Small client cache: dirty remote pages get replaced and shipped to the
  // owner; when the owner forces them, the flush notification clears the
  // client's DPT entries (Sections 2.2 / 2.5).
  NodeOptions small = owner_->options();
  small.buffer_frames = 4;
  ASSERT_OK_AND_ASSIGN(Node * tiny, cluster_->AddNode(small));

  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
    pages.push_back(pid);
  }
  ASSERT_OK_AND_ASSIGN(TxnId txn, tiny->Begin());
  for (PageId pid : pages) {
    ASSERT_OK(tiny->Insert(txn, pid, "t").status());
  }
  ASSERT_OK(tiny->Commit(txn));
  // Each miss carries its dirty victim home inside the page request.
  EXPECT_GE(tiny->metrics().CounterValue("pages.shipped_on_replacement"), 4u);
  EXPECT_EQ(tiny->dpt().size(), 8u);

  // Force everything at the owner; notifications clear the client's DPT
  // entries for the pages whose dirty copies were shipped home. Pages
  // still cached dirty at the client correctly KEEP their entries — their
  // updates are not in any disk version yet (Section 2.2 drop rule).
  for (PageId pid : pages) {
    ASSERT_OK(owner_->HandleFlushRequest(owner_->id(), pid));
  }
  EXPECT_LT(tiny->dpt().size(), 8u);
  EXPECT_GE(Msgs("flush_notify"), 1u);

  // Now push the remaining dirty copies home too and force again: every
  // entry must clear.
  for (PageId pid : pages) {
    if (tiny->pool().Contains(pid) && tiny->pool().IsDirty(pid)) {
      ASSERT_OK(const_cast<BufferPool&>(tiny->pool()).Evict(pid));
      ASSERT_OK(owner_->HandleFlushRequest(owner_->id(), pid));
    }
  }
  EXPECT_EQ(tiny->dpt().size(), 0u);
}

TEST_F(ClusterTest, ReplacedDirtyPageRidesThePageRequestToItsOwner) {
  // A one-frame client updates page a, then misses on page b of the same
  // owner: the dirty copy of a travels inside the request for b, so the
  // miss costs one round trip and no PageShip of its own (Section 2.1).
  NodeOptions one = owner_->options();
  one.buffer_frames = 1;
  ASSERT_OK_AND_ASSIGN(Node * tiny, cluster_->AddNode(one));
  ASSERT_OK_AND_ASSIGN(PageId a, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId b, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t1, tiny->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, tiny->Insert(t1, a, "carried"));
  ASSERT_OK(tiny->Commit(t1));
  // The carried copy is resealed before it leaves, like a standalone ship:
  // the owner verifies it on install.
  SpoilChecksum(const_cast<BufferPool&>(tiny->pool()).Lookup(a));

  const std::uint64_t requests = Msgs("lock_page_request");
  const std::uint64_t replies = Msgs("lock_page_reply");
  const std::uint64_t ships = Msgs("page_ship");
  ASSERT_OK_AND_ASSIGN(TxnId t2, tiny->Begin());
  ASSERT_OK(tiny->Insert(t2, b, "b").status());
  EXPECT_EQ(Msgs("lock_page_request"), requests + 1);
  EXPECT_EQ(Msgs("lock_page_reply"), replies + 1);
  EXPECT_EQ(Msgs("page_ship"), ships);
  ASSERT_OK(tiny->Commit(t2));
  EXPECT_FALSE(tiny->pool().Contains(a));
  EXPECT_EQ(tiny->pool().evictions(), 1u);
  EXPECT_EQ(tiny->metrics().CounterValue("pages.shipped_on_replacement"), 1u);

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "carried");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(ClusterTest, VictimOfAnotherOwnerStillShipsOnItsOwn) {
  // The victim belongs to client_, the miss to owner_: the victim cannot
  // ride the request, so it travels as a standalone PageShip.
  NodeOptions one = owner_->options();
  one.buffer_frames = 1;
  ASSERT_OK_AND_ASSIGN(Node * tiny, cluster_->AddNode(one));
  ASSERT_OK_AND_ASSIGN(PageId theirs, client_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId b, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t1, tiny->Begin());
  ASSERT_OK(tiny->Insert(t1, theirs, "elsewhere").status());
  ASSERT_OK(tiny->Commit(t1));

  const std::uint64_t requests = Msgs("lock_page_request");
  const std::uint64_t ships = Msgs("page_ship");
  ASSERT_OK_AND_ASSIGN(TxnId t2, tiny->Begin());
  ASSERT_OK(tiny->Insert(t2, b, "b").status());
  ASSERT_OK(tiny->Commit(t2));
  EXPECT_EQ(Msgs("lock_page_request"), requests + 1);
  EXPECT_EQ(Msgs("page_ship"), ships + 1);
  EXPECT_FALSE(tiny->pool().Contains(theirs));
  EXPECT_EQ(tiny->metrics().CounterValue("pages.shipped_on_replacement"), 1u);
}

TEST_F(ClusterTest, VictimStaysDirtyWhenItsOwnerIsDown) {
  // The request that would carry the victim never reaches the owner: the
  // victim stays cached and dirty, as after a failed eviction.
  NodeOptions one = owner_->options();
  one.buffer_frames = 1;
  ASSERT_OK_AND_ASSIGN(Node * tiny, cluster_->AddNode(one));
  ASSERT_OK_AND_ASSIGN(PageId a, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId b, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t1, tiny->Begin());
  ASSERT_OK(tiny->Insert(t1, a, "kept").status());
  ASSERT_OK(tiny->Commit(t1));
  ASSERT_OK(cluster_->CrashNode(owner_->id()));

  ASSERT_OK_AND_ASSIGN(TxnId t2, tiny->Begin());
  Status st = tiny->Insert(t2, b, "b").status();
  EXPECT_TRUE(st.IsNodeDown()) << st.ToString();
  ASSERT_OK(tiny->Abort(t2));
  EXPECT_TRUE(tiny->pool().Contains(a));
  EXPECT_TRUE(tiny->pool().IsDirty(a));
  EXPECT_TRUE(tiny->dpt().Contains(a));
  EXPECT_EQ(tiny->pool().evictions(), 0u);
  EXPECT_EQ(tiny->metrics().CounterValue("pages.shipped_on_replacement"), 0u);
}

TEST_F(ClusterTest, OwnerForcesNothingForAClientsLsn) {
  // A page image that comes home from a client carries no LSN of the
  // owner's log: its records are in the client's log, forced before the
  // image left. So handing the page on costs the owner no force, however
  // far the client's log has run past the owner's.
  ASSERT_OK_AND_ASSIGN(Node* reader, cluster_->AddNode());
  ASSERT_OK_AND_ASSIGN(PageId shared, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId own, client_->AllocatePage());
  // An open transaction leaves an unforced record in the owner's log.
  ASSERT_OK_AND_ASSIGN(TxnId open, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(TxnId busy, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId mine, client_->Insert(busy, own, "v"));
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(client_->Update(busy, mine, "v" + std::to_string(i)));
  }
  ASSERT_OK(client_->Commit(busy));
  ASSERT_OK_AND_ASSIGN(TxnId write, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(write, shared, "c"));
  ASSERT_OK(client_->Commit(write));
  ASSERT_GE(client_->pool().Peek(shared)->page_lsn(),
            owner_->log().flushed_lsn());

  // The read calls the client's X lock back; the dirty copy comes home
  // and the owner grants it on.
  const std::uint64_t forces = owner_->log().forces();
  ASSERT_OK_AND_ASSIGN(TxnId read, reader->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, reader->Read(read, rid));
  EXPECT_EQ(v, "c");
  EXPECT_GE(Msgs("callback"), 1u);
  EXPECT_EQ(owner_->log().forces(), forces);
  ASSERT_OK(reader->Commit(read));
  ASSERT_OK(owner_->Commit(open));
}

TEST_F(ClusterTest, LocalConflictReportsBlockers) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t0, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(t0, pid, "x"));
  // t0 still active: a second local writer must block.
  ASSERT_OK_AND_ASSIGN(TxnId t1, owner_->Begin());
  Status st = owner_->Update(t1, rid, "y");
  EXPECT_TRUE(st.IsBusy());
  EXPECT_EQ(owner_->LastBlockers(t1), std::vector<TxnId>{t0});
  ASSERT_OK(owner_->Commit(t0));
  ASSERT_OK(owner_->Update(t1, rid, "y"));
  ASSERT_OK(owner_->Commit(t1));
}

TEST_F(ClusterTest, RemoteConflictBlocksViaCallback) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId tc, client_->Begin());
  ASSERT_OK(client_->Insert(tc, pid, "c").status());
  // Owner wants the page while the client transaction is active: the
  // callback is refused and the request reports Busy with the blocker.
  ASSERT_OK_AND_ASSIGN(TxnId to, owner_->Begin());
  Status st = owner_->Insert(to, pid, "o").status();
  EXPECT_TRUE(st.IsBusy());
  EXPECT_EQ(owner_->LastBlockers(to), std::vector<TxnId>{tc});
  ASSERT_OK(client_->Commit(tc));
  // After commit the cached lock can be called back.
  ASSERT_OK(owner_->Insert(to, pid, "o").status());
  ASSERT_OK(owner_->Commit(to));
}

TEST_F(ClusterTest, RunTransactionRetriesBusy) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(RecordId rid, [&]() -> Result<RecordId> {
    Result<RecordId> out = Status::Busy("");
    Status st = cluster_->RunTransaction(owner_->id(), [&](TxnHandle& t) {
      out = t.Insert(pid, "seed");
      return out.status();
    });
    if (!st.ok()) return st;
    return out;
  }());
  ASSERT_OK(cluster_->RunTransaction(client_->id(), [&](TxnHandle& t) {
    return t.Update(rid, "client-was-here");
  }));
  std::string seen;
  ASSERT_OK(cluster_->RunTransaction(owner_->id(), [&](TxnHandle& t) {
    Result<std::string> v = t.Read(rid);
    if (!v.ok()) return v.status();
    seen = *v;
    return Status::OK();
  }));
  EXPECT_EQ(seen, "client-was-here");
}

TEST_F(ClusterTest, WorkloadDriverInterleavesAndCommits) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<PageId> pages,
      AllocatePopulatedPages(cluster_.get(), owner_->id(), 6, 8, 40, 1));
  WorkloadConfig config;
  config.txns_per_session = 10;
  config.ops_per_txn = 4;
  config.records_per_page = 8;
  config.payload_bytes = 40;
  WorkloadDriver driver(cluster_.get(), config,
                        {{owner_->id(), pages}, {client_->id(), pages}});
  ASSERT_OK(driver.Run());
  EXPECT_GT(driver.stats().committed, 0u);
  EXPECT_LE(driver.stats().committed, 20u);  // 2 sessions x 10 txns.
  EXPECT_GT(driver.stats().ops, 0u);
}

TEST_F(ClusterTest, CrashedOwnerRejectsRequests) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  Status st = client_->Insert(txn, pid, "x").status();
  EXPECT_TRUE(st.IsNodeDown());
  ASSERT_OK(client_->Abort(txn));
}

TEST_F(ClusterTest, EvictedRemoteCopyIsResealedBeforeItShips) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "shipped"));
  ASSERT_OK(client_->Commit(txn));
  BufferPool& pool = const_cast<BufferPool&>(client_->pool());
  ASSERT_TRUE(pool.IsDirty(pid));
  SpoilChecksum(pool.Lookup(pid));
  // HandlePageShip verifies the image, so the eviction fails unless the
  // client sealed its frame before shipping it.
  ASSERT_OK(pool.Evict(pid));
  ASSERT_OK(owner_->HandleFlushRequest(client_->id(), pid));
  ASSERT_OK_AND_ASSIGN(Psn disk_psn, owner_->DiskPsn(pid));  // Verified read.
  EXPECT_EQ(disk_psn, 1u);
  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string value, owner_->Read(check, rid));
  EXPECT_EQ(value, "shipped");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(ClusterTest, CallbackCopyIsResealedWhenTheOwnerWritesIt) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "client"));
  ASSERT_OK(client_->Commit(txn));
  BufferPool& pool = const_cast<BufferPool&>(client_->pool());
  ASSERT_TRUE(pool.IsDirty(pid));
  SpoilChecksum(pool.Lookup(pid));
  // The owner's update calls the client's X lock back; the dirty copy
  // comes home in the callback reply with the spoiled checksum field.
  ASSERT_OK_AND_ASSIGN(TxnId mine, owner_->Begin());
  ASSERT_OK(owner_->Update(mine, rid, "owner"));
  ASSERT_OK(owner_->Commit(mine));
  EXPECT_FALSE(client_->pool().Contains(pid));
  ASSERT_OK(owner_->HandleFlushRequest(client_->id(), pid));
  ASSERT_OK_AND_ASSIGN(Psn disk_psn, owner_->DiskPsn(pid));  // Verified read.
  EXPECT_EQ(disk_psn, 2u);
}

}  // namespace
}  // namespace clog
