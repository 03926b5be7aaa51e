#include <gtest/gtest.h>

#include "core/cluster.h"
#include "net/message.h"
#include "net/network.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// Minimal NodeService that counts calls; isolates Network mechanics from
/// the real node engine.
class StubService : public NodeService {
 public:
  Status HandleLockPage(NodeId, PageId, LockMode, bool want_page,
                        const Page*, LockPageReply* reply) override {
    ++lock_calls;
    reply->granted = true;
    if (want_page) {
      reply->page = std::make_shared<Page>();
      reply->page->Format(PageId{0, 0}, PageType::kData, 0);
      reply->page->SealChecksum();
    }
    return Status::OK();
  }
  Status HandleCallback(NodeId, PageId, LockMode, CallbackReply* r) override {
    r->complied = true;
    return Status::OK();
  }
  Status HandleUnlockNotice(NodeId, PageId) override { return Status::OK(); }
  Status HandlePageShip(NodeId, const Page&) override {
    ++ships;
    return Status::OK();
  }
  Status HandleFlushRequest(NodeId, PageId) override { return Status::OK(); }
  void HandleFlushNotify(NodeId, PageId, Psn) override { ++notifies; }
  Status HandleLogShip(NodeId, const std::vector<LogRecord>& recs,
                       bool) override {
    shipped_records += recs.size();
    return Status::OK();
  }
  Status HandleRecoveryQuery(NodeId, RecoveryQueryReply*) override {
    return Status::OK();
  }
  Status HandleFetchCachedPage(NodeId, PageId,
                               std::shared_ptr<Page>* page) override {
    page->reset();
    return Status::NotFound("");
  }
  Status HandleBuildPsnList(NodeId, const std::vector<PageId>& pages, bool,
                            PsnListReply* reply) override {
    reply->per_page.resize(pages.size());
    return Status::OK();
  }
  Status HandleRecoverPage(NodeId, PageId, const Page&, bool, Psn,
                           RecoverPageReply*) override {
    return Status::OK();
  }
  void HandleNodeRecovered(NodeId) override {}
  Status HandleLogLossNotice(NodeId,
                             const std::vector<PageId>& pages) override {
    log_loss_pages += static_cast<int>(pages.size());
    return Status::OK();
  }

  int lock_calls = 0;
  int log_loss_pages = 0;
  int ships = 0;
  int notifies = 0;
  std::size_t shipped_records = 0;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&clock_, CostModel{}) {
    net_.RegisterNode(1, &a_);
    net_.RegisterNode(2, &b_);
  }
  SimClock clock_;
  Network net_;
  StubService a_, b_;
};

TEST_F(NetworkTest, RoutesToRegisteredNode) {
  LockPageReply reply;
  ASSERT_OK(net_.LockPage(1, 2, PageId{2, 0}, LockMode::kShared, false,
                          &reply));
  EXPECT_EQ(b_.lock_calls, 1);
  EXPECT_EQ(a_.lock_calls, 0);
  EXPECT_TRUE(reply.granted);
}

TEST_F(NetworkTest, UnknownNodeIsNotFound) {
  LockPageReply reply;
  EXPECT_TRUE(net_.LockPage(1, 9, PageId{9, 0}, LockMode::kShared, false,
                            &reply)
                  .IsNotFound());
}

TEST_F(NetworkTest, DownNodeIsNodeDown) {
  net_.SetNodeUp(2, false);
  LockPageReply reply;
  EXPECT_TRUE(net_.LockPage(1, 2, PageId{2, 0}, LockMode::kShared, false,
                            &reply)
                  .IsNodeDown());
  EXPECT_EQ(b_.lock_calls, 0);
  net_.SetNodeUp(2, true);
  ASSERT_OK(net_.LockPage(1, 2, PageId{2, 0}, LockMode::kShared, false,
                          &reply));
  EXPECT_EQ(b_.lock_calls, 1);
}

TEST_F(NetworkTest, CountsMessagesPerTypeAndTotal) {
  LockPageReply reply;
  ASSERT_OK(net_.LockPage(1, 2, PageId{2, 0}, LockMode::kShared, true,
                          &reply));
  // Request + reply are two wire messages.
  EXPECT_EQ(net_.metrics().CounterValue("msg.lock_page_request"), 1u);
  EXPECT_EQ(net_.metrics().CounterValue("msg.lock_page_reply"), 1u);
  EXPECT_EQ(net_.metrics().CounterValue("msg.total"), 2u);
  // Page transfer counts page-sized bytes.
  EXPECT_GE(net_.metrics().CounterValue("bytes.total"), kPageSize);
}

TEST_F(NetworkTest, ChargesSimulatedTime) {
  std::uint64_t before = clock_.NowNanos();
  Page page;
  page.Format(PageId{2, 1}, PageType::kData, 0);
  page.SealChecksum();
  ASSERT_OK(net_.PageShip(1, 2, page));
  // One message with a page payload: at least the fixed hop cost plus the
  // per-byte cost of a page.
  CostModel cost;
  EXPECT_GE(clock_.NowNanos() - before,
            cost.network_msg_ns + kPageSize * cost.network_byte_ns);
}

TEST_F(NetworkTest, BusyTimeAccruesOnBothEndpoints) {
  LockPageReply reply;
  ASSERT_OK(net_.LockPage(1, 2, PageId{2, 0}, LockMode::kShared, false,
                          &reply));
  EXPECT_GT(net_.BusyNanos(1), 0u);
  EXPECT_GT(net_.BusyNanos(2), 0u);
  EXPECT_EQ(net_.MaxBusyNanos(),
            std::max(net_.BusyNanos(1), net_.BusyNanos(2)));
  net_.ResetBusy();
  EXPECT_EQ(net_.MaxBusyNanos(), 0u);
}

TEST_F(NetworkTest, OperationalNodesExcludesDownAndSelf) {
  EXPECT_EQ(net_.AllNodes().size(), 2u);
  EXPECT_EQ(net_.OperationalNodes().size(), 2u);
  EXPECT_EQ(net_.OperationalNodes(1).size(), 1u);
  net_.SetNodeUp(2, false);
  EXPECT_EQ(net_.OperationalNodes().size(), 1u);
  EXPECT_TRUE(net_.OperationalNodes(1).empty());
}

TEST_F(NetworkTest, LogShipBytesScaleWithRecords) {
  std::vector<LogRecord> few(1), many(10);
  for (auto* batch : {&few, &many}) {
    for (LogRecord& rec : *batch) {
      rec.type = LogRecordType::kUpdate;
      rec.redo_image = std::string(100, 'r');
    }
  }
  ASSERT_OK(net_.LogShip(1, 2, few, false));
  std::uint64_t after_few = net_.metrics().CounterValue("bytes.total");
  ASSERT_OK(net_.LogShip(1, 2, many, false));
  std::uint64_t after_many = net_.metrics().CounterValue("bytes.total");
  EXPECT_GT(after_many - after_few, (after_few)*5);
  EXPECT_EQ(b_.shipped_records, 11u);
}

TEST_F(NetworkTest, CrashedNodeIsNodeDownForEveryMsgType) {
  net_.SetNodeUp(2, false);
  std::uint64_t msgs_before = net_.metrics().CounterValue("msg.total");
  std::uint64_t bytes_before = net_.metrics().CounterValue("bytes.total");

  Page page;
  page.Format(PageId{2, 1}, PageType::kData, 0);
  page.SealChecksum();
  std::vector<LogRecord> recs(1);
  recs[0].type = LogRecordType::kUpdate;
  LockPageReply lock_reply;
  CallbackReply cb_reply;
  RecoveryQueryReply rq_reply;
  PsnListReply psn_reply;
  RecoverPageReply rec_reply;
  std::shared_ptr<Page> fetched;

  EXPECT_TRUE(net_.LockPage(1, 2, PageId{2, 0}, LockMode::kShared, true,
                            &lock_reply)
                  .IsNodeDown());
  EXPECT_TRUE(net_.Callback(1, 2, PageId{2, 0}, LockMode::kNone, &cb_reply)
                  .IsNodeDown());
  EXPECT_TRUE(net_.UnlockNotice(1, 2, PageId{2, 0}).IsNodeDown());
  EXPECT_TRUE(net_.PageShip(1, 2, page).IsNodeDown());
  EXPECT_TRUE(net_.FlushRequest(1, 2, PageId{2, 0}).IsNodeDown());
  EXPECT_TRUE(net_.FlushNotify(1, 2, PageId{2, 0}, 1).IsNodeDown());
  EXPECT_TRUE(net_.LogShip(1, 2, recs, true).IsNodeDown());
  EXPECT_TRUE(net_.RecoveryQuery(1, 2, &rq_reply).IsNodeDown());
  EXPECT_TRUE(net_.FetchCachedPage(1, 2, PageId{2, 0}, &fetched)
                  .IsNodeDown());
  EXPECT_TRUE(net_.BuildPsnList(1, 2, {PageId{2, 0}}, false, &psn_reply)
                  .IsNodeDown());
  EXPECT_TRUE(net_.RecoverPage(1, 2, PageId{2, 0}, page, false, 0, &rec_reply)
                  .IsNodeDown());
  EXPECT_TRUE(net_.NodeRecovered(1, 2, 1).IsNodeDown());

  // No handler ever ran, and refused requests are not charged to the wire.
  EXPECT_EQ(b_.lock_calls, 0);
  EXPECT_EQ(b_.ships, 0);
  EXPECT_EQ(b_.notifies, 0);
  EXPECT_EQ(b_.shipped_records, 0u);
  EXPECT_EQ(net_.metrics().CounterValue("msg.total"), msgs_before);
  EXPECT_EQ(net_.metrics().CounterValue("bytes.total"), bytes_before);
}

TEST_F(NetworkTest, ReRegistrationResetsProcessAccountingKeepsWireCounters) {
  LockPageReply reply;
  ASSERT_OK(net_.LockPage(1, 2, PageId{2, 0}, LockMode::kShared, false,
                          &reply));
  std::uint64_t requests = net_.metrics().CounterValue("msg.lock_page_request");
  std::uint64_t bytes = net_.metrics().CounterValue("bytes.total");
  EXPECT_GT(net_.BusyNanos(2), 0u);

  // Crash and restart: the node comes back by re-registering its endpoint.
  net_.SetNodeUp(2, false);
  EXPECT_TRUE(net_.LockPage(1, 2, PageId{2, 0}, LockMode::kShared, false,
                            &reply)
                  .IsNodeDown());
  net_.RegisterNode(2, &b_);
  EXPECT_TRUE(net_.IsUp(2));

  // The restarted process starts with fresh busy-time accounting, while
  // cluster-lifetime per-type message/byte counters are neither cleared
  // nor double-counted: the refused call added nothing, and traffic
  // resumes exactly where it left off.
  EXPECT_EQ(net_.BusyNanos(2), 0u);
  EXPECT_EQ(net_.metrics().CounterValue("msg.lock_page_request"), requests);
  EXPECT_EQ(net_.metrics().CounterValue("bytes.total"), bytes);
  ASSERT_OK(net_.LockPage(1, 2, PageId{2, 0}, LockMode::kShared, false,
                          &reply));
  EXPECT_EQ(net_.metrics().CounterValue("msg.lock_page_request"),
            requests + 1);
  EXPECT_GT(net_.metrics().CounterValue("bytes.total"), bytes);
  EXPECT_GT(net_.BusyNanos(2), 0u);
}

TEST(MsgTypeTest, AllNamesDistinct) {
  std::set<std::string_view> names;
  for (int t = 0; t <= static_cast<int>(MsgType::kNodeRecovered); ++t) {
    names.insert(MsgTypeName(static_cast<MsgType>(t)));
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(MsgType::kNodeRecovered) + 1);
  EXPECT_FALSE(names.contains("unknown"));
}

}  // namespace
}  // namespace clog
