#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "core/cluster.h"
#include "core/workload.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// Parameterized matrix: the same functional scenarios must hold in every
/// logging mode (the paper's protocol and both baselines) across buffer
/// sizes — correctness is mode-independent, only the cost profile moves.
struct ModeParam {
  LoggingMode mode;
  std::size_t buffer_frames;
};

std::string ParamName(const ::testing::TestParamInfo<ModeParam>& info) {
  std::string name(LoggingModeName(info.param.mode));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_f" + std::to_string(info.param.buffer_frames);
}

class ModeMatrixTest : public ::testing::TestWithParam<ModeParam> {
 protected:
  ModeMatrixTest() {
    ClusterOptions opts;
    opts.dir = dir_.path();
    opts.node_defaults.buffer_frames = GetParam().buffer_frames;
    opts.node_defaults.logging_mode = GetParam().mode;
    cluster_ = std::make_unique<Cluster>(opts);
    owner_ = *cluster_->AddNode();
    client_ = *cluster_->AddNode();
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* owner_ = nullptr;
  Node* client_ = nullptr;
};

TEST_P(ModeMatrixTest, CrudRoundTripAcrossNodes) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t1, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(t1, pid, "v1"));
  ASSERT_OK(client_->Commit(t1));

  ASSERT_OK_AND_ASSIGN(TxnId t2, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(t2, rid));
  EXPECT_EQ(v, "v1");
  ASSERT_OK(owner_->Update(t2, rid, "v2"));
  ASSERT_OK(owner_->Commit(t2));

  ASSERT_OK_AND_ASSIGN(TxnId t3, client_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v2, client_->Read(t3, rid));
  EXPECT_EQ(v2, "v2");
  ASSERT_OK(client_->Delete(t3, rid));
  ASSERT_OK(client_->Commit(t3));

  ASSERT_OK_AND_ASSIGN(TxnId t4, owner_->Begin());
  EXPECT_TRUE(owner_->Read(t4, rid).status().IsNotFound());
  ASSERT_OK(owner_->Commit(t4));
}

TEST_P(ModeMatrixTest, AbortIsAtomicInEveryMode) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId seed, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(seed, pid, "base"));
  ASSERT_OK(client_->Commit(seed));

  ASSERT_OK_AND_ASSIGN(TxnId doomed, client_->Begin());
  ASSERT_OK(client_->Update(doomed, rid, "poison"));
  ASSERT_OK(client_->Insert(doomed, pid, "phantom").status());
  ASSERT_OK(client_->Abort(doomed));

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(auto records, owner_->ScanPage(check, pid));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "base");
  ASSERT_OK(owner_->Commit(check));
}

TEST_P(ModeMatrixTest, CachePressureWorkloadStaysCorrect) {
  // Working set exceeds the buffer in the small-frame variants: pages
  // travel constantly; every protocol must still agree with a sequential
  // shadow model at the end.
  ASSERT_OK_AND_ASSIGN(
      auto pages,
      AllocatePopulatedPages(cluster_.get(), owner_->id(), 12, 4, 40, 3));
  Random rng(11);
  std::map<RecordId, std::string> model;
  for (int round = 0; round < 40; ++round) {
    Node* actor = (round % 2 == 0) ? owner_ : client_;
    RecordId rid{pages[rng.Uniform(pages.size())],
                 static_cast<SlotId>(rng.Uniform(4))};
    std::string v = rng.Bytes(40);
    Status st = cluster_->RunTransaction(
        actor->id(), [&](TxnHandle& t) { return t.Update(rid, v); });
    ASSERT_OK(st);
    model[rid] = v;
  }
  ASSERT_OK_AND_ASSIGN(TxnId check, client_->Begin());
  for (const auto& [rid, expect] : model) {
    ASSERT_OK_AND_ASSIGN(std::string got, client_->Read(check, rid));
    EXPECT_EQ(got, expect) << rid.ToString();
  }
  ASSERT_OK(client_->Commit(check));
}

TEST_P(ModeMatrixTest, OwnerSideDurabilityAfterOwnerCrash) {
  // Data committed at the OWNER survives an owner crash in every mode
  // (owner-local transactions always have a local durable story).
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(txn, pid, "durable"));
  ASSERT_OK(owner_->Commit(txn));

  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "durable");
  ASSERT_OK(owner_->Commit(check));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ModeMatrixTest,
    ::testing::Values(ModeParam{LoggingMode::kClientLocal, 64},
                      ModeParam{LoggingMode::kClientLocal, 6},
                      ModeParam{LoggingMode::kShipToOwner, 64},
                      ModeParam{LoggingMode::kShipToOwner, 6},
                      ModeParam{LoggingMode::kForceAtTransfer, 64},
                      ModeParam{LoggingMode::kForceAtTransfer, 6}),
    ParamName);

/// Client-crash durability matrix: only protocols with a durable commit
/// story at the client (local log) or at the owner (shipped records,
/// forced pages) may pass — which is all three, for different reasons.
class ClientCrashMatrixTest : public ModeMatrixTest {};

TEST_P(ClientCrashMatrixTest, ClientCommitSurvivesClientCrash) {
  if (GetParam().mode == LoggingMode::kShipToOwner) {
    // B1 client restart is server-driven in ARIES/CSA; this repository
    // implements B1 for normal-processing benchmarks only (DESIGN.md).
    GTEST_SKIP() << "B1 client crash recovery is out of scope";
  }
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "mine"));
  ASSERT_OK(client_->Commit(txn));

  ASSERT_OK(cluster_->CrashNode(client_->id()));
  ASSERT_OK(cluster_->RestartNode(client_->id()));
  ASSERT_OK_AND_ASSIGN(TxnId check, client_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, client_->Read(check, rid));
  EXPECT_EQ(v, "mine");
  ASSERT_OK(client_->Commit(check));
}

TEST_P(ModeMatrixTest, ShortCrashFuzzPerMode) {
  // A compressed version of the crash fuzzer for every mode (B1 skips
  // client crashes, which its scope excludes): committed state survives.
  Random rng(0xC0FFEE ^ GetParam().buffer_frames);
  bool can_crash_client = GetParam().mode != LoggingMode::kShipToOwner;
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  std::map<RecordId, std::string> model;
  std::vector<RecordId> rids;
  {
    ASSERT_OK_AND_ASSIGN(TxnId seed, owner_->Begin());
    for (int i = 0; i < 6; ++i) {
      std::string v = rng.Bytes(24);
      ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(seed, pid, v));
      rids.push_back(rid);
      model[rid] = v;
    }
    ASSERT_OK(owner_->Commit(seed));
  }
  Node* nodes[2] = {owner_, client_};
  for (int step = 0; step < 25; ++step) {
    Node* actor = nodes[rng.Uniform(2)];
    if (actor->state() != NodeState::kUp) {
      ASSERT_OK(cluster_->RestartNode(actor->id()));
      continue;
    }
    std::uint64_t dice = rng.Uniform(100);
    if (dice < 10 && (actor == owner_ || can_crash_client)) {
      ASSERT_OK(cluster_->CrashNode(actor->id()));
      ASSERT_OK(cluster_->RestartNode(actor->id()));
      continue;
    }
    Result<TxnId> txn = actor->Begin();
    if (!txn.ok()) continue;
    RecordId rid = rids[rng.Uniform(rids.size())];
    std::string v = rng.Bytes(24);
    Status st = actor->Update(*txn, rid, v);
    if (st.ok() && rng.Bernoulli(0.8)) {
      if (actor->Commit(*txn).ok()) model[rid] = v;
    } else {
      actor->Abort(*txn).ok();
    }
  }
  for (Node* n : nodes) {
    if (n->state() != NodeState::kUp) {
      ASSERT_OK(cluster_->RestartNode(n->id()));
    }
  }
  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  for (const auto& [rid, expect] : model) {
    ASSERT_OK_AND_ASSIGN(std::string got, owner_->Read(check, rid));
    EXPECT_EQ(got, expect) << rid.ToString();
  }
  ASSERT_OK(owner_->Commit(check));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ClientCrashMatrixTest,
    ::testing::Values(ModeParam{LoggingMode::kClientLocal, 64},
                      ModeParam{LoggingMode::kShipToOwner, 64},
                      ModeParam{LoggingMode::kForceAtTransfer, 64}),
    ParamName);

/// Every log force goes through Node::ForceLog, which charges it to the
/// simulated clock and counts it in `log.forces`, so in every mode that
/// counter equals the log's own count of fdatasyncs. Each commit touches
/// an own page and a remote one: B2 forces the log before it forces and
/// ships those pages, and B1 logs the own page's records locally.
class ForceChargeMatrixTest : public ModeMatrixTest {};

TEST_P(ForceChargeMatrixTest, EveryLogForceIsCharged) {
  ASSERT_OK_AND_ASSIGN(PageId own, client_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId remote, owner_->AllocatePage());
  for (int i = 0; i < 5; ++i) {
    const std::string v = "v" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
    ASSERT_OK(client_->Insert(txn, own, v).status());
    ASSERT_OK(client_->Insert(txn, remote, v).status());
    ASSERT_OK(client_->Commit(txn));
  }
  EXPECT_GE(client_->log().forces(), 5u);
  for (Node* n : {owner_, client_}) {
    EXPECT_EQ(n->metrics().CounterValue("log.forces"), n->log().forces())
        << "node " << n->id();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ForceChargeMatrixTest,
    ::testing::Values(ModeParam{LoggingMode::kClientLocal, 64},
                      ModeParam{LoggingMode::kShipToOwner, 64},
                      ModeParam{LoggingMode::kForceAtTransfer, 64}),
    ParamName);

}  // namespace
}  // namespace clog
