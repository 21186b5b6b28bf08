#include <gtest/gtest.h>

#include "src/core/transform.h"
#include "src/mpc/party.h"
#include "src/oblivious/cache_ops.h"
#include "src/relational/encode.h"
#include "src/storage/sharded_cache.h"

namespace incshrink {
namespace {

/// The engine's cache layout with a single shard (the K = 1 deployment).
ShardedSecureCache UnshardedCache(Protocol2PC* proto) {
  return ShardedSecureCache(proto, 1, /*eps_total=*/1.0,
                            /*sensitivity_b=*/1.0, /*engine_seed=*/0,
                            CostModel::Free());
}

IncShrinkConfig SmallConfig() {
  IncShrinkConfig cfg;
  cfg.eps = 1.5;
  cfg.omega = 1;
  cfg.budget_b = 4;  // eligible 3 steps back
  cfg.join = JoinSpec{0, 10, true, 1, true, true};
  cfg.window_steps = 10;
  cfg.upload_rows_t1 = 3;
  cfg.upload_rows_t2 = 3;
  return cfg;
}

class TransformTest : public ::testing::Test {
 protected:
  TransformTest()
      : s0_(0, 1), s1_(1, 2), proto_(&s0_, &s1_, CostModel::EmpLikeLan()),
        rng_(3) {}

  /// Uploads a fixed-size padded batch of the given records.
  void UploadBatch(OutsourcedTable* store,
                   const std::vector<LogicalRecord>& recs,
                   uint32_t batch_rows) {
    SharedRows batch(kSrcWidth);
    for (const auto& r : recs)
      batch.AppendSecretRow(EncodeSourceRow(r), &rng_);
    while (batch.size() < batch_rows)
      batch.AppendSecretRow(MakeDummySourceRow(&rng_), &rng_);
    store->AppendBatch(std::move(batch));
  }

  Party s0_;
  Party s1_;
  Protocol2PC proto_;
  Rng rng_;
};

LogicalRecord Rec(uint64_t step, Word rid, Word key, Word date) {
  return LogicalRecord{step, rid, key, date, 0};
}

TEST_F(TransformTest, EligibleStepsFormula) {
  IncShrinkConfig cfg = SmallConfig();
  EXPECT_EQ(TransformProtocol::EligibleSteps(cfg), 3u);  // min(10, 4/1-1)
  cfg.budget_b = 20;
  cfg.omega = 10;
  cfg.window_steps = 2;
  EXPECT_EQ(TransformProtocol::EligibleSteps(cfg), 1u);  // min(2, 2-1)
  cfg.window_steps = 0;
  EXPECT_EQ(TransformProtocol::EligibleSteps(cfg), 0u);
}

TEST_F(TransformTest, PublicCacheAppendRowsFormula) {
  IncShrinkConfig cfg = SmallConfig();
  // Both private, sort-merge: omega * (C1 + C2) regardless of t.
  EXPECT_EQ(TransformProtocol::PublicCacheAppendRows(cfg, 1), 6u);
  EXPECT_EQ(TransformProtocol::PublicCacheAppendRows(cfg, 50), 6u);
  // Public T2: omega * C1 * (1 + wlen).
  cfg.t2_is_public = true;
  EXPECT_EQ(TransformProtocol::PublicCacheAppendRows(cfg, 1), 3u);
  EXPECT_EQ(TransformProtocol::PublicCacheAppendRows(cfg, 2), 6u);
  EXPECT_EQ(TransformProtocol::PublicCacheAppendRows(cfg, 10), 12u);
  // Nested loop: same T1-side bound.
  cfg.t2_is_public = false;
  cfg.op = TransformOperator::kNestedLoopJoin;
  EXPECT_EQ(TransformProtocol::PublicCacheAppendRows(cfg, 10), 12u);
}

TEST_F(TransformTest, SingleStepJoinCachesRealEntries) {
  IncShrinkConfig cfg = SmallConfig();
  PrivacyAccountant acc(cfg.eps, cfg.budget_b, cfg.omega);
  TransformProtocol transform(&proto_, cfg, &acc);
  OutsourcedTable store1(kSrcWidth), store2(kSrcWidth);
  ShardedSecureCache cache = UnshardedCache(&proto_);

  UploadBatch(&store1, {Rec(1, 1, 100, 5), Rec(1, 2, 200, 5)}, 3);
  UploadBatch(&store2, {Rec(1, 3, 100, 7)}, 3);

  auto result = transform.Step(1, store1, store2, &cache);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->real_entries, 1u);
  EXPECT_EQ(result->appended_rows,
            TransformProtocol::PublicCacheAppendRows(cfg, 1));
  EXPECT_EQ(cache.size(), result->appended_rows);
  EXPECT_EQ(cache.shard(0).RecoverCounterInside(&proto_), 1u);
  EXPECT_EQ(CountRealInside(&proto_, *cache.shard(0).rows()), 1u);
  EXPECT_GT(result->simulated_seconds, 0.0);
}

TEST_F(TransformTest, CrossStepPairsAreFoundOnce) {
  IncShrinkConfig cfg = SmallConfig();
  PrivacyAccountant acc(cfg.eps, cfg.budget_b, cfg.omega);
  TransformProtocol transform(&proto_, cfg, &acc);
  OutsourcedTable store1(kSrcWidth), store2(kSrcWidth);
  ShardedSecureCache cache = UnshardedCache(&proto_);

  // Step 1: sale (key 100). Step 2: its return.
  UploadBatch(&store1, {Rec(1, 1, 100, 1)}, 3);
  UploadBatch(&store2, {}, 3);
  auto r1 = transform.Step(1, store1, store2, &cache);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->real_entries, 0u);

  UploadBatch(&store1, {}, 3);
  UploadBatch(&store2, {Rec(2, 2, 100, 3)}, 3);
  auto r2 = transform.Step(2, store1, store2, &cache);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->real_entries, 1u);  // old1 x new2 pair found exactly once
  EXPECT_EQ(cache.shard(0).RecoverCounterInside(&proto_), 1u);

  // Step 3: nothing new; the old pair must NOT be regenerated.
  UploadBatch(&store1, {}, 3);
  UploadBatch(&store2, {}, 3);
  auto r3 = transform.Step(3, store1, store2, &cache);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->real_entries, 0u);
  EXPECT_EQ(cache.shard(0).RecoverCounterInside(&proto_), 1u);
}

TEST_F(TransformTest, RetiredRecordsStopJoining) {
  // budget 4, omega 1 -> eligible 3 steps after upload; a partner arriving
  // later than that is dropped (bounded privacy loss at work).
  IncShrinkConfig cfg = SmallConfig();
  PrivacyAccountant acc(cfg.eps, cfg.budget_b, cfg.omega);
  TransformProtocol transform(&proto_, cfg, &acc);
  OutsourcedTable store1(kSrcWidth), store2(kSrcWidth);
  ShardedSecureCache cache = UnshardedCache(&proto_);

  UploadBatch(&store1, {Rec(1, 1, 100, 1)}, 3);
  UploadBatch(&store2, {}, 3);
  ASSERT_TRUE(transform.Step(1, store1, store2, &cache).ok());
  for (uint64_t t = 2; t <= 4; ++t) {
    UploadBatch(&store1, {}, 3);
    UploadBatch(&store2, {}, 3);
    ASSERT_TRUE(transform.Step(t, store1, store2, &cache).ok());
  }
  // Step 5: matching return arrives, but the sale retired after step 4.
  UploadBatch(&store1, {}, 3);
  UploadBatch(&store2, {Rec(5, 2, 100, 2)}, 3);
  auto r5 = transform.Step(5, store1, store2, &cache);
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5->real_entries, 0u);
}

TEST_F(TransformTest, BudgetLedgerNeverExceedsB) {
  IncShrinkConfig cfg = SmallConfig();
  PrivacyAccountant acc(cfg.eps, cfg.budget_b, cfg.omega);
  TransformProtocol transform(&proto_, cfg, &acc);
  OutsourcedTable store1(kSrcWidth), store2(kSrcWidth);
  ShardedSecureCache cache = UnshardedCache(&proto_);

  UploadBatch(&store1, {Rec(1, 1, 100, 1)}, 3);
  UploadBatch(&store2, {}, 3);
  ASSERT_TRUE(transform.Step(1, store1, store2, &cache).ok());
  EXPECT_EQ(acc.RemainingBudget(1), cfg.budget_b - cfg.omega);
  for (uint64_t t = 2; t <= 8; ++t) {
    UploadBatch(&store1, {}, 3);
    UploadBatch(&store2, {}, 3);
    ASSERT_TRUE(transform.Step(t, store1, store2, &cache).ok())
        << "step " << t;
  }
  // Participations: steps 1..4 (then retired). Budget exactly exhausted.
  EXPECT_EQ(acc.RemainingBudget(1), 0u);
}

TEST_F(TransformTest, PublicT2PathCapsOnlyPrivateSide) {
  IncShrinkConfig cfg = SmallConfig();
  cfg.t2_is_public = true;
  cfg.omega = 2;
  cfg.join.omega = 2;
  cfg.budget_b = 4;
  PrivacyAccountant acc(cfg.eps, cfg.budget_b, cfg.omega);
  TransformProtocol transform(&proto_, cfg, &acc);
  OutsourcedTable store1(kSrcWidth), store2(kSrcWidth);
  ShardedSecureCache cache = UnshardedCache(&proto_);

  // One public T2 row matching three private T1 rows: with cap_t2 lifted the
  // public row can serve several private partners (up to omega slots per
  // access); with omega = 2 two pairs survive.
  UploadBatch(&store1, {Rec(1, 1, 9, 5), Rec(1, 2, 9, 5), Rec(1, 3, 9, 5)},
              3);
  SharedRows pub(kSrcWidth);
  pub.AppendSecretRow(EncodeSourceRow(Rec(1, 50, 9, 6)), &rng_);
  store2.AppendBatch(std::move(pub));

  auto r = transform.Step(1, store1, store2, &cache);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->real_entries, 2u);
  // Public rows are not charged against any budget.
  EXPECT_EQ(acc.RemainingBudget(50), cfg.budget_b);
  EXPECT_EQ(acc.RemainingBudget(1), cfg.budget_b - cfg.omega);
}

TEST_F(TransformTest, NestedLoopOperatorProducesSameCounts) {
  for (auto op : {TransformOperator::kSortMergeJoin,
                  TransformOperator::kNestedLoopJoin}) {
    IncShrinkConfig cfg = SmallConfig();
    cfg.op = op;
    Party s0(0, 10), s1(1, 20);
    Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
    PrivacyAccountant acc(cfg.eps, cfg.budget_b, cfg.omega);
    TransformProtocol transform(&proto, cfg, &acc);
    OutsourcedTable store1(kSrcWidth), store2(kSrcWidth);
    ShardedSecureCache cache = UnshardedCache(&proto);

    Rng rng(30);
    SharedRows b1(kSrcWidth), b2(kSrcWidth);
    b1.AppendSecretRow(EncodeSourceRow(Rec(1, 1, 100, 5)), &rng);
    b1.AppendSecretRow(EncodeSourceRow(Rec(1, 2, 200, 5)), &rng);
    b1.AppendSecretRow(MakeDummySourceRow(&rng), &rng);
    b2.AppendSecretRow(EncodeSourceRow(Rec(1, 3, 100, 7)), &rng);
    b2.AppendSecretRow(EncodeSourceRow(Rec(1, 4, 200, 30)), &rng);  // no win
    b2.AppendSecretRow(MakeDummySourceRow(&rng), &rng);
    store1.AppendBatch(std::move(b1));
    store2.AppendBatch(std::move(b2));

    auto r = transform.Step(1, store1, store2, &cache);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->real_entries, 1u) << "operator " << static_cast<int>(op);
    EXPECT_EQ(r->appended_rows,
              TransformProtocol::PublicCacheAppendRows(cfg, 1));
  }
}

TEST_F(TransformTest, CacheAppendSizeIsDeterministicAcrossData) {
  // Two different data streams with identical public sizes must append the
  // same number of rows at every step.
  std::vector<std::vector<uint64_t>> appended(2);
  for (int variant = 0; variant < 2; ++variant) {
    IncShrinkConfig cfg = SmallConfig();
    Party s0(0, 40), s1(1, 41);
    Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
    PrivacyAccountant acc(cfg.eps, cfg.budget_b, cfg.omega);
    TransformProtocol transform(&proto, cfg, &acc);
    OutsourcedTable store1(kSrcWidth), store2(kSrcWidth);
    ShardedSecureCache cache = UnshardedCache(&proto);
    Rng rng(50 + variant);
    Word rid = 1;
    for (uint64_t t = 1; t <= 6; ++t) {
      SharedRows b1(kSrcWidth), b2(kSrcWidth);
      // Variant 0 generates matching keys, variant 1 disjoint keys.
      for (int i = 0; i < 3; ++i) {
        const Word key = variant == 0 ? 7 : 1000 + rid;
        b1.AppendSecretRow(
            EncodeSourceRow(Rec(t, rid++, key, static_cast<Word>(t))), &rng);
        b2.AppendSecretRow(
            EncodeSourceRow(Rec(t, rid++, key, static_cast<Word>(t + 1))),
            &rng);
      }
      store1.AppendBatch(std::move(b1));
      store2.AppendBatch(std::move(b2));
      auto r = transform.Step(t, store1, store2, &cache);
      ASSERT_TRUE(r.ok());
      appended[variant].push_back(r->appended_rows);
    }
  }
  EXPECT_EQ(appended[0], appended[1]);
}

}  // namespace
}  // namespace incshrink
