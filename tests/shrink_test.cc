#include <gtest/gtest.h>

#include <tuple>

#include "src/common/stats.h"
#include "src/core/shrink.h"
#include "src/mpc/party.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/sort.h"

namespace incshrink {
namespace {

IncShrinkConfig TimerConfig() {
  IncShrinkConfig cfg;
  cfg.eps = 1.5;
  cfg.omega = 1;
  cfg.budget_b = 10;
  cfg.join = JoinSpec{0, 10, true, 1, true, true};
  cfg.strategy = Strategy::kDpTimer;
  cfg.timer_T = 5;
  cfg.flush_interval = 0;
  return cfg;
}

/// The engine's flush phase on a single cache: the public schedule check,
/// the flush sort, then CommitFlush.
ShrinkResult FlushIfDue(Protocol2PC* proto, const IncShrinkConfig& cfg,
                        uint64_t t, SecureCache* cache,
                        MaterializedView* view) {
  if (!FlushDue(cfg, t)) return ShrinkResult{};
  const CircuitStats before = proto->Snapshot();
  ObliviousSort(proto, cache->rows(), kViewSortKeyCol, /*ascending=*/false);
  return CommitFlush(proto, cfg, cache, view, before);
}

class ShrinkTest : public ::testing::Test {
 protected:
  ShrinkTest()
      : s0_(0, 1), s1_(1, 2), proto_(&s0_, &s1_, CostModel::EmpLikeLan()),
        cache_(&proto_), rng_(3) {}

  /// Fills the cache with `real` real entries and `dummies` dummy rows and
  /// sets the counter to `real`.
  void FillCache(uint32_t real, uint32_t dummies) {
    for (uint32_t i = 0; i < real; ++i) {
      std::vector<Word> row(kViewWidth);
      row[kViewIsViewCol] = 1;
      row[kViewSortKeyCol] = MakeCacheSortKey(true, (*cache_.seq())++);
      row[kViewKeyCol] = i;
      cache_.rows()->AppendSecretRow(row, &rng_);
    }
    for (uint32_t i = 0; i < dummies; ++i) {
      AppendDummyViewRow(cache_.rows(), &rng_, cache_.seq());
    }
    cache_.AddToCounter(&proto_, real);
  }

  Party s0_;
  Party s1_;
  Protocol2PC proto_;
  SecureCache cache_;
  MaterializedView view_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// Fixed-point threshold encoding
// ---------------------------------------------------------------------------

TEST(ThresholdEncodingTest, RoundTripsTypicalRange) {
  for (double x : {-5000.0, -30.5, 0.0, 12.25, 30.0, 100000.0}) {
    EXPECT_NEAR(DecodeThresholdFixedPoint(EncodeThresholdFixedPoint(x)), x,
                1e-3);
  }
}

TEST(ThresholdEncodingTest, SaturatesOutOfRange) {
  EXPECT_EQ(EncodeThresholdFixedPoint(-2e6), 0u);
  EXPECT_EQ(EncodeThresholdFixedPoint(1e10), 0xFFFFFFFFu);
}

// ---------------------------------------------------------------------------
// sDPTimer
// ---------------------------------------------------------------------------

TEST_F(ShrinkTest, TimerFiresOnlyOnMultiplesOfT) {
  Shrink timer(&proto_, TimerConfig());
  FillCache(3, 10);
  for (uint64_t t = 1; t <= 20; ++t) {
    const ShrinkResult r = timer.Step(t, &cache_, &view_);
    EXPECT_EQ(r.fired, t % 5 == 0) << t;
  }
}

TEST_F(ShrinkTest, TimerMovesRealEntriesFirstAndResetsCounter) {
  IncShrinkConfig cfg = TimerConfig();
  cfg.eps = 50;  // tiny noise so sz ~ c
  Shrink timer(&proto_, cfg);
  FillCache(4, 20);
  const ShrinkResult r = timer.Step(5, &cache_, &view_);
  ASSERT_TRUE(r.fired);
  EXPECT_EQ(cache_.RecoverCounterInside(&proto_), 0u);
  // With eps = 50 the noise is < 1 w.h.p., so ~4 rows move; all real rows
  // come before any dummy in the fetched prefix.
  EXPECT_NEAR(static_cast<double>(r.sync_rows), 4.0, 2.0);
  EXPECT_EQ(view_.size(), r.sync_rows);
  const uint32_t real_in_view = CountRealInside(&proto_, view_.rows());
  const uint32_t real_in_cache = CountRealInside(&proto_, *cache_.rows());
  EXPECT_EQ(real_in_view + real_in_cache, 4u);
  EXPECT_GE(real_in_view, 3u);
}

TEST_F(ShrinkTest, TimerReleaseSizesCenterOnTrueCardinality) {
  IncShrinkConfig cfg = TimerConfig();
  cfg.timer_T = 1;
  Shrink timer(&proto_, cfg);
  RunningStat sizes;
  for (int i = 0; i < 3000; ++i) {
    FillCache(10, 30);
    const ShrinkResult r = timer.Step(1, &cache_, &view_);
    sizes.Add(static_cast<double>(r.released_size));
    cache_.rows()->Clear();
    cache_.ResetCounter(&proto_);
  }
  // E[max(0, 10 + Lap(b/eps))] is slightly above 10 because of the clamp at
  // zero; with b/eps = 6.67 the skew is ~1.3.
  EXPECT_NEAR(sizes.mean(), 10.0, 2.5);
  EXPECT_GT(sizes.stddev(), 3.0);  // noise is really there
}

TEST_F(ShrinkTest, TimerConsumesSimulatedTime) {
  Shrink timer(&proto_, TimerConfig());
  FillCache(2, 50);
  const ShrinkResult r = timer.Step(5, &cache_, &view_);
  ASSERT_TRUE(r.fired);
  EXPECT_GT(r.simulated_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// sDPANT
// ---------------------------------------------------------------------------

IncShrinkConfig AntConfig(double theta) {
  IncShrinkConfig cfg = TimerConfig();
  cfg.strategy = Strategy::kDpAnt;
  cfg.ant_theta = theta;
  return cfg;
}

TEST_F(ShrinkTest, AntFiresWhenCountWellAboveThreshold) {
  Shrink ant(&proto_, AntConfig(5));
  FillCache(500, 20);
  const ShrinkResult r = ant.Step(1, &cache_, &view_);
  EXPECT_TRUE(r.fired);
  EXPECT_EQ(cache_.RecoverCounterInside(&proto_), 0u);
}

TEST_F(ShrinkTest, AntStaysQuietWellBelowThreshold) {
  Shrink ant(&proto_, AntConfig(5000));
  FillCache(1, 20);
  int fires = 0;
  for (uint64_t t = 1; t <= 200; ++t) {
    if (ant.Step(t, &cache_, &view_).fired) ++fires;
  }
  EXPECT_LT(fires, 5);
}

TEST_F(ShrinkTest, AntRefreshesThresholdAfterFiring) {
  Shrink ant(&proto_, AntConfig(5));
  const double before = ant.noisy_threshold_inside();
  FillCache(500, 10);
  ASSERT_TRUE(ant.Step(1, &cache_, &view_).fired);
  EXPECT_NE(ant.noisy_threshold_inside(), before);
}

TEST_F(ShrinkTest, AntFiringRateAdaptsToLoad) {
  // Denser data -> more frequent updates (the paper's Observation 5).
  for (const uint32_t per_step : {2u, 20u}) {
    Party s0(0, 100 + per_step), s1(1, 200 + per_step);
    Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
    SecureCache cache(&proto);
    MaterializedView view;
    Rng rng(7);
    Shrink ant(&proto, AntConfig(30));
    int fires = 0;
    for (uint64_t t = 1; t <= 120; ++t) {
      for (uint32_t i = 0; i < per_step; ++i)
        AppendDummyViewRow(cache.rows(), &rng, cache.seq());
      cache.AddToCounter(&proto, per_step);
      if (ant.Step(t, &cache, &view).fired) ++fires;
    }
    if (per_step == 2) {
      EXPECT_LT(fires, 30);
    } else {
      EXPECT_GT(fires, 40);
    }
  }
}

// ---------------------------------------------------------------------------
// One protocol, two triggers
// ---------------------------------------------------------------------------

TEST(ShrinkStepTest, StepIsPlanThenSyncSortJobThenCommit) {
  // Step is the single-cache form of the engine's phase split: Plan, the
  // cache's SyncSortJob as a one-job submission, Commit — for both
  // triggers and both sort algorithms, share for share.
  for (const Strategy strategy : {Strategy::kDpTimer, Strategy::kDpAnt}) {
    for (const SortAlgorithm algorithm :
         {SortAlgorithm::kBatcher, SortAlgorithm::kShuffleSort}) {
      IncShrinkConfig cfg = AntConfig(/*theta=*/4);
      cfg.strategy = strategy;
      cfg.timer_T = 3;
      cfg.sort_algorithm = algorithm;
      Party a0(0, 11), a1(1, 12), b0(0, 11), b1(1, 12);
      Protocol2PC pa(&a0, &a1, CostModel::EmpLikeLan());
      Protocol2PC pb(&b0, &b1, CostModel::EmpLikeLan());
      SecureCache ca(&pa), cb(&pb);
      MaterializedView va, vb;
      Shrink sa(&pa, cfg), sb(&pb, cfg);
      Rng ra(13), rb(13);
      uint64_t fires = 0;
      for (uint64_t t = 1; t <= 12; ++t) {
        for (auto [proto, cache, rng] : {std::tuple{&pa, &ca, &ra},
                                         std::tuple{&pb, &cb, &rb}}) {
          for (uint32_t i = 0; i < 3; ++i) {
            std::vector<Word> row(kViewWidth);
            row[kViewIsViewCol] = 1;
            row[kViewSortKeyCol] = MakeCacheSortKey(true, (*cache->seq())++);
            cache->rows()->AppendSecretRow(row, rng);
            AppendDummyViewRow(cache->rows(), rng, cache->seq());
          }
          cache->AddToCounter(proto, 3);
        }
        const ShrinkResult ra_result = sa.Step(t, &ca, &va);
        const ShrinkPlan plan = sb.Plan(t, &cb);
        ShrinkResult rb_result = plan.early;
        if (plan.fired) {
          SortJob job = SyncSortJob(&pb, &cb, cfg);
          ObliviousSortBatch(&job, 1);
          rb_result = sb.Commit(plan, &cb, &vb);
        }
        EXPECT_EQ(ra_result.fired, rb_result.fired) << "t=" << t;
        EXPECT_EQ(ra_result.released_size, rb_result.released_size);
        EXPECT_EQ(ra_result.sync_rows, rb_result.sync_rows);
        EXPECT_EQ(ra_result.simulated_seconds, rb_result.simulated_seconds);
        if (ra_result.fired) ++fires;
      }
      EXPECT_GT(fires, 0u);
      EXPECT_EQ(va.rows().shares0(), vb.rows().shares0());
      EXPECT_EQ(va.rows().shares1(), vb.rows().shares1());
      EXPECT_EQ(ca.rows()->shares0(), cb.rows()->shares0());
      EXPECT_EQ(pa.stats().and_gates, pb.stats().and_gates);
      EXPECT_EQ(pa.stats().bytes, pb.stats().bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// Cache flush
// ---------------------------------------------------------------------------

TEST_F(ShrinkTest, FlushOnlyAtConfiguredInterval) {
  IncShrinkConfig cfg = TimerConfig();
  cfg.flush_interval = 7;
  cfg.flush_size = 3;
  FillCache(2, 10);
  for (uint64_t t = 1; t <= 6; ++t) {
    EXPECT_FALSE(FlushIfDue(&proto_, cfg, t, &cache_, &view_).fired);
  }
  const ShrinkResult r = FlushIfDue(&proto_, cfg, 7, &cache_, &view_);
  EXPECT_TRUE(r.fired);
  EXPECT_EQ(r.sync_rows, 3u);
  EXPECT_EQ(cache_.size(), 0u);  // recycled
  EXPECT_EQ(view_.size(), 3u);
  // Both real entries were within the flush prefix.
  EXPECT_EQ(CountRealInside(&proto_, view_.rows()), 2u);
}

TEST_F(ShrinkTest, FlushResetsCardinalityCounter) {
  // Regression: the flush drains the cache completely (fetch + recycle) but
  // used to leave the secret-shared counter standing, so the next DP
  // release re-counted rows that were no longer cached.
  IncShrinkConfig cfg = TimerConfig();
  cfg.flush_interval = 4;
  cfg.flush_size = 3;
  FillCache(5, 10);
  ASSERT_EQ(cache_.RecoverCounterInside(&proto_), 5u);
  const ShrinkResult r = FlushIfDue(&proto_, cfg, 4, &cache_, &view_);
  ASSERT_TRUE(r.fired);
  EXPECT_EQ(cache_.size(), 0u);
  EXPECT_EQ(cache_.RecoverCounterInside(&proto_), 0u);
}

TEST_F(ShrinkTest, ReleasesAfterFlushCountOnlyFreshEntries) {
  // Interleaves flushes with Timer releases. eps is huge, so the Laplace
  // noise rounds to zero w.h.p. and every released size must equal the real
  // entries cached since the previous release-or-flush — never the
  // cumulative count the old code reported after a flush.
  IncShrinkConfig cfg = TimerConfig();
  cfg.eps = 500;  // b/eps = 0.02: |noise| < 0.5 except with prob ~e^-25
  cfg.timer_T = 2;
  cfg.flush_interval = 3;
  cfg.flush_size = 50;  // flush everything cached so far
  Shrink timer(&proto_, cfg);
  uint32_t fresh_entries = 0;
  for (uint64_t t = 1; t <= 24; ++t) {
    const uint32_t arriving = 1 + static_cast<uint32_t>(t % 3);
    FillCache(arriving, 2);
    fresh_entries += arriving;
    const ShrinkResult sync = timer.Step(t, &cache_, &view_);
    if (sync.fired) {
      EXPECT_EQ(sync.released_size, fresh_entries) << "step " << t;
      fresh_entries = 0;
    }
    if (FlushIfDue(&proto_, cfg, t, &cache_, &view_).fired) {
      fresh_entries = 0;  // the flush recycled everything still cached
    }
  }
}

TEST_F(ShrinkTest, AntReleasesAfterFlushCountOnlyFreshEntries) {
  // Same regression through the ANT path: after a flush the noisy-threshold
  // comparison and the released size must both see a zeroed counter.
  IncShrinkConfig cfg = AntConfig(/*theta=*/2);
  cfg.eps = 800;  // tiny threshold + tiny noise: fires whenever c >= ~2
  cfg.flush_interval = 5;
  cfg.flush_size = 50;
  Shrink ant(&proto_, cfg);
  uint32_t fresh_entries = 0;
  for (uint64_t t = 1; t <= 30; ++t) {
    FillCache(2, 1);
    fresh_entries += 2;
    const ShrinkResult sync = ant.Step(t, &cache_, &view_);
    if (sync.fired) {
      EXPECT_EQ(sync.released_size, fresh_entries) << "step " << t;
      fresh_entries = 0;
    }
    if (FlushIfDue(&proto_, cfg, t, &cache_, &view_).fired) {
      EXPECT_EQ(cache_.RecoverCounterInside(&proto_), 0u) << "step " << t;
      fresh_entries = 0;
    }
  }
}

TEST_F(ShrinkTest, FlushDisabledWithZeroInterval) {
  IncShrinkConfig cfg = TimerConfig();
  cfg.flush_interval = 0;
  FillCache(2, 2);
  for (uint64_t t = 1; t <= 50; ++t) {
    EXPECT_FALSE(FlushIfDue(&proto_, cfg, t, &cache_, &view_).fired);
  }
}

}  // namespace
}  // namespace incshrink
