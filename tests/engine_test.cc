#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/net/upload_channel.h"
#include "src/storage/serialization.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

/// A deterministic mini-workload: every step `pairs` sales arrive and are
/// returned `delay` steps later, all within window and batch capacity, so
/// transformation loss is zero and errors come only from the update policy.
struct MiniStream {
  std::vector<std::vector<LogicalRecord>> t1;
  std::vector<std::vector<LogicalRecord>> t2;
};

MiniStream MakeMiniStream(uint64_t steps, uint32_t pairs, uint32_t delay) {
  MiniStream s;
  s.t1.resize(steps);
  s.t2.resize(steps);
  Word rid = 1, key = 1;
  for (uint64_t t = 0; t < steps; ++t) {
    for (uint32_t i = 0; i < pairs; ++i) {
      const Word k = key++;
      s.t1[t].push_back({t + 1, rid++, k, static_cast<Word>(t + 1), 0});
      if (t + delay < steps) {
        s.t2[t + delay].push_back(
            {t + delay + 1, rid++, k, static_cast<Word>(t + 1 + delay), 0});
      }
    }
  }
  return s;
}

IncShrinkConfig MiniConfig(Strategy strategy) {
  IncShrinkConfig cfg;
  cfg.eps = 1.5;
  cfg.omega = 1;
  cfg.budget_b = 6;
  cfg.join = JoinSpec{0, 10, true, 1, true, true};
  cfg.window_steps = 5;
  cfg.strategy = strategy;
  cfg.timer_T = 4;
  cfg.ant_theta = 8;
  cfg.flush_interval = 20;
  cfg.flush_size = 20;
  cfg.upload_rows_t1 = 3;
  cfg.upload_rows_t2 = 3;
  cfg.seed = 7;
  return cfg;
}

RunSummary RunMini(Strategy strategy, uint64_t steps = 40) {
  const MiniStream s = MakeMiniStream(steps, 2, 2);
  SynchronousDeployment deployment(MiniConfig(strategy));
  const Status st = deployment.Run(s.t1, s.t2);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return deployment.Summary();
}

TEST(EngineTest, EpHasZeroErrorOnLossFreeStream) {
  const RunSummary s = RunMini(Strategy::kEp);
  EXPECT_DOUBLE_EQ(s.l1_error.max(), 0.0);
  EXPECT_GT(s.final_view_rows, 0u);
}

TEST(EngineTest, NmHasZeroErrorOnLossFreeStream) {
  const RunSummary s = RunMini(Strategy::kNm);
  EXPECT_DOUBLE_EQ(s.l1_error.max(), 0.0);
  EXPECT_EQ(s.final_view_rows, 0u);  // no materialized view at all
  EXPECT_EQ(s.updates, 0u);
}

TEST(EngineTest, OtmErrorGrowsToOne) {
  const RunSummary s = RunMini(Strategy::kOtm);
  // The one-time view never receives later pairs; relative error approaches
  // 1 as the logical answer grows.
  EXPECT_GT(s.l1_error.max(), 50.0);
  EXPECT_GT(s.relative_error.mean(), 0.5);
  EXPECT_EQ(s.updates, 1u);
}

TEST(EngineTest, DpTimerTracksTruthWithinNoise) {
  const RunSummary s = RunMini(Strategy::kDpTimer);
  EXPECT_GT(s.updates, 5u);
  // Deferred data + Laplace noise keep the error bounded and small compared
  // to the OTM baseline (final truth ~76 pairs).
  EXPECT_LT(s.l1_error.mean(), 25.0);
  EXPECT_LT(s.relative_error.mean(), 0.7);
}

TEST(EngineTest, DpAntTracksTruthWithinNoise) {
  const RunSummary s = RunMini(Strategy::kDpAnt);
  EXPECT_GT(s.updates, 3u);
  EXPECT_LT(s.l1_error.mean(), 25.0);
}

TEST(EngineTest, ViewSizeOrderingMatchesPaper) {
  // EP materializes every padded batch; DP shrinks it; OTM never grows.
  const RunSummary ep = RunMini(Strategy::kEp);
  const RunSummary dp = RunMini(Strategy::kDpTimer);
  const RunSummary otm = RunMini(Strategy::kOtm);
  EXPECT_GT(ep.final_view_rows, dp.final_view_rows);
  EXPECT_GT(dp.final_view_rows, otm.final_view_rows);
}

TEST(EngineTest, QetOrderingMatchesPaper) {
  // NM recomputes the full join per query -> slowest; EP scans a bloated
  // view; DP scans a small view.
  const RunSummary nm = RunMini(Strategy::kNm);
  const RunSummary ep = RunMini(Strategy::kEp);
  const RunSummary dp = RunMini(Strategy::kDpTimer);
  EXPECT_GT(nm.qet_seconds.mean(), ep.qet_seconds.mean());
  EXPECT_GT(ep.qet_seconds.mean(), dp.qet_seconds.mean());
}

TEST(EngineTest, TranscriptShapesPerStrategy) {
  const MiniStream s = MakeMiniStream(12, 1, 1);
  SynchronousDeployment dp(MiniConfig(Strategy::kDpTimer));
  ASSERT_TRUE(dp.Run(s.t1, s.t2).ok());
  int syncs = 0, uploads = 0, transforms = 0;
  for (const auto& e : dp.transcript()) {
    switch (e.kind) {
      case TranscriptEvent::Kind::kSync:
        ++syncs;
        break;
      case TranscriptEvent::Kind::kUpload:
        ++uploads;
        break;
      case TranscriptEvent::Kind::kTransformOut:
        ++transforms;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(uploads, 12);
  EXPECT_EQ(transforms, 12);
  EXPECT_EQ(syncs, 3);  // T = 4 over 12 steps

  SynchronousDeployment nm(MiniConfig(Strategy::kNm));
  ASSERT_TRUE(nm.Run(s.t1, s.t2).ok());
  for (const auto& e : nm.transcript()) {
    EXPECT_EQ(e.kind, TranscriptEvent::Kind::kUpload);
  }
}

TEST(EngineTest, StepMetricsAreConsistent) {
  const MiniStream s = MakeMiniStream(20, 2, 2);
  SynchronousDeployment engine(MiniConfig(Strategy::kDpTimer));
  ASSERT_TRUE(engine.Run(s.t1, s.t2).ok());
  const auto& steps = engine.step_metrics();
  ASSERT_EQ(steps.size(), 20u);
  uint64_t last_true = 0;
  for (const auto& m : steps) {
    EXPECT_GE(m.true_count, last_true);  // growing database
    last_true = m.true_count;
    EXPECT_GE(m.l1_error, 0.0);
    EXPECT_GT(m.transform_seconds, 0.0);
    EXPECT_GT(m.query_seconds, 0.0);
    if (m.synced) {
      EXPECT_GT(m.shrink_seconds, 0.0);
    }
  }
  const RunSummary sum = engine.Summary();
  EXPECT_EQ(sum.steps, 20u);
  EXPECT_GT(sum.total_mpc_seconds, 0.0);
  EXPECT_GT(sum.total_query_seconds, 0.0);
}

TEST(EngineTest, OverflowQueueDelaysUploadsWithoutLosingRecords) {
  // Burst of 9 arrivals into batches of 3: drains over 3 steps.
  IncShrinkConfig cfg = MiniConfig(Strategy::kEp);
  SynchronousDeployment deployment(cfg);
  std::vector<LogicalRecord> burst;
  Word rid = 1;
  for (int i = 0; i < 9; ++i)
    burst.push_back({1, rid++, static_cast<Word>(100 + i), 1, 0});
  ASSERT_TRUE(deployment.Step(burst, {}).ok());
  EXPECT_EQ(deployment.engine().store1().total_rows(), 3u);
  EXPECT_EQ(deployment.owner1().pending(), 6u);  // queued at the owner
  ASSERT_TRUE(deployment.Step({}, {}).ok());
  ASSERT_TRUE(deployment.Step({}, {}).ok());
  EXPECT_EQ(deployment.engine().store1().total_rows(), 9u);
  EXPECT_EQ(deployment.owner1().pending(), 0u);
}

TEST(EngineTest, PublicT2UploadsUnpadded) {
  IncShrinkConfig cfg = MiniConfig(Strategy::kDpTimer);
  cfg.t2_is_public = true;
  cfg.join.cap_t2 = false;
  SynchronousDeployment deployment(cfg);
  ASSERT_TRUE(deployment.Step({}, {{1, 1, 5, 1, 0}, {1, 2, 6, 1, 0}}).ok());
  EXPECT_EQ(deployment.engine().store2().batch(0).size(),
            2u);  // exactly the arrivals
  ASSERT_TRUE(deployment.Step({}, {}).ok());
  EXPECT_EQ(deployment.engine().store2().batch(1).size(), 0u);
}

TEST(EngineTest, InvalidConfigRejected) {
  IncShrinkConfig cfg = MiniConfig(Strategy::kDpTimer);
  cfg.omega = 5;  // != join.omega
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = MiniConfig(Strategy::kDpTimer);
  cfg.eps = -1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = MiniConfig(Strategy::kDpTimer);
  cfg.budget_b = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = MiniConfig(Strategy::kDpTimer);
  cfg.max_batches_per_step = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = MiniConfig(Strategy::kDpTimer);
  cfg.upload_channel_capacity = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

// ---------------------------------------------------------------------------
// Rejected upload pairs
// ---------------------------------------------------------------------------

/// The wire frames the canonical owners of `cfg` emit for stream `s`.
struct RecordedFrames {
  std::vector<std::vector<uint8_t>> t1;
  std::vector<std::vector<uint8_t>> t2;
};

RecordedFrames RecordOwnerFrames(const IncShrinkConfig& cfg,
                                 const MiniStream& s) {
  UploadChannel out1(s.t1.size());
  UploadChannel out2(s.t2.size());
  OwnerClient owner1 = MakeOwner1(cfg, &out1);
  OwnerClient owner2 = MakeOwner2(cfg, &out2);
  RecordedFrames frames;
  for (size_t i = 0; i < s.t1.size(); ++i) {
    EXPECT_TRUE(owner1.TryStep(s.t1[i]));
    EXPECT_TRUE(owner2.TryStep(s.t2[i]));
    std::vector<uint8_t> raw;
    EXPECT_TRUE(out1.TryPop(&raw));
    frames.t1.push_back(raw);
    EXPECT_TRUE(out2.TryPop(&raw));
    frames.t2.push_back(raw);
  }
  return frames;
}

enum class BadPair { kOwnerStepMismatch, kWrongRowWidth };

/// A T2 frame that decodes but must be rejected when paired with the valid
/// T1 frame of owner step 2.
std::vector<uint8_t> BadT2Frame(BadPair kind, const RecordedFrames& frames) {
  Result<UploadFrame> decoded = DecodeUploadFrame(frames.t2[1]);
  EXPECT_TRUE(decoded.ok());
  UploadFrame frame = std::move(decoded).value();
  if (kind == BadPair::kOwnerStepMismatch) {
    ++frame.owner_step;
  } else {
    Rng rng(5);
    frame.batch = SharedRows(3);
    frame.batch.AppendSecretRow({1, 2, 3}, &rng);
  }
  return EncodeUploadFrame(frame);
}

class RejectedPairTest : public ::testing::TestWithParam<BadPair> {};

TEST_P(RejectedPairTest, LaterPairsStepAsIfTheBadPairNeverArrived) {
  // Regression: the engine used to advance its clock before validating the
  // drained frames, so a rejected pair left the stores one step behind and
  // the next Step() aborted the server on Transform's store-size check.
  for (const Strategy strategy : {Strategy::kDpTimer, Strategy::kDpAnt}) {
    SCOPED_TRACE(StrategyName(strategy));
    const IncShrinkConfig cfg = MiniConfig(strategy);
    const MiniStream s = MakeMiniStream(12, 2, 2);
    const RecordedFrames frames = RecordOwnerFrames(cfg, s);

    Engine reference(cfg);
    Engine victim(cfg);
    for (size_t i = 0; i < frames.t1.size(); ++i) {
      if (i == 1) {
        ASSERT_TRUE(victim.channel1()->TryPush(frames.t1[1]));
        ASSERT_TRUE(victim.channel2()->TryPush(BadT2Frame(GetParam(), frames)));
        const Status st = victim.Step();
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
        // Rejected whole: the pair is consumed, nothing else moved.
        EXPECT_EQ(victim.current_step(), 1u);
        EXPECT_EQ(victim.frames_drained(), 2u);
        EXPECT_EQ(victim.queue_depth(), 0u);
        EXPECT_EQ(victim.store1().steps(), 1u);
        EXPECT_EQ(victim.step_metrics().size(), 1u);
      }
      for (Engine* engine : {&reference, &victim}) {
        ASSERT_TRUE(engine->channel1()->TryPush(frames.t1[i]));
        ASSERT_TRUE(engine->channel2()->TryPush(frames.t2[i]));
        ASSERT_TRUE(engine->Step().ok()) << "step " << i + 1;
      }
    }

    EXPECT_EQ(victim.transcript(), reference.transcript());
    ASSERT_EQ(victim.releases().size(), reference.releases().size());
    for (size_t i = 0; i < reference.releases().size(); ++i) {
      EXPECT_EQ(victim.releases()[i].t, reference.releases()[i].t);
      EXPECT_EQ(victim.releases()[i].size, reference.releases()[i].size);
      EXPECT_EQ(victim.releases()[i].fired, reference.releases()[i].fired);
    }
    ASSERT_EQ(victim.step_metrics().size(), reference.step_metrics().size());
    for (size_t i = 0; i < reference.step_metrics().size(); ++i) {
      const StepMetrics& a = victim.step_metrics()[i];
      const StepMetrics& b = reference.step_metrics()[i];
      EXPECT_EQ(a.t, b.t);
      EXPECT_EQ(a.true_count, b.true_count);
      EXPECT_EQ(a.view_answer, b.view_answer);
      EXPECT_EQ(a.view_rows, b.view_rows);
      EXPECT_EQ(a.cache_rows, b.cache_rows);
      EXPECT_EQ(a.sync_rows, b.sync_rows);
      EXPECT_EQ(a.synced, b.synced);
      EXPECT_EQ(a.flushed, b.flushed);
      EXPECT_EQ(a.transform_seconds, b.transform_seconds);
      EXPECT_EQ(a.shrink_seconds, b.shrink_seconds);
      EXPECT_EQ(a.query_seconds, b.query_seconds);
    }
    const RunSummary a = victim.Summary();
    const RunSummary b = reference.Summary();
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.final_view_rows, b.final_view_rows);
    EXPECT_EQ(a.final_cache_rows, b.final_cache_rows);
    EXPECT_EQ(a.final_true_count, b.final_true_count);
    EXPECT_EQ(a.total_real_entries_cached, b.total_real_entries_cached);
    EXPECT_EQ(a.total_mpc_seconds, b.total_mpc_seconds);
    EXPECT_EQ(a.l1_error.mean(), b.l1_error.mean());
    EXPECT_EQ(victim.view().rows().shares0(),
              reference.view().rows().shares0());
    EXPECT_EQ(victim.view().rows().shares1(),
              reference.view().rows().shares1());
  }
}

INSTANTIATE_TEST_SUITE_P(
    BadPairs, RejectedPairTest,
    ::testing::Values(BadPair::kOwnerStepMismatch, BadPair::kWrongRowWidth),
    [](const ::testing::TestParamInfo<BadPair>& param_info) {
      return std::string(param_info.param == BadPair::kOwnerStepMismatch
                             ? "OwnerStepMismatch"
                             : "WrongRowWidth");
    });

TEST(EngineTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kDpTimer), "DP-Timer");
  EXPECT_STREQ(StrategyName(Strategy::kDpAnt), "DP-ANT");
  EXPECT_STREQ(StrategyName(Strategy::kEp), "EP");
  EXPECT_STREQ(StrategyName(Strategy::kOtm), "OTM");
  EXPECT_STREQ(StrategyName(Strategy::kNm), "NM");
}

}  // namespace
}  // namespace incshrink
