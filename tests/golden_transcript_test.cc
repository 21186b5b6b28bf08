// Golden-transcript regression suite (build-system bring-up).
//
// Runs a fixed matrix of (workload x strategy) deployments with pinned seeds
// and compares a canonical, integer-only rendering of each run's observables
// — transcript events, DP releases, per-step answers — against checked-in
// fixtures under tests/golden/. Future PRs that change behavior (a perf
// rewrite of the sort network, a new cache layout, a tweaked mechanism) will
// trip this suite unless they consciously regenerate the baselines:
//
//   INCSHRINK_REGEN_GOLDENS=1 ./golden_transcript_test
//
// Only integers are serialized, so the fixtures are stable across compilers
// and floating-point flag choices.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/config.h"
#include "src/core/engine.h"
#include "src/core/multilevel.h"
#include "src/core/owner_client.h"
#include "src/dp/transcript.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(INCSHRINK_SOURCE_DIR) + "/tests/golden/" + name + ".txt";
}

std::string RenderRun(const Engine& engine) {
  std::ostringstream out;
  out << "# canonical IncShrink run transcript (integers only)\n";
  for (const TranscriptEvent& ev : engine.transcript()) {
    out << "event " << TranscriptKindName(ev.kind) << " t=" << ev.t
        << " rows=" << ev.rows << "\n";
  }
  for (const LeakageRelease& rel : engine.releases()) {
    out << "release t=" << rel.t << " size=" << rel.size
        << " fired=" << (rel.fired ? 1 : 0) << "\n";
  }
  for (const StepMetrics& m : engine.step_metrics()) {
    out << "step t=" << m.t << " answer=" << m.view_answer
        << " truth=" << m.true_count << " view_rows=" << m.view_rows
        << " cache_rows=" << m.cache_rows << "\n";
  }
  const RunSummary summary = engine.Summary();
  out << "summary updates=" << summary.updates
      << " flushes=" << summary.flushes << " steps=" << summary.steps
      << " final_view_rows=" << summary.final_view_rows
      << " final_cache_rows=" << summary.final_cache_rows
      << " real_entries=" << summary.total_real_entries_cached << "\n";
  return out.str();
}

void CheckGolden(const std::string& name, const std::string& rendered) {
  const std::string path = GoldenPath(name);
  if (std::getenv("INCSHRINK_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — run with INCSHRINK_REGEN_GOLDENS=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str())
      << "observable behavior drifted from the checked-in baseline for '"
      << name << "'. If the change is intentional, regenerate with "
      << "INCSHRINK_REGEN_GOLDENS=1 ./golden_transcript_test and review the "
      << "fixture diff.";
}

struct GoldenCase {
  const char* name;
  bool cpdb;
  Strategy strategy;
  TransformOperator op = TransformOperator::kSortMergeJoin;
};

class GoldenTranscriptTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTranscriptTest, MatchesBaseline) {
  const GoldenCase& gc = GetParam();
  IncShrinkConfig config;
  GeneratedWorkload workload;
  if (gc.cpdb) {
    CpdbParams params;
    params.steps = 30;
    workload = GenerateCpdb(params);
    config = DefaultCpdbConfig();
  } else {
    TpcDsParams params;
    params.steps = 40;
    workload = GenerateTpcDs(params);
    config = DefaultTpcDsConfig();
  }
  config.strategy = gc.strategy;
  config.op = gc.op;
  config.flush_interval = 16;  // exercise flush events inside the stream
  SynchronousDeployment deployment(config);
  ASSERT_TRUE(deployment.Run(workload.t1, workload.t2).ok());
  CheckGolden(gc.name, RenderRun(deployment.engine()));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenTranscriptTest,
    ::testing::Values(
        GoldenCase{"tpcds_timer", false, Strategy::kDpTimer},
        GoldenCase{"tpcds_ant", false, Strategy::kDpAnt},
        GoldenCase{"tpcds_ep", false, Strategy::kEp},
        GoldenCase{"tpcds_otm", false, Strategy::kOtm},
        GoldenCase{"tpcds_nm", false, Strategy::kNm},
        GoldenCase{"tpcds_timer_nlj", false, Strategy::kDpTimer,
                   TransformOperator::kNestedLoopJoin},
        GoldenCase{"cpdb_timer", true, Strategy::kDpTimer},
        GoldenCase{"cpdb_ant", true, Strategy::kDpAnt},
        GoldenCase{"cpdb_ep", true, Strategy::kEp}),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      return std::string(param_info.param.name);
    });

// Filter views (Appendix A.1.1): selection is 1-stable, so omega = b = 1.
TEST(GoldenTranscriptTest, FilterViewMatchesBaseline) {
  IncShrinkConfig config;
  config.eps = 1.5;
  config.omega = 1;
  config.budget_b = 1;
  config.view_kind = ViewKind::kFilter;
  config.filter = FilterSpec{100, 199};
  config.join.omega = 1;
  config.strategy = Strategy::kDpTimer;
  config.timer_T = 4;
  config.flush_interval = 16;
  config.upload_rows_t1 = 4;
  config.upload_rows_t2 = 4;
  config.seed = 21;

  std::vector<std::vector<LogicalRecord>> t1(40), t2(40);
  Rng rng(22);
  Word rid = 1;
  for (uint64_t t = 0; t < 40; ++t) {
    const uint64_t n = rng.Uniform(4);
    for (uint64_t i = 0; i < n; ++i) {
      LogicalRecord rec;
      rec.step = t + 1;
      rec.rid = rid++;
      rec.key = rid;
      rec.date = static_cast<Word>(t + 1);
      rec.payload = static_cast<Word>(rng.Uniform(300));
      t1[t].push_back(rec);
    }
  }
  SynchronousDeployment deployment(config);
  ASSERT_TRUE(deployment.Run(t1, t2).ok());
  CheckGolden("tpcds_filter_timer", RenderRun(deployment.engine()));
}

// Multi-level Transform-and-Shrink (Section 8): a selection stage feeding a
// windowed join, both on sDPTimer. Pins every per-step observable, the
// V1/V2 sizes and the public circuit totals of both stages' protocols.
TEST(GoldenTranscriptTest, MultiLevelPipelineMatchesBaseline) {
  MultiLevelPipeline::Config config;
  config.eps1 = 1.0;
  config.eps2 = 1.5;
  config.filter = FilterSpec{100, 299};
  config.join = JoinSpec{0, 10, true, 1, true, true};
  config.omega = 1;
  config.budget_b = 10;
  config.window_steps = 8;
  config.timer_T1 = 2;
  config.timer_T2 = 3;
  config.upload_rows_t1 = 4;
  config.upload_rows_t2 = 4;
  config.seed = 31;

  // Bursty streams (up to 6 arrivals per step against 4-row uploads) so the
  // owners' deferred-record queues are exercised too.
  constexpr uint64_t kSteps = 36;
  std::vector<std::vector<LogicalRecord>> t1(kSteps), t2(kSteps);
  Rng rng(32);
  Word rid = 1;
  Word key = 1;
  for (uint64_t t = 0; t < kSteps; ++t) {
    const uint64_t n = rng.Uniform(7);
    for (uint64_t i = 0; i < n; ++i) {
      const Word k = key++;
      t1[t].push_back({t + 1, rid++, k, static_cast<Word>(t + 1),
                       static_cast<Word>(rng.Uniform(400))});
      const uint64_t lag = rng.Uniform(3);
      if (t + lag < kSteps) {
        t2[t + lag].push_back({t + lag + 1, rid++, k,
                               static_cast<Word>(t + lag + 1), 0});
      }
    }
  }
  MultiLevelPipeline pipeline(config);
  for (uint64_t t = 0; t < kSteps; ++t) {
    ASSERT_TRUE(pipeline.Step(t1[t], t2[t]).ok()) << t;
  }

  std::ostringstream out;
  out << "# canonical multi-level pipeline run (integers only)\n";
  for (const StepMetrics& m : pipeline.stage2().step_metrics()) {
    out << "step t=" << m.t << " answer=" << m.view_answer
        << " truth=" << m.true_count << " view_rows=" << m.view_rows
        << " cache_rows=" << m.cache_rows << " synced=" << (m.synced ? 1 : 0)
        << " sync_rows=" << m.sync_rows << "\n";
  }
  const RunSummary summary = pipeline.Summary();
  CircuitStats stats = pipeline.stage1().proto()->Snapshot();
  stats.Add(pipeline.stage2().proto()->Snapshot());
  out << "summary updates=" << summary.updates << " steps=" << summary.steps
      << " v1_rows=" << pipeline.stage1().view().size()
      << " v2_rows=" << pipeline.stage2().view().size() << "\n";
  out << "circuit and_gates=" << stats.and_gates
      << " xor_gates=" << stats.xor_gates << " bytes=" << stats.bytes
      << " rounds=" << stats.rounds << "\n";
  CheckGolden("multilevel_timer_timer", out.str());
}

}  // namespace
}  // namespace incshrink
