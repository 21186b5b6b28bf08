// Deterministic priority fleet scheduler (the service rationing of
// DeploymentFleet's one round discipline): serving every backlogged tenant
// must be bit-identical however it is spelled (scheduler disabled or a
// budget covering everyone), at any weights; skewed configurations
// must be exactly thread-count invariant (summaries, transcripts AND the
// round-by-round service schedule); and the aging term must make the
// discipline starvation-free — every continuously backlogged tenant is
// serviced within the computable StarvationBoundRounds() bound, even under
// adversarial weight/depth patterns. Runs under the TSan CI job alongside
// the other equivalence suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/fleet.h"
#include "src/core/metrics.h"
#include "src/core/owner_client.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

void ExpectStatIdentical(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void ExpectSummaryIdentical(const RunSummary& a, const RunSummary& b) {
  ExpectStatIdentical(a.l1_error, b.l1_error);
  ExpectStatIdentical(a.relative_error, b.relative_error);
  ExpectStatIdentical(a.true_count_stat, b.true_count_stat);
  ExpectStatIdentical(a.qet_seconds, b.qet_seconds);
  ExpectStatIdentical(a.transform_seconds, b.transform_seconds);
  ExpectStatIdentical(a.shrink_seconds, b.shrink_seconds);
  EXPECT_EQ(a.total_mpc_seconds, b.total_mpc_seconds);
  EXPECT_EQ(a.total_query_seconds, b.total_query_seconds);
  EXPECT_EQ(a.final_view_mb, b.final_view_mb);
  EXPECT_EQ(a.final_view_rows, b.final_view_rows);
  EXPECT_EQ(a.final_cache_rows, b.final_cache_rows);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_real_entries_cached, b.total_real_entries_cached);
  EXPECT_EQ(a.final_true_count, b.final_true_count);
}

GeneratedWorkload SmallTpcDs(uint64_t seed = 21, uint64_t steps = 40) {
  TpcDsParams p;
  p.steps = steps;
  p.seed = seed;
  return GenerateTpcDs(p);
}

GeneratedWorkload SmallCpdb(uint64_t seed = 31, uint64_t steps = 24) {
  CpdbParams p;
  p.steps = steps;
  p.seed = seed;
  return GenerateCpdb(p);
}

std::vector<DeploymentFleet::TenantSpec> MixedTenants(
    const GeneratedWorkload* tpcds, const GeneratedWorkload* cpdb,
    uint32_t max_batches, uint32_t capacity) {
  std::vector<DeploymentFleet::TenantSpec> tenants;
  const struct {
    const char* name;
    bool cpdb;
    Strategy strategy;
  } kMix[] = {
      {"tpcds-timer", false, Strategy::kDpTimer},
      {"tpcds-ant", false, Strategy::kDpAnt},
      {"tpcds-ep", false, Strategy::kEp},
      {"cpdb-timer", true, Strategy::kDpTimer},
      {"cpdb-ant", true, Strategy::kDpAnt},
      {"tpcds-nm", false, Strategy::kNm},
  };
  for (const auto& m : kMix) {
    DeploymentFleet::TenantSpec t;
    t.name = m.name;
    t.config = m.cpdb ? DefaultCpdbConfig() : DefaultTpcDsConfig();
    t.config.strategy = m.strategy;
    t.config.flush_interval = 16;
    t.config.max_batches_per_step = max_batches;
    t.config.upload_channel_capacity = capacity;
    t.workload = m.cpdb ? cpdb : tpcds;
    tenants.push_back(t);
  }
  return tenants;
}

DeploymentFleet::Options WithScheduler(uint64_t root, int threads,
                                       uint32_t lead,
                                       DeploymentFleet::SchedulerOptions s) {
  DeploymentFleet::Options o;
  o.root_seed = root;
  o.num_threads = threads;
  o.owner_lead = lead;
  o.scheduler = s;
  return o;
}

// ---------------------------------------------------------------------------
// Helper metrics: percentiles and fairness index
// ---------------------------------------------------------------------------

TEST(ServiceMetricsTest, NearestRankPercentile) {
  EXPECT_EQ(NearestRankPercentile({}, 50), 0u);
  EXPECT_EQ(NearestRankPercentile({7}, 50), 7u);
  EXPECT_EQ(NearestRankPercentile({7}, 99), 7u);
  // 1..100: nearest-rank pXX is exactly XX.
  std::vector<uint64_t> v;
  for (uint64_t i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(NearestRankPercentile(v, 50), 50u);
  EXPECT_EQ(NearestRankPercentile(v, 95), 95u);
  EXPECT_EQ(NearestRankPercentile(v, 99), 99u);
  EXPECT_EQ(NearestRankPercentile(v, 100), 100u);
  // rank = ceil(0.5 * 4) = 2 -> second smallest.
  EXPECT_EQ(NearestRankPercentile({1, 2, 3, 4}, 50), 2u);
}

TEST(ServiceMetricsTest, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({3.0, 3.0, 3.0}), 1.0);
  // One tenant hogging everything: 1/n.
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5.0, 0.0, 0.0, 0.0}), 0.25);
  // (1+3)^2 / (2 * (1+9)) = 16/20.
  EXPECT_DOUBLE_EQ(JainFairnessIndex({1.0, 3.0}), 0.8);
}

// ---------------------------------------------------------------------------
// Public deadline distance (the scheduler's urgency input)
// ---------------------------------------------------------------------------

TEST(PublicDeadlineTest, TimerAndFlushDistances) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();  // timer_T = 10, flush = 120
  cfg.strategy = Strategy::kDpTimer;
  Engine timer_engine(cfg);
  EXPECT_EQ(timer_engine.StepsToNextPublicRelease(), 10u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(timer_engine.Step().ok());
  EXPECT_EQ(timer_engine.StepsToNextPublicRelease(), 7u);  // fires at t = 10

  // sDPANT fires data-dependently; only the public flush cadence counts.
  cfg.strategy = Strategy::kDpAnt;
  cfg.flush_interval = 16;
  Engine ant_engine(cfg);
  EXPECT_EQ(ant_engine.StepsToNextPublicRelease(), 16u);
  ASSERT_TRUE(ant_engine.Step().ok());
  EXPECT_EQ(ant_engine.StepsToNextPublicRelease(), 15u);

  // No publicly scheduled release at all.
  cfg.strategy = Strategy::kEp;
  Engine ep_engine(cfg);
  EXPECT_EQ(ep_engine.StepsToNextPublicRelease(),
            std::numeric_limits<uint64_t>::max());
}

TEST(PublicDeadlineTest, SlaWeightValidation) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.sla_weight = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.sla_weight = (1u << 20) + 1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.sla_weight = 1u << 20;
  EXPECT_TRUE(cfg.Validate().ok());
}

// ---------------------------------------------------------------------------
// Priority keys: public, weight-scaled, aging
// ---------------------------------------------------------------------------

TEST(PrioritySchedulerTest, PriorityKeyCompositionAndAging) {
  const GeneratedWorkload tpcds = SmallTpcDs();
  std::vector<DeploymentFleet::TenantSpec> specs(2);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = std::string("t") + std::to_string(i);
    specs[i].config = DefaultTpcDsConfig();  // timer_T = 10
    specs[i].workload = &tpcds;
  }
  specs[0].config.sla_weight = 3;
  specs[1].config.sla_weight = 1;

  DeploymentFleet::SchedulerOptions sched;
  sched.enabled = true;
  sched.services_per_round = 1;
  sched.aging_weight = 5;
  sched.depth_weight = 2;
  sched.deadline_horizon = 16;
  DeploymentFleet fleet(
      specs, WithScheduler(/*root=*/3, /*threads=*/1, /*lead=*/0, sched));

  // Before any round: depth 0, t = 0 => timer distance 10, urgency 6.
  EXPECT_EQ(fleet.PriorityKey(0), 3u * 6u);
  EXPECT_EQ(fleet.PriorityKey(1), 1u * 6u);

  // Round 1: both push one frame pair; only tenant 0 (heavier weight) is
  // serviced. Tenant 1 is left backlogged with one queued frame and one
  // round of age.
  EXPECT_EQ(fleet.StepAll(), 2u);
  ASSERT_EQ(fleet.schedule_log().size(), 1u);
  EXPECT_EQ(fleet.schedule_log()[0], std::vector<uint32_t>{0});
  EXPECT_EQ(fleet.QueueDepth(0), 0u);
  EXPECT_EQ(fleet.QueueDepth(1), 1u);
  // Tenant 0: depth 0, t = 1 => distance 9, urgency 7, age 0.
  EXPECT_EQ(fleet.PriorityKey(0), 3u * 7u);
  // Tenant 1: depth 1, t = 0 => urgency 6, age 1: 1*(2*1 + 6) + 5*1.
  EXPECT_EQ(fleet.PriorityKey(1), 8u + 5u);
}

// ---------------------------------------------------------------------------
// Serving everyone: scheduler disabled == a budget covering every tenant
// ---------------------------------------------------------------------------

TEST(PrioritySchedulerTest, UniformConfigIsBitIdenticalToLockstep) {
  // A disabled scheduler serves every backlogged tenant every round. The
  // enabled scheduler with a budget covering every tenant must select
  // exactly the same tenants, so every per-tenant observable — summary and
  // transcript — is bit-identical. Covers both budget spellings (0 = "all"
  // and B = num_tenants), owner leads, and uniform as well as skewed
  // sla_weights (weights only order the service, never gate it, when
  // everyone is served).
  const GeneratedWorkload tpcds = SmallTpcDs();
  const GeneratedWorkload cpdb = SmallCpdb();
  const uint64_t kRoot = 77;
  const std::vector<DeploymentFleet::TenantSpec> uniform =
      MixedTenants(&tpcds, &cpdb, /*max_batches=*/1, /*capacity=*/32);
  std::vector<DeploymentFleet::TenantSpec> skewed = uniform;
  const uint32_t kWeights[] = {1, 8, 2, 1, 16, 4};
  for (size_t i = 0; i < skewed.size(); ++i) {
    skewed[i].config.sla_weight = kWeights[i];
  }

  for (const bool skew : {false, true}) {
    const std::vector<DeploymentFleet::TenantSpec>& specs =
        skew ? skewed : uniform;
    for (const uint32_t lead : {0u, 3u}) {
      SCOPED_TRACE(std::string(skew ? "skewed" : "uniform") +
                   " lead=" + std::to_string(lead));
      DeploymentFleet disabled(specs,
                               WithScheduler(kRoot, /*threads=*/2, lead, {}));
      disabled.RunAll();
      ASSERT_TRUE(disabled.done());
      EXPECT_TRUE(disabled.schedule_log().empty());
      const DeploymentFleet::FleetStats disabled_stats =
          disabled.AggregateStats();

      for (const uint32_t budget :
           {0u, static_cast<uint32_t>(specs.size())}) {
        SCOPED_TRACE("budget=" + std::to_string(budget));
        DeploymentFleet::SchedulerOptions sched;
        sched.enabled = true;
        sched.services_per_round = budget;
        DeploymentFleet scheduled(
            specs, WithScheduler(kRoot, /*threads=*/2, lead, sched));
        scheduled.RunAll();
        ASSERT_TRUE(scheduled.done());
        for (size_t i = 0; i < specs.size(); ++i) {
          SCOPED_TRACE(specs[i].name);
          ExpectSummaryIdentical(disabled.TenantSummary(i),
                                 scheduled.TenantSummary(i));
          EXPECT_EQ(disabled.engine(i).transcript(),
                    scheduled.engine(i).transcript());
        }
        const DeploymentFleet::FleetStats stats =
            scheduled.AggregateStats();
        EXPECT_EQ(stats.rounds, disabled_stats.rounds);
        EXPECT_EQ(stats.engine_steps, disabled_stats.engine_steps);
        EXPECT_EQ(stats.max_queue_depth, disabled_stats.max_queue_depth);
        for (size_t i = 0; i < specs.size(); ++i) {
          EXPECT_EQ(stats.tenant_service[i].services,
                    disabled_stats.tenant_service[i].services);
          EXPECT_EQ(stats.tenant_service[i].gap_max,
                    disabled_stats.tenant_service[i].gap_max);
        }
      }
    }
  }
}

TEST(PrioritySchedulerTest, UniformConfigMatchesSynchronousDeployment) {
  // Transitively the same guarantee the PR 4/5 suites pin: lockstep cadence
  // (lead 0, drain 1) through the *scheduler* path still reproduces the
  // fused SynchronousDeployment exactly.
  const GeneratedWorkload tpcds = SmallTpcDs();
  const GeneratedWorkload cpdb = SmallCpdb();
  const uint64_t kRoot = 91;
  const std::vector<DeploymentFleet::TenantSpec> specs =
      MixedTenants(&tpcds, &cpdb, /*max_batches=*/1, /*capacity=*/32);
  DeploymentFleet::SchedulerOptions sched;
  sched.enabled = true;
  DeploymentFleet fleet(
      specs, WithScheduler(kRoot, /*threads=*/2, /*lead=*/0, sched));
  fleet.RunAll();
  ASSERT_TRUE(fleet.done());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    IncShrinkConfig cfg = specs[i].config;
    cfg.seed = DeriveTenantSeed(kRoot, i);
    SynchronousDeployment lockstep(cfg);
    ASSERT_TRUE(
        lockstep.Run(specs[i].workload->t1, specs[i].workload->t2).ok());
    ExpectSummaryIdentical(lockstep.Summary(), fleet.TenantSummary(i));
    EXPECT_EQ(lockstep.transcript(), fleet.engine(i).transcript());
  }
}

// ---------------------------------------------------------------------------
// Determinism: exact equality at 1/2/8 threads
// ---------------------------------------------------------------------------

TEST(PrioritySchedulerTest, ScheduleIsThreadCountInvariant) {
  // Skewed weights, a tight budget and owner leads: the round-by-round
  // service schedule, all per-tenant summaries/transcripts and the
  // aggregated latency/fairness stats must be exactly equal at 1, 2 and 8
  // threads.
  const GeneratedWorkload tpcds = SmallTpcDs();
  const GeneratedWorkload cpdb = SmallCpdb();
  const uint64_t kRoot = 57;
  std::vector<DeploymentFleet::TenantSpec> specs =
      MixedTenants(&tpcds, &cpdb, /*max_batches=*/2, /*capacity=*/16);
  const uint32_t kWeights[] = {1, 8, 2, 1, 16, 4};
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].config.sla_weight = kWeights[i];
  }
  DeploymentFleet::SchedulerOptions sched;
  sched.enabled = true;
  sched.services_per_round = 2;
  sched.aging_weight = 4;
  sched.deadline_horizon = 8;

  DeploymentFleet ref(
      specs, WithScheduler(kRoot, /*threads=*/1, /*lead=*/8, sched));
  ref.RunAll();
  ASSERT_TRUE(ref.done());
  const DeploymentFleet::FleetStats ref_stats = ref.AggregateStats();
  EXPECT_GT(ref_stats.rounds, 0u);

  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DeploymentFleet fleet(specs,
                          WithScheduler(kRoot, threads, /*lead=*/8, sched));
    fleet.RunAll();
    ASSERT_TRUE(fleet.done());
    EXPECT_EQ(ref.schedule_log(), fleet.schedule_log());
    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE(specs[i].name);
      ExpectSummaryIdentical(ref.TenantSummary(i), fleet.TenantSummary(i));
      EXPECT_EQ(ref.engine(i).transcript(), fleet.engine(i).transcript());
    }
    const DeploymentFleet::FleetStats stats = fleet.AggregateStats();
    EXPECT_EQ(stats.rounds, ref_stats.rounds);
    EXPECT_EQ(stats.engine_steps, ref_stats.engine_steps);
    EXPECT_EQ(stats.jain_fairness, ref_stats.jain_fairness);
    ASSERT_EQ(stats.tenant_service.size(),
              ref_stats.tenant_service.size());
    for (size_t i = 0; i < stats.tenant_service.size(); ++i) {
      EXPECT_EQ(stats.tenant_service[i].services,
                ref_stats.tenant_service[i].services);
      EXPECT_EQ(stats.tenant_service[i].gap_p50,
                ref_stats.tenant_service[i].gap_p50);
      EXPECT_EQ(stats.tenant_service[i].gap_p95,
                ref_stats.tenant_service[i].gap_p95);
      EXPECT_EQ(stats.tenant_service[i].gap_p99,
                ref_stats.tenant_service[i].gap_p99);
      EXPECT_EQ(stats.tenant_service[i].gap_max,
                ref_stats.tenant_service[i].gap_max);
    }
  }
}

// ---------------------------------------------------------------------------
// Starvation-freedom property: adversarial weight / depth patterns
// ---------------------------------------------------------------------------

struct StarvationCase {
  const char* name;
  std::vector<uint32_t> weights;
  std::vector<uint32_t> capacities;
  uint32_t aging_weight;
  uint32_t services_per_round;
  uint32_t deadline_horizon;
};

TEST(PrioritySchedulerTest, StarvationFreedomUnderAdversarialPatterns) {
  // Heavy tenants (large weights / deep channels) try to monopolize a
  // single service slot. The aging term must still get every continuously
  // backlogged tenant serviced within StarvationBoundRounds() rounds —
  // checked against the empirically observed worst gap of every tenant.
  const GeneratedWorkload tpcds = SmallTpcDs(/*seed=*/21, /*steps=*/48);
  const std::vector<StarvationCase> cases = {
      // Strong aging: the bound is dominated by the rotation term.
      {"strong-aging", {8, 8, 8, 1, 1}, {32, 32, 32, 8, 8}, 16, 1, 8},
      // Weak aging vs skewed weights: the Pmax/A term dominates.
      {"weak-aging", {4, 4, 1, 1}, {8, 8, 8, 8}, 1, 1, 4},
      // Budget 2, extreme weight ratio at the validation cap's scale.
      {"extreme-weights", {64, 64, 1, 1, 1, 1}, {16, 16, 16, 16, 16, 16},
       32, 2, 16},
      // No tenants at all.
      {"empty-fleet", {}, {}, 1, 1, 8},
  };
  for (const StarvationCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<DeploymentFleet::TenantSpec> specs(c.weights.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      specs[i].name = std::string(c.name) + "#" + std::to_string(i);
      specs[i].config = DefaultTpcDsConfig();
      specs[i].config.strategy =
          i % 2 == 0 ? Strategy::kDpTimer : Strategy::kDpAnt;
      specs[i].config.flush_interval = 16;
      specs[i].config.sla_weight = c.weights[i];
      specs[i].config.upload_channel_capacity = c.capacities[i];
      specs[i].workload = &tpcds;
    }
    DeploymentFleet::SchedulerOptions sched;
    sched.enabled = true;
    sched.services_per_round = c.services_per_round;
    sched.aging_weight = c.aging_weight;
    sched.deadline_horizon = c.deadline_horizon;
    // A large owner lead keeps every tenant's queue non-empty (adversarial
    // depth pressure) until its stream is exhausted.
    DeploymentFleet fleet(
        specs, WithScheduler(/*root=*/11, /*threads=*/2, /*lead=*/16, sched));
    const uint64_t bound = fleet.StarvationBoundRounds();
    if (specs.empty()) {
      // No tenants: nothing can wait, and the bound must not underflow.
      EXPECT_EQ(bound, 1u);
      continue;
    }
    fleet.RunAll();
    ASSERT_TRUE(fleet.done());
    const DeploymentFleet::FleetStats stats = fleet.AggregateStats();
    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE(specs[i].name);
      EXPECT_GT(stats.tenant_service[i].services, 0u)
          << "tenant was never serviced";
      EXPECT_LE(stats.tenant_service[i].gap_max, bound)
          << "observed a service gap beyond the starvation bound ("
          << bound << " rounds)";
      // Everyone eventually drains completely.
      EXPECT_EQ(fleet.QueueDepth(i), 0u);
      EXPECT_EQ(fleet.TenantSummary(i).final_true_count,
                fleet.engine(i).Summary().final_true_count);
    }
    // The schedule actually rationed service: some round left a backlogged
    // tenant waiting (otherwise the case exercised nothing).
    uint64_t max_gap = 0;
    for (const auto& ts : stats.tenant_service) {
      max_gap = std::max(max_gap, ts.gap_max);
    }
    EXPECT_GT(max_gap, 1u);
  }
}

TEST(PrioritySchedulerTest, HotTenantsGetMoreServiceUnderSkewedTraffic) {
  // Zipf-skewed arrival volumes with a tight service budget: the scheduler
  // should grant backlogged (hot) tenants more engine steps than near-idle
  // tail tenants — while still servicing the tail (no starvation) — and the
  // weighted Jain index should stay well above the 1/N monopoly floor.
  ZipfFleetParams zp;
  zp.num_tenants = 4;
  zp.s = 1.2;
  zp.steps = 48;
  zp.seed = 5;
  const std::vector<GeneratedWorkload> streams =
      GenerateZipfFleetWorkloads(zp);
  std::vector<DeploymentFleet::TenantSpec> specs(zp.num_tenants);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "zipf#" + std::to_string(i);
    specs[i].config = DefaultTpcDsConfig();
    specs[i].config.max_batches_per_step = 2;
    specs[i].workload = &streams[i];
  }
  DeploymentFleet::SchedulerOptions sched;
  sched.enabled = true;
  sched.services_per_round = 2;
  sched.aging_weight = 2;
  DeploymentFleet fleet(
      specs, WithScheduler(/*root=*/23, /*threads=*/2, /*lead=*/8, sched));
  fleet.RunAll();
  ASSERT_TRUE(fleet.done());
  const DeploymentFleet::FleetStats stats = fleet.AggregateStats();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_GT(stats.tenant_service[i].services, 0u);
  }
  EXPECT_GT(stats.jain_fairness, 1.0 / static_cast<double>(zp.num_tenants));
  EXPECT_LE(stats.jain_fairness, 1.0);
}

}  // namespace
}  // namespace incshrink
