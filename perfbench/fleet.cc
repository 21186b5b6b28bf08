// fleet_zipf: a DeploymentFleet of Zipf(1.1)-skewed TPC-ds tenants under the
// priority scheduler, on an nproc-thread pool with an owner lead.

#include <algorithm>
#include <memory>

#include "perfbench/workloads.h"
#include "src/dp/composition.h"

namespace perfbench {

using namespace incshrink;

namespace {

constexpr uint64_t kSaltStreams = 3;
constexpr uint64_t kSaltFleet = 4;

struct FleetPass {
  std::vector<double> round_s;
  DeploymentFleet::FleetStats stats;
  std::vector<uint64_t> fingerprints;
  double rel_error = 0;  ///< mean over tenants
  double view_mb = 0;    ///< summed over tenants
};

// Drains one fleet with StepAll, timing each round.
FleetPass DrainFleet(DeploymentFleet* fleet, Tracer* tracer) {
  FleetPass pass;
  while (true) {
    if (tracer != nullptr) tracer->NextStep();
    const Clock::time_point t0 = Clock::now();
    size_t live = 0;
    {
      Tracer::Span span(tracer, "DeploymentFleet::StepAll");
      live = fleet->StepAll();
    }
    if (live == 0) break;
    pass.round_s.push_back(SecondsSince(t0));
  }
  pass.stats = fleet->AggregateStats();
  pass.fingerprints = TenantFingerprints(*fleet);
  for (size_t i = 0; i < fleet->num_tenants(); ++i) {
    const RunSummary s = fleet->TenantSummary(i);
    pass.rel_error += s.OverallRelativeError() /
                      static_cast<double>(fleet->num_tenants());
    pass.view_mb += s.final_view_mb;
  }
  return pass;
}

}  // namespace

FleetInputs MakeFleetInputs(uint64_t seed, const FleetSize& size) {
  FleetInputs in;
  ZipfFleetParams zp;
  zp.num_tenants = size.tenants;
  zp.s = size.zipf_s;
  zp.steps = size.steps;
  zp.seed = DeriveSeed(seed, kSaltStreams);
  in.streams = GenerateZipfFleetWorkloads(zp);
  for (size_t i = 0; i < size.tenants; ++i) {
    DeploymentFleet::TenantSpec spec;
    spec.config = DefaultTpcDsConfig();
    spec.config.strategy = i % 2 == 0 ? Strategy::kDpTimer : Strategy::kDpAnt;
    // Owners run up to owner_lead steps ahead; draining two frames per
    // step lets a rationed tenant catch up.
    spec.config.max_batches_per_step = 2;
    if (i % 4 == 3) {
      // Every fourth tenant is K=4-sharded on one thread, so the shard
      // pool never nests inside the fleet pool.
      spec.config.num_cache_shards = 4;
      spec.config.cache_shard_threads = 1;
    }
    spec.name = "zipf#" + std::to_string(i) + "/" +
                StrategyName(spec.config.strategy) +
                (spec.config.num_cache_shards > 1 ? "/K4" : "");
    spec.workload = &in.streams[i];
    in.specs.push_back(std::move(spec));
  }
  in.options.root_seed = DeriveSeed(seed, kSaltFleet);
  in.options.num_threads = size.threads;
  in.options.owner_lead = size.owner_lead;
  in.options.scheduler.enabled = true;
  in.options.scheduler.services_per_round =
      std::max<uint32_t>(1, static_cast<uint32_t>(size.tenants / 4));
  in.options.scheduler.aging_weight = 4;
  return in;
}

std::vector<uint64_t> TenantFingerprints(const DeploymentFleet& fleet) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < fleet.num_tenants(); ++i) {
    Fingerprint fp;
    MixObservables(fleet.engine(i), &fp);
    out.push_back(fp.hash);
  }
  return out;
}

namespace {

// Restores every tenant snapshot into a fresh fleet built from `in`;
// returns each tenant's RestoreTenant time. With `check` set, each restored
// tenant must re-checkpoint to the identical bytes.
std::vector<double> RestoreAllTenants(
    const FleetInputs& in, const std::vector<std::vector<uint8_t>>& snapshots,
    bool check, Run* run) {
  DeploymentFleet fresh(in.specs, in.options);
  std::vector<double> restore_s;
  for (size_t i = 0; i < fresh.num_tenants(); ++i) {
    Status st;
    {
      Tracer::Span span(check ? run->tracer : nullptr,
                        "DeploymentFleet::RestoreTenant");
      const Clock::time_point t0 = Clock::now();
      st = fresh.RestoreTenant(i, snapshots[i]);
      restore_s.push_back(SecondsSince(t0));
    }
    ++run->attempted;
    if (!st.ok()) ++run->failed;
    if (check) {
      Result<std::vector<uint8_t>> again = [&] {
        Tracer::Span span(run->tracer, "DeploymentFleet::CheckpointTenant");
        return fresh.CheckpointTenant(i);
      }();
      run->checks.Expect(again.ok() && *again == snapshots[i],
                         in.specs[i].name +
                             ": save(restore(save)) is byte-identical");
    }
  }
  return restore_s;
}

}  // namespace

void RunFleet(const RunArgs& args, const FleetSize& size, Run* run) {
  // Every pass repeats the set-up (generate the tenant streams from the
  // seed, build the fleet), drains the fleet round by round, then restores
  // the first pass's tenant snapshots into a fresh fleet. A traced run
  // follows each pass with a traced pass of identical work.
  //
  // The schedule is deterministic, so round k of every pass serves the same
  // tenants with the same inputs. Host contention only ever slows a round
  // (every round waits for its slowest core), so each round's time is the
  // fastest of its repetitions, and each tenant's restore time likewise.
  // A pass has over 1000 rounds, so p99 has ten rounds beyond it.
  std::vector<double> setup_s;
  FastestTimes round_s;
  FastestTimes traced_round_s;
  FastestTimes restore_s;
  int untraced_passes = 0;
  int traced_passes = 0;
  FleetInputs in;
  FleetPass first;
  FleetPass traced_first;
  std::vector<std::vector<uint8_t>> snapshots;
  const Clock::time_point start = Clock::now();
  while (untraced_passes == 0 || SecondsSince(start) < args.seconds) {
    const Clock::time_point t0 = Clock::now();
    in = MakeFleetInputs(args.seed, size);
    DeploymentFleet fleet(in.specs, in.options);
    setup_s.push_back(SecondsSince(t0));
    FleetPass pass = DrainFleet(&fleet, nullptr);
    run->attempted += pass.stats.engine_steps;
    if (untraced_passes++ == 0) {
      for (size_t i = 0; i < fleet.num_tenants(); ++i) {
        Result<std::vector<uint8_t>> blob = fleet.CheckpointTenant(i);
        if (!blob.ok()) ++run->failed;
        snapshots.push_back(blob.ok() ? std::move(*blob)
                                      : std::vector<uint8_t>{});
        const Engine& e = fleet.engine(i);
        const double eps = in.specs[i].config.eps;
        run->checks.Expect(EpsilonMatches(e.ComposedEpsilon(), eps),
                           in.specs[i].name + ": ComposedEpsilon is the budget");
        run->checks.Expect(
            EpsilonMatches(SequentialComposition(e.shard_epsilons()), eps),
            in.specs[i].name + ": shard slices compose to the budget");
        run->checks.Expect(fleet.done() && fleet.QueueDepth(i) == 0,
                           in.specs[i].name + ": stream fully drained");
      }
    } else {
      run->checks.Expect(
          SameFingerprints(pass.fingerprints, first.fingerprints) &&
              pass.round_s.size() == first.round_s.size(),
          "repeated fleet reproduces every tenant");
    }
    round_s.Add(pass.round_s);
    if (untraced_passes == 1) first = std::move(pass);
    restore_s.Add(RestoreAllTenants(in, snapshots, false, run));
    if (args.trace) {
      DeploymentFleet traced(in.specs, in.options);
      FleetPass tp = DrainFleet(&traced, run->tracer);
      traced_round_s.Add(tp.round_s);
      if (traced_passes++ == 0) traced_first = std::move(tp);
    }
  }
  RestoreAllTenants(in, snapshots, true, run);

  // Determinism: each tenant's fingerprint equals the same fleet on one
  // thread.
  {
    FleetSize one = size;
    one.threads = 1;
    FleetInputs replay_in = MakeFleetInputs(args.seed, one);
    DeploymentFleet single(replay_in.specs, replay_in.options);
    run->checks.Expect(SameFingerprints(DrainFleet(&single, nullptr).fingerprints,
                                        first.fingerprints),
                       "every tenant matches the 1-thread fleet");
  }
  if (args.trace) {
    run->checks.Expect(
        SameFingerprints(traced_first.fingerprints, first.fingerprints),
        "traced fleet observables equal untraced observables");
  }

  const DeploymentFleet::FleetStats& stats = first.stats;
  const double steps = static_cast<double>(std::max<uint64_t>(1, stats.engine_steps));
  const double rel_error = first.rel_error;
  const double view_mb = first.view_mb;
  const double sim_mpc = stats.simulated_mpc_seconds / steps;
  const double sim_qet_ms = 1e3 * stats.simulated_query_seconds / steps;
  run->info.Set("sim_mpc_s_per_step", sim_mpc, "s");
  run->info.Set("sim_qet_ms", sim_qet_ms, "ms");
  run->info.Set("rel_error", rel_error, "frac");
  run->info.Set("view_mb", view_mb, "MB");
  run->info.Set("fleet_passes", untraced_passes, "count");
  run->info.Set("rounds_per_pass", static_cast<double>(stats.rounds), "count");
  run->info.Set("tenant_steps_per_pass", static_cast<double>(stats.engine_steps),
                "count");

  if (!args.trace) {
    Report& m = run->metrics;
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("steps_per_s",
          static_cast<double>(stats.engine_steps) / round_s.Total(), "1/s");
    m.Set("step_p50_ms", 1e3 * Percentile(round_s.times(), 50), "ms");
    m.Set("step_p99_ms", 1e3 * Percentile(round_s.times(), 99), "ms");
    m.Set("recovery_ms", 1e3 * restore_s.Total(), "ms");
    return;
  }

  const Tracer& tr = *run->tracer;
  const DeploymentFleet::FleetStats& ts = traced_first.stats;
  uint64_t traced_gap_p99 = 0;
  for (const auto& t : ts.tenant_service) {
    traced_gap_p99 = std::max(traced_gap_p99, t.gap_p99);
  }
  Report& m = run->metrics;
  const auto& totals = tr.totals();
  const auto rounds_it = totals.find("DeploymentFleet::StepAll");
  m.Set("fleet.round_s",
        rounds_it == totals.end() || rounds_it->second.count == 0
            ? 0.0
            : rounds_it->second.self_s /
                  static_cast<double>(rounds_it->second.count),
        "s");
  m.Set("fleet.tenants_per_round",
        static_cast<double>(ts.engine_steps) /
            static_cast<double>(std::max<uint64_t>(1, ts.rounds)),
        "count");
  m.Set("fleet.service_gap_p99", static_cast<double>(traced_gap_p99), "rounds");
  m.Set("fleet.jain", ts.jain_fairness, "frac");
  m.Set("fleet.max_queue_depth", static_cast<double>(ts.max_queue_depth),
        "count");
  m.Set("fleet.backpressure", static_cast<double>(ts.upload_backpressure),
        "count");
  m.Set("checkpoint.save_s", tr.SelfSeconds("DeploymentFleet::CheckpointTenant"),
        "s");
  m.Set("checkpoint.restore_s", tr.SelfSeconds("DeploymentFleet::RestoreTenant"),
        "s");
  m.Set("sim.mpc_s_per_step", sim_mpc, "s");
  m.Set("sim.qet_ms", sim_qet_ms, "ms");
  m.Set("sim.rel_error", rel_error, "frac");
  m.Set("sim.view_mb", view_mb, "MB");
  m.Set("trace.overhead_frac",
        traced_round_s.Total() / round_s.Total() - 1.0,
        "frac");
}

}  // namespace perfbench
