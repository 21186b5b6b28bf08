// Fleet scaling: wall-clock throughput (tenant-steps/sec) of a multi-tenant
// DeploymentFleet as the tenant count and worker count grow.
//
// Each tenant is an independent deployment (alternating TPC-ds / CPDB
// streams, cycling Timer / ANT / EP strategies, per-tenant RNG substreams
// derived from one root seed). Because tenants share no protocol state, the
// fleet parallelizes embarrassingly: on a multicore host an 8-tenant fleet
// at 4 threads should finish >2x faster than at 1 thread, while producing
// bit-identical per-tenant results — the bench cross-checks a summary
// fingerprint across all thread counts and prints the verdict.
//
// Wall time here is measurement-only (std::chrono::steady_clock around
// RunAll); nothing timed ever feeds back into simulated results.

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/fleet.h"

using namespace incshrink;
using namespace incshrink::bench;

namespace {

struct Fingerprint {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001b3ull;
    }
  }
  void MixDouble(double d) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
};

uint64_t FleetFingerprint(const DeploymentFleet& fleet) {
  Fingerprint fp;
  for (size_t i = 0; i < fleet.num_tenants(); ++i) {
    const RunSummary s = fleet.TenantSummary(i);
    fp.Mix(s.steps);
    fp.Mix(s.updates);
    fp.Mix(s.final_view_rows);
    fp.Mix(s.final_true_count);
    fp.MixDouble(s.l1_error.mean());
    fp.MixDouble(s.total_mpc_seconds);
    fp.MixDouble(s.qet_seconds.mean());
  }
  return fp.hash;
}

std::vector<DeploymentFleet::TenantSpec> MakeTenants(
    size_t count, const DatasetSpec& tpcds, const DatasetSpec& cpdb) {
  const Strategy kMix[] = {Strategy::kDpTimer, Strategy::kDpAnt,
                           Strategy::kEp};
  std::vector<DeploymentFleet::TenantSpec> tenants;
  for (size_t i = 0; i < count; ++i) {
    const DatasetSpec& spec = (i % 2 == 0) ? tpcds : cpdb;
    DeploymentFleet::TenantSpec t;
    t.name = spec.name + "/" + StrategyName(kMix[i % 3]) + "#" +
             std::to_string(i);
    t.config = WithStrategy(spec.config, kMix[i % 3]);
    t.workload = &spec.workload;
    tenants.push_back(std::move(t));
  }
  return tenants;
}

// Worst p99 service latency (rounds between engine services) across the
// fleet — the tail a serving SLA would bound.
uint64_t MaxGapP99(const DeploymentFleet::FleetStats& stats) {
  uint64_t worst = 0;
  for (const auto& ts : stats.tenant_service) {
    worst = std::max(worst, ts.gap_p99);
  }
  return worst;
}

// Skewed-traffic mode (--zipf-s S): a Zipf(S) fleet — hot head, near-idle
// tail — served with the scheduler disabled (every backlogged tenant, every
// round) vs the deterministic priority scheduler with a rationed budget.
// Reports throughput, the fleet-worst p99 service latency and the weighted
// Jain fairness index, cross-checking the per-mode summary fingerprint
// across thread counts (the scheduler must be exactly thread-count
// invariant too).
bool RunSkewedTrafficBench(const Options& opt) {
  PrintHeader("Skewed traffic: serve-everyone vs priority scheduler");
  ZipfFleetParams zp;
  zp.num_tenants = opt.tenants;
  zp.s = opt.zipf_s;
  zp.steps = opt.steps_tpcds;
  zp.seed = 1729;
  const std::vector<GeneratedWorkload> streams =
      GenerateZipfFleetWorkloads(zp);
  std::vector<DeploymentFleet::TenantSpec> specs(zp.num_tenants);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "zipf#" + std::to_string(i);
    specs[i].config = DefaultTpcDsConfig();
    specs[i].config.strategy =
        i % 2 == 0 ? Strategy::kDpTimer : Strategy::kDpAnt;
    specs[i].config.max_batches_per_step = 2;
    specs[i].workload = &streams[i];
  }

  std::printf("zipf s = %.2f, %zu tenants, %llu steps/tenant (head tenant "
              "carries %.1fx the mean volume)\n\n",
              zp.s, specs.size(),
              static_cast<unsigned long long>(zp.steps),
              ZipfWeights(zp.num_tenants, zp.s)[0]);
  std::printf("%10s %8s | %12s %14s %10s %9s | %s\n", "scheduler", "threads",
              "steps", "steps/sec", "p99 gap", "fairness", "wall");
  bool deterministic = true;
  for (const bool scheduled : {false, true}) {
    DeploymentFleet::Options fo;
    fo.root_seed = 1729;
    fo.owner_lead = 8;
    if (scheduled) {
      fo.scheduler.enabled = true;
      fo.scheduler.services_per_round =
          std::max<uint32_t>(1, static_cast<uint32_t>(specs.size() / 4));
      fo.scheduler.aging_weight = 4;
    }
    uint64_t base_fingerprint = 0;
    for (const int threads : {1, 2, 4}) {
      fo.num_threads = threads;
      DeploymentFleet fleet(specs, fo);
      const auto t0 = std::chrono::steady_clock::now();
      fleet.RunAll();
      const auto t1 = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(t1 - t0).count();
      const DeploymentFleet::FleetStats stats = fleet.AggregateStats();
      const uint64_t fingerprint = FleetFingerprint(fleet);
      if (threads == 1) {
        base_fingerprint = fingerprint;
      } else if (fingerprint != base_fingerprint) {
        deterministic = false;
      }
      std::printf("%10s %8d | %12llu %14.1f %10llu %9.3f | %s\n",
                  scheduled ? "priority" : "lockstep", threads,
                  static_cast<unsigned long long>(stats.engine_steps),
                  static_cast<double>(stats.engine_steps) /
                      std::max(1e-9, seconds),
                  static_cast<unsigned long long>(MaxGapP99(stats)),
                  stats.jain_fairness, FormatSeconds(seconds).c_str());
    }
  }
  std::printf("\n");
  return deterministic;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  PrintHeader("Fleet scaling: tenant-steps/sec vs tenants x threads");
  const DatasetSpec tpcds = MakeTpcDs(opt.steps_tpcds);
  const DatasetSpec cpdb = MakeCpdb(opt.steps_cpdb);

  std::printf("%8s %8s | %12s %14s %10s | %s\n", "tenants", "threads",
              "steps", "steps/sec", "speedup", "wall");
  bool deterministic = true;
  for (const size_t tenants : {2u, 4u, 8u}) {
    const std::vector<DeploymentFleet::TenantSpec> specs =
        MakeTenants(tenants, tpcds, cpdb);
    double base_seconds = 0;
    uint64_t base_fingerprint = 0;
    for (const int threads : {1, 2, 4}) {
      DeploymentFleet fleet(specs, {/*root_seed=*/1729, threads});
      const auto t0 = std::chrono::steady_clock::now();
      fleet.RunAll();
      const auto t1 = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(t1 - t0).count();
      const DeploymentFleet::FleetStats stats = fleet.AggregateStats();
      const uint64_t fingerprint = FleetFingerprint(fleet);
      if (threads == 1) {
        base_seconds = seconds;
        base_fingerprint = fingerprint;
      } else if (fingerprint != base_fingerprint) {
        deterministic = false;
      }
      std::printf("%8zu %8d | %12llu %14.1f %9.2fx | %s\n", tenants, threads,
                  static_cast<unsigned long long>(stats.engine_steps),
                  static_cast<double>(stats.engine_steps) /
                      std::max(1e-9, seconds),
                  base_seconds / std::max(1e-9, seconds),
                  FormatSeconds(seconds).c_str());
    }
  }
  if (opt.zipf_s > 0) {
    std::printf("\n");
    deterministic = RunSkewedTrafficBench(opt) && deterministic;
  }
  std::printf("\nDeterminism cross-check (per-tenant summary fingerprints "
              "identical across thread counts): %s\n",
              deterministic ? "OK" : "FAILED");
  return deterministic ? 0 : 1;
}
