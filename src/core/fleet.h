#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/workload/generators.h"

namespace incshrink {

/// Protocol seed of tenant `i` in a fleet rooted at `root_seed`: a
/// splitmix64 substream, so tenants are statistically independent yet every
/// tenant's engine can be reconstructed standalone (the equivalence tests
/// rely on this being public and stable).
uint64_t DeriveTenantSeed(uint64_t root_seed, size_t tenant_index);

/// \brief A multi-tenant deployment fleet: N fully independent IncShrink
/// deployments (distinct view definitions, update strategies and streams)
/// served side by side, the shape Shrinkwrap/DP-Sync frame the server side
/// as — one shared service answering many DP-protected instances.
///
/// Each tenant is one in-process SynchronousDeployment — its Engine, owner
/// clients, upload channels, parties, accountant and RNG substream — so
/// tenants never share protocol state and stepping them concurrently is
/// observationally identical to stepping them one at a time. The fleet's only cross-tenant artifacts are aggregate throughput
/// counters and the (public) service schedule.
///
/// One round discipline. Every round has two phases, each concurrent
/// across the pool:
///
///  * **Arrivals**: every live tenant's owners push frame pairs, through
///    the deployment's TryOwnerStep, up to the configured lead over the
///    engine's clock. Arrivals are exogenous —
///    they happen whether or not the tenant wins engine service.
///
///  * **Service**: a set of backlogged tenants (queued frames) each runs
///    one engine step. With `scheduler.enabled == false` (the default) or
///    `services_per_round == 0`, every backlogged tenant is served. With
///    a positive budget B, service is rationed by a deterministic priority
///    scheduler: each round the fleet computes a public priority key per
///    backlogged tenant,
///
///        key(i) = sla_weight_i * (depth_weight * queue_depth_i + urgency_i)
///                 + aging_weight * age_i,
///
///    where urgency_i = max(0, H - StepsToNextPublicRelease(i)) pulls
///    tenants whose next publicly scheduled DP release (timer fire / cache
///    flush) is near, and age_i counts backlogged rounds since tenant i was
///    last serviced. The top B tenants by the fixed total order (key
///    descending, tenant id ascending) receive an engine step; everyone
///    else ages. Every input is public — queue depths, clocks, config
///    weights — so the schedule is a function of public state only and can
///    never leak secret cache contents (tests/oblivious_invariants_test.cc),
///    and it is computed serially before any engine work runs, so it is
///    bit-identical at any thread count.
///
///    Starvation-freedom: base priorities are bounded (depths by channel
///    capacity, urgency by H, weights by config), while age grows
///    unboundedly, one unit per backlogged round. A continuously backlogged
///    tenant is therefore serviced within StarvationBoundRounds() rounds of
///    its previous service — see the proof sketch on that accessor.
///
/// Serving every backlogged tenant is the same whichever way it is spelled
/// (scheduler disabled, B = 0, or B >= the tenant count), at any weights,
/// bit for bit (tests/fleet_scheduler_test.cc).
class DeploymentFleet {
 public:
  struct TenantSpec {
    std::string name;
    /// Per-tenant deployment config. `config.seed` is *ignored*; the fleet
    /// overrides it with DeriveTenantSeed(root_seed, index).
    /// `config.sla_weight` is the tenant's scheduling weight.
    IncShrinkConfig config;
    /// Non-owning: the stream must outlive the fleet. Streams may be shared
    /// between tenants (each tenant still runs its own noise realization).
    const GeneratedWorkload* workload = nullptr;
  };

  /// Knobs of the deterministic priority scheduler. All fields are public
  /// constants; none may ever be derived from secret state.
  struct SchedulerOptions {
    /// Off (default): every backlogged tenant is served every round, and
    /// no schedule is logged.
    bool enabled = false;
    /// B: engine services granted per round. 0 = every backlogged tenant.
    uint32_t services_per_round = 0;
    /// A: priority gained per backlogged-but-unserviced round. Must be
    /// >= 1 — aging is what guarantees starvation-freedom; larger values
    /// tighten the bound (see StarvationBoundRounds).
    uint32_t aging_weight = 1;
    /// Priority per queued upload frame (scaled by the tenant's
    /// sla_weight).
    uint32_t depth_weight = 1;
    /// H: deadline look-ahead horizon. A tenant whose next public DP
    /// release is d <= H engine steps away gains H - d priority (scaled by
    /// sla_weight); releases further out contribute nothing.
    uint32_t deadline_horizon = 16;
  };

  struct Options {
    uint64_t root_seed = 42;
    int num_threads = 0;  ///< 0 = INCSHRINK_THREADS / hardware concurrency
    /// How many steps tenants' owners may run ahead of their engines. 0
    /// (the default) is lockstep: one frame pair produced and drained per
    /// round — the pre-transport fleet cadence, bit for bit. Leads are
    /// additionally bounded by the channel capacity (public backpressure).
    uint32_t owner_lead = 0;
    /// Deterministic deadline/priority service discipline (see class
    /// comment). Default-constructed = disabled = serve every backlogged
    /// tenant.
    SchedulerOptions scheduler{};
  };

  DeploymentFleet(std::vector<TenantSpec> tenants, const Options& options);

  /// Advances the fleet by one round (see class comment), concurrently
  /// across the pool. Returns how many tenants
  /// were live this round (0 == the whole fleet is drained).
  size_t StepAll();

  /// Steps until every tenant has consumed and drained its stream.
  void RunAll();

  bool done() const;
  size_t num_tenants() const { return tenants_.size(); }
  const TenantSpec& tenant(size_t i) const { return tenants_[i]; }
  const Engine& engine(size_t i) const { return deployments_[i]->engine(); }
  const OwnerClient& owner1(size_t i) const {
    return deployments_[i]->owner1();
  }
  const OwnerClient& owner2(size_t i) const {
    return deployments_[i]->owner2();
  }
  /// Frames queued but not yet drained by tenant `i`'s engine.
  size_t QueueDepth(size_t i) const { return engine(i).queue_depth(); }
  uint64_t tenant_seed(size_t i) const;
  RunSummary TenantSummary(size_t i) const { return engine(i).Summary(); }

  /// Serializes tenant `i` — the fleet-side scheduling state (stream
  /// cursor, age, service history), then its deployment's engine (with
  /// channel backlogs) and both owners through the deployment's section
  /// codec — into one ICKP snapshot. Together with RestoreTenant
  /// this is live tenant migration: a tenant checkpointed out of one fleet
  /// resumes bit-identically inside another fleet built from the same specs
  /// (worker budgets may differ — scheduling knobs are excluded from the
  /// config fingerprint).
  Result<std::vector<uint8_t>> CheckpointTenant(size_t i);

  /// Restores a CheckpointTenant blob into slot `i`, whose spec must match
  /// the blob's config fingerprint. Atomic: a malformed or mismatched
  /// snapshot is rejected with a Status and the tenant keeps running on its
  /// prior state.
  Status RestoreTenant(size_t i, const std::vector<uint8_t>& snapshot);

  /// The public priority key of tenant `i` for the *next* round, exactly as
  /// the scheduler would compute it now. Exposed for tests and benches; a
  /// pure function of public state (queue depth, engine clock, config
  /// weights, age counter).
  uint64_t PriorityKey(size_t i) const;

  /// Upper bound, in rounds, on how long a *continuously backlogged*
  /// tenant can wait between engine services under the priority scheduler:
  ///
  ///     D + ceil((N - 1) / B) + 1,   D = floor(Pmax / A),
  ///
  /// where Pmax bounds every tenant's base (age-free) priority —
  /// sla_weight * (depth_weight * channel_capacity + deadline_horizon) —
  /// A is the aging weight and B the per-round service budget. Sketch: a
  /// tenant j can outrank an aged tenant i only while
  /// A * (age_i - age_j) <= Pmax, i.e. only if j's last service was within
  /// D rounds of i's; once serviced later than that, j never outranks i
  /// again. So after D rounds the set of possible over-rankers (at most
  /// N - 1 tenants) only shrinks — every round i is passed over, all B
  /// serviced tenants leave it permanently — and it empties within
  /// ceil((N - 1) / B) further rounds. Property-tested under adversarial
  /// weight/depth patterns in tests/fleet_scheduler_test.cc. Returns 1 when
  /// the scheduler is disabled (every backlogged tenant is served every
  /// round) or the fleet has no tenants.
  uint64_t StarvationBoundRounds() const;

  /// Per-round service schedule: schedule_log()[r] lists the tenants
  /// granted an engine step in round r, in service (priority) order.
  /// Recorded only while the priority scheduler is enabled. Public by
  /// construction — equal-shaped fleets with different secret contents log
  /// identical schedules (tests/oblivious_invariants_test.cc).
  const std::vector<std::vector<uint32_t>>& schedule_log() const {
    return schedule_log_;
  }

  /// Fleet-wide work counters (simulated protocol time, not wall time —
  /// wall-clock throughput is measured by bench_fleet_scaling around
  /// RunAll, outside the deterministic core).
  struct TenantServiceStats {
    uint64_t services = 0;  ///< engine steps granted to this tenant
    /// Nearest-rank percentiles and maximum of the tenant's service
    /// latency: rounds elapsed between consecutive engine services (1 =
    /// serviced every round).
    uint64_t gap_p50 = 0;
    uint64_t gap_p95 = 0;
    uint64_t gap_p99 = 0;
    uint64_t gap_max = 0;
  };
  struct FleetStats {
    uint64_t rounds = 0;        ///< StepAll invocations so far
    uint64_t engine_steps = 0;  ///< total tenant-steps executed
    uint64_t upload_frames = 0;       ///< frames pushed across all channels
    uint64_t upload_backpressure = 0; ///< refused pushes (channels full)
    /// Deepest any channel ever got — the true high-water mark, tracked at
    /// push time inside UploadChannel (never sampled at round boundaries,
    /// which would miss intra-round peaks under an owner lead).
    uint64_t max_queue_depth = 0;
    double simulated_mpc_seconds = 0;
    double simulated_query_seconds = 0;
    /// Per-tenant service-latency stats, indexed like the tenant specs.
    std::vector<TenantServiceStats> tenant_service;
    /// Jain fairness index of weighted service counts
    /// (services_i / sla_weight_i): 1.0 = perfectly weight-proportional
    /// service, 1/N = one tenant received everything.
    double jain_fairness = 1.0;
  };
  FleetStats AggregateStats() const;

  int num_threads() const { return pool_.num_threads(); }

 private:
  /// Owner phase of tenant `i`: push frames up to the configured lead over
  /// the engine's clock.
  void RunOwnerPhase(size_t i);

  std::vector<TenantSpec> tenants_;
  std::vector<std::unique_ptr<SynchronousDeployment>> deployments_;
  std::vector<uint64_t> cursor_;  ///< next stream index per tenant's owners
  uint32_t owner_lead_;
  SchedulerOptions scheduler_;
  /// Backlogged-but-unserviced rounds per tenant (scheduler aging term).
  std::vector<uint64_t> age_;
  std::vector<uint64_t> services_;  ///< engine steps per tenant
  /// Rounds since the tenant's last service (since the start, if never
  /// serviced). Relative, so it survives migration into another fleet.
  std::vector<uint64_t> rounds_since_service_;
  std::vector<std::vector<uint64_t>> service_gaps_;  ///< rounds between
  std::vector<std::vector<uint32_t>> schedule_log_;
  uint64_t rounds_ = 0;
  ThreadPool pool_;
};

}  // namespace incshrink
