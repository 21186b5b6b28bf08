#pragma once

// The four perfbench workloads. Each takes the run's seed, builds its inputs
// from it, measures for the requested wall time, runs its fail-closed output
// checks and fills one Run. The size structs default to the benchmark's
// sizes; the self-test shrinks them.

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/core/config.h"
#include "src/core/fleet.h"
#include "src/core/owner_client.h"
#include "src/mpc/cost_model.h"
#include "src/workload/generators.h"

namespace perfbench {

using incshrink::CircuitStats;
using incshrink::DeploymentFleet;
using incshrink::GeneratedWorkload;
using incshrink::IncShrinkConfig;
using incshrink::RunSummary;
using incshrink::Strategy;

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Everything one run produces. `metrics` goes to the last stdout line;
/// `info` is printed above it for humans (paper-metric and storm details
/// that are not part of the metric set of every workload).
struct Run {
  Report metrics;
  Report info;
  CheckLog checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< non-OK statuses, rejected/undelivered frames
  Tracer* tracer = nullptr;  ///< set on --trace 1
};

/// Folds a deployment's observables — summary, per-step metrics,
/// transcript and DP releases — into `fp`.
void MixObservables(const incshrink::Engine& engine, Fingerprint* fp);

// ----------------------------------------------------------------- table 2

enum class Table2Kind { kDp, kBaselines };

struct Table2Size {
  /// Independent TPC-ds/CPDB stream pairs drawn from the seed; every
  /// episode runs each job on each pair. More pairs average out how much
  /// work one seed's data happens to cause.
  uint64_t datasets = 1;
  uint64_t tpcds_steps = 240;  ///< bench_table2_end_to_end's default length
  uint64_t cpdb_steps = 144;
  /// Public flush cadence of the DP runs (steps): fires six times per
  /// stream; the default of 2000 would never fire at these lengths.
  uint32_t tpcds_flush_interval = 40;
  uint32_t cpdb_flush_interval = 24;
  uint32_t adhoc_every = 8;  ///< EP ad-hoc query cadence (steps)
  uint64_t traced_check_steps = 24;  ///< prefix replayed traced on --trace 0
};

struct Table2Stream {
  std::string name;
  GeneratedWorkload workload;
  IncShrinkConfig config;
};

struct Table2Job {
  size_t stream = 0;
  bool adhoc = false;  ///< issue ad-hoc analyst queries against the view
  IncShrinkConfig config;
  std::string label;
};

struct Table2Plan {
  uint32_t adhoc_every = 8;
  std::vector<Table2Stream> streams;
  std::vector<Table2Job> jobs;
};

Table2Plan MakeTable2Plan(Table2Kind kind, uint64_t seed,
                          const Table2Size& size);

/// Per-deployment outcome of one pass over a job's stream.
struct Table2JobOutcome {
  uint64_t fingerprint = 0;  ///< summaries, per-step metrics, transcript,
                             ///< releases and ad-hoc answers
  std::vector<double> step_s;  ///< each Step
  std::vector<double> work_s;  ///< each Step with its ad-hoc queries
  uint64_t failed = 0;
  RunSummary summary;
  double composed_eps = 0;  ///< Engine::ComposedEpsilon()
  /// Sequential composition of the per-shard epsilons the accountant spent.
  double shard_eps = 0;
  std::vector<uint8_t> snapshot;  ///< end-of-run SaveCheckpoint blob
};

/// Runs `steps` steps (0 = the whole stream) of one job with
/// SynchronousDeployment::Step only. With `snapshot` set, the end-of-run
/// checkpoint is taken too.
Table2JobOutcome RunTable2Job(const Table2Plan& plan, const Table2Job& job,
                              uint64_t steps, bool snapshot);

/// Counter deltas of traced table2 passes, summed over jobs.
struct Table2Layers {
  uint64_t steps = 0;
  uint64_t compare_exchanges = 0;      ///< every batched compare-exchange
  uint64_t sort_job_compare_exchanges = 0;  ///< inside ObliviousSortBatch
  uint64_t begin_step_and_gates = 0;   ///< drain + Transform + Shrink plan
  CircuitStats mpc;                    ///< whole-pass protocol totals
  double transform_sim_s = 0;
  uint64_t transform_real = 0;
  uint64_t transform_out_rows = 0;
  uint64_t syncs = 0;
  uint64_t flushes = 0;
  uint64_t sync_rows = 0;
  double shrink_sim_s = 0;
  uint64_t cache_rows_max = 0;
  uint64_t view_real_rows = 0;
  uint64_t view_rows = 0;
  double query_sim_s = 0;
  uint64_t rows_scanned = 0;
  uint64_t frames = 0;
  uint64_t frame_bytes = 0;
  uint64_t pending_max = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t snapshot_rows = 0;
};

/// The same pass through the public split (owner TryStep, BeginStep,
/// TakePendingSortJobs + ObliviousSortBatch, FinishStep) with spans and
/// counter deltas recorded into `tracer` and `layers`; the end-of-run
/// snapshot is always taken and restored once into a fresh deployment.
Table2JobOutcome RunTable2JobTraced(const Table2Plan& plan,
                                    const Table2Job& job, uint64_t steps,
                                    Tracer* tracer, Table2Layers* layers);

void RunTable2(Table2Kind kind, const RunArgs& args, const Table2Size& size,
               Run* run);

// ------------------------------------------------------------------- fleet

struct FleetSize {
  size_t tenants = 16;
  uint64_t steps = 264;
  double zipf_s = 1.1;
  uint32_t owner_lead = 8;
  int threads = 0;  ///< 0 = nproc
};

struct FleetInputs {
  std::vector<GeneratedWorkload> streams;
  std::vector<DeploymentFleet::TenantSpec> specs;
  DeploymentFleet::Options options;
};

FleetInputs MakeFleetInputs(uint64_t seed, const FleetSize& size);

/// Per-tenant fingerprints of a drained fleet (summary, transcript,
/// releases).
std::vector<uint64_t> TenantFingerprints(const DeploymentFleet& fleet);

void RunFleet(const RunArgs& args, const FleetSize& size, Run* run);

// ------------------------------------------------------------- owner storm

struct StormSize {
  uint64_t owners = 10000;
  double zipf_s = 1.1;
  uint64_t pool_events = 30000;  ///< distinct frames, replayed cyclically
  int conns = 0;                 ///< 0 = nproc
  /// Offered rates of the open loop, frames/s, ascending, from well below
  /// to above the single-thread capacity (1.2-2M frames/s at 4
  /// connections on a 4-core Xeon VM). A closed-loop phase follows them.
  std::vector<double> rates = {125000, 250000, 500000, 1000000, 2000000,
                               4000000};
  /// Index of the rate whose latency is reported as ingest_p50/p99_ms and
  /// whose generator lag is net.generator_lag_ms: well below capacity.
  size_t latency_rate = 1;
  double p99_limit_ms = 5.0;  ///< max_rate_fps latency limit
  double slice_s = 0.1;       ///< target length of one phase slice
  int recovery_reps = 101;
  int setup_reps = 5;
};

struct StormPhase {
  double offered_fps = 0;  ///< 0 = the closed-loop phase
  uint64_t frames = 0;     ///< sent (and drained)
  uint64_t unsent = 0;     ///< due but still waiting when the phase ended
  double drained_fps = 0;
  double over_limit_frac = 0;
  bool meets_limit = false;
  // Sampled at the latency rate and in the closed loop only.
  double p50_ms = 0;
  double p99_ms = 0;
  double lag_p99_ms = 0;
  uint64_t samples = 0;
};

/// Output-check evidence of a storm: per-channel fingerprints of the frames
/// drained from the socket-fed channels and of the same frames replayed
/// through in-process channels, plus the listener's rejects and the frame
/// counts on both ends.
struct StormEvidence {
  std::vector<uint64_t> socket;
  std::vector<uint64_t> replay;
  uint64_t rejected = 0;
  uint64_t sent = 0;
  uint64_t drained = 0;
};
bool StormMatches(const StormEvidence& evidence);

void RunStorm(const RunArgs& args, const StormSize& size, Run* run,
              StormEvidence* evidence = nullptr);

// ------------------------------------------------------------------ checks

/// Fail-closed comparisons shared by the workloads and the self-test.
bool SameFingerprints(const std::vector<uint64_t>& a,
                      const std::vector<uint64_t>& b);
/// save(restore(save)) is byte-identical: `snapshot` must restore into a
/// fresh deployment of `config` and re-save to the same bytes.
bool RoundTripsExactly(const IncShrinkConfig& config,
                       const std::vector<uint8_t>& snapshot);
/// The composed epsilon the engine claims is the budget configured.
bool EpsilonMatches(double composed, double configured);

}  // namespace perfbench
