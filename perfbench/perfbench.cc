// perfbench: the repository benchmark driver.
//
//   perfbench --workload <table2_dp|table2_baselines|fleet_zipf|owner_storm>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Builds the workload's inputs from the seed, measures for the given wall
// time, runs the workload's output checks and prints, as the last stdout
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 drives the traced
// path and reports the per-layer metrics (see perfbench/README.md). Exits
// 1 when any check fails, 2 on bad arguments and 3 on a build that must not
// be measured (assertions on, no optimisation, or sanitizers).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/workloads.h"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"steps_per_s", "1/s"}, {"step_p50_ms", "ms"},
    {"step_p99_ms", "ms"},    {"recovery_ms", "ms"},  {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"oblivious.sort_batch_s", "s"},
    {"oblivious.compare_exchanges", "count"},
    {"oblivious.ns_per_compare_exchange", "ns"},
    {"engine.begin_step_s", "s"},
    {"transform.sim_s", "s"},
    {"transform.and_gates", "count"},
    {"transform.real_frac", "frac"},
    {"mpc.and_gates", "count/step"},
    {"mpc.bytes", "B/step"},
    {"mpc.rounds", "count/step"},
    {"shrink.syncs", "count"},
    {"shrink.flushes", "count"},
    {"shrink.sync_rows", "count"},
    {"shrink.sim_s", "s"},
    {"shrink.cache_rows_max", "count"},
    {"view.real_frac", "frac"},
    {"engine.finish_step_s", "s"},
    {"query.sim_s", "s"},
    {"query.rows_scanned", "count"},
    {"query.adhoc_s", "s"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.restore_s", "s"},
    {"checkpoint.bytes_per_row", "B"},
    {"owner.try_step_s", "s"},
    {"owner.frame_bytes", "B"},
    {"owner.pending_max", "count"},
    {"fleet.round_s", "s"},
    {"fleet.tenants_per_round", "count"},
    {"fleet.service_gap_p99", "rounds"},
    {"fleet.jain", "frac"},
    {"fleet.max_queue_depth", "count"},
    {"fleet.backpressure", "count"},
    {"net.listener_poll_s", "s"},
    {"net.sender_flush_s", "s"},
    {"net.frames_rejected", "count"},
    {"net.sender_retries", "count"},
    {"net.channel_depth_max", "count"},
    {"net.generator_lag_ms", "ms"},
    {"net.max_rate_fps", "1/s"},
    {"sim.mpc_s_per_step", "s"},
    {"sim.qet_ms", "ms"},
    {"sim.rel_error", "frac"},
    {"sim.view_mb", "MB"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

uint64_t ParseUnsigned(const char* flag, const char* value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || value[0] == '-') {
    Usage((std::string("non-numeric value for ") + flag).c_str());
  }
  return v;
}

// The metric set a run prints must be exactly the declared one, each with
// its declared unit; a traced run fills layers it does not exercise with 0.
template <size_t N>
bool CompleteMetrics(const MetricSpec (&specs)[N], bool fill, Report* report) {
  for (const MetricSpec& s : specs) {
    if (!report->Has(s.name)) {
      if (!fill) {
        std::fprintf(stderr, "error: metric %s was not measured\n", s.name);
        return false;
      }
      report->Set(s.name, 0.0, s.unit);
    }
  }
  if (report->Size() != N) {
    std::fprintf(stderr, "error: run reported undeclared metrics\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunArgs args;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const char* flag = argv[i];
    if (i + 1 >= argc) Usage((std::string(flag) + " is missing its value").c_str());
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = ParseUnsigned(flag, value);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = static_cast<double>(ParseUnsigned(flag, value));
      have_seconds = args.seconds >= 1;
    } else if (std::strcmp(flag, "--trace") == 0) {
      const uint64_t t = ParseUnsigned(flag, value);
      if (t > 1) Usage("--trace takes 0 or 1");
      args.trace = t == 1;
      have_trace = true;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      trace_out = value;
    } else {
      Usage((std::string("unrecognized flag ") + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds (>= 1) and --trace are required");
  }

  const HostInfo host = CollectHostInfo();
  std::printf("host %s\n", host.Json().c_str());
  if (!host.release) {
    std::fprintf(stderr,
                 "error: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release and no sanitizers\n",
                 host.build_type.c_str());
    return 3;
  }

  Tracer tracer;
  Run run;
  if (args.trace) run.tracer = &tracer;
  if (workload == "table2_dp") {
    Table2Size size;
    size.datasets = 4;
    RunTable2(Table2Kind::kDp, args, size, &run);
  } else if (workload == "table2_baselines") {
    Table2Size size;
    size.datasets = 2;  // NM's queries make an episode ~1 s per pair
    RunTable2(Table2Kind::kBaselines, args, size, &run);
  } else if (workload == "fleet_zipf") {
    RunFleet(args, FleetSize{}, &run);
  } else if (workload == "owner_storm") {
    RunStorm(args, StormSize{}, &run);
  } else {
    Usage(("unknown workload " + workload).c_str());
  }

  if (!args.trace) run.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  const bool complete = args.trace
                            ? CompleteMetrics(kPerLayer, true, &run.metrics)
                            : CompleteMetrics(kEndToEnd, false, &run.metrics);

  if (args.trace && !trace_out.empty() && !tracer.WriteTo(trace_out)) {
    std::fprintf(stderr, "error: cannot write spans to %s\n", trace_out.c_str());
    run.checks.Expect(false, "trace file written");
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("info:\n%s", run.info.Text().c_str());
  std::printf("metrics:\n%s", run.metrics.Text().c_str());
  std::printf("checks: %llu run, %llu failed\n",
              static_cast<unsigned long long>(run.checks.run()),
              static_cast<unsigned long long>(run.checks.failed()));
  const bool correct = complete && run.checks.failed() == 0;
  const uint64_t attempted = run.attempted + run.checks.run();
  std::printf("%s\n", run.metrics
                          .Json(correct, attempted == 0 ? 1 : attempted,
                                run.failed + run.checks.failed())
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
