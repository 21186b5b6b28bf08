// Must-fail self-test of perfbench's output checks. Every check passes on
// honest artifacts that the workload code produces at reduced size, and
// fails once one fingerprint bit, one snapshot byte or one counter is
// corrupted. Registered with ctest in the perfbench build (see README.md).

#include <cmath>
#include <cstdio>
#include <string>

#include "perfbench/workloads.h"

using namespace perfbench;

namespace {

int g_checks = 0;
int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<uint64_t> FlipBit(std::vector<uint64_t> v) {
  v[v.size() / 2] ^= 1;
  return v;
}

Table2Size SmallTable2() {
  Table2Size size;
  size.datasets = 2;
  size.tpcds_steps = 16;
  size.cpdb_steps = 12;
  size.tpcds_flush_interval = 5;
  size.cpdb_flush_interval = 4;
  size.adhoc_every = 4;
  size.traced_check_steps = 6;
  return size;
}

void TestTable2Checks(Table2Kind kind, const char* name) {
  const Table2Plan plan = MakeTable2Plan(kind, 5, SmallTable2());
  std::vector<uint64_t> untraced, traced;
  for (const Table2Job& job : plan.jobs) {
    const Table2JobOutcome o = RunTable2Job(plan, job, 0, true);
    Tracer tracer;
    Table2Layers layers;
    const Table2JobOutcome t =
        RunTable2JobTraced(plan, job, 0, &tracer, &layers);
    untraced.push_back(o.fingerprint);
    traced.push_back(t.fingerprint);
    const std::string label = std::string(name) + " " + job.label;
    Expect(o.failed == 0 && t.failed == 0, label + ": no failed operation");
    Expect(EpsilonMatches(o.composed_eps, job.config.eps),
           label + ": honest epsilon passes");
    Expect(!EpsilonMatches(std::nextafter(o.composed_eps, 10.0),
                           job.config.eps),
           label + ": epsilon off by one ulp fails");
    Expect(EpsilonMatches(o.shard_eps, job.config.eps),
           label + ": honest shard slices compose to the budget");
    Expect(!EpsilonMatches(std::nextafter(o.shard_eps, 0.0), job.config.eps),
           label + ": shard composition off by one ulp fails");
    Expect(RoundTripsExactly(job.config, o.snapshot),
           label + ": honest snapshot round-trips");
    for (const size_t pos : {size_t{0}, o.snapshot.size() / 2,
                             o.snapshot.size() - 1}) {
      std::vector<uint8_t> bad = o.snapshot;
      bad[pos] ^= 0x01;
      Expect(!RoundTripsExactly(job.config, bad),
             label + ": snapshot with byte " + std::to_string(pos) +
                 " flipped fails");
    }
    Expect(!RoundTripsExactly(job.config, {}), label + ": empty snapshot fails");
    Expect(tracer.totals().count("Engine::BeginStep") == 1 &&
               layers.steps > 0,
           label + ": traced driver recorded spans and counters");
  }
  Expect(SameFingerprints(untraced, traced),
         std::string(name) + ": traced observables equal untraced");
  Expect(!SameFingerprints(untraced, FlipBit(traced)),
         std::string(name) + ": corrupted traced fingerprint fails");
}

void TestFleetChecks() {
  FleetSize size;
  size.tenants = 8;
  size.steps = 24;
  FleetInputs one = MakeFleetInputs(5, size);
  one.options.num_threads = 1;
  FleetInputs two = MakeFleetInputs(5, size);
  two.options.num_threads = 2;
  DeploymentFleet a(one.specs, one.options);
  DeploymentFleet b(two.specs, two.options);
  a.RunAll();
  b.RunAll();
  const std::vector<uint64_t> fa = TenantFingerprints(a);
  const std::vector<uint64_t> fb = TenantFingerprints(b);
  Expect(SameFingerprints(fa, fb), "fleet: 2 threads match 1 thread");
  Expect(!SameFingerprints(fa, FlipBit(fb)),
         "fleet: corrupted tenant fingerprint fails");

  incshrink::Result<std::vector<uint8_t>> blob = a.CheckpointTenant(3);
  Expect(blob.ok(), "fleet: tenant checkpoint");
  if (!blob.ok()) return;
  DeploymentFleet fresh(one.specs, one.options);
  Expect(fresh.RestoreTenant(3, *blob).ok(), "fleet: honest tenant restores");
  incshrink::Result<std::vector<uint8_t>> again = fresh.CheckpointTenant(3);
  Expect(again.ok() && *again == *blob,
         "fleet: save(restore(save)) is byte-identical");
  std::vector<uint8_t> bad = *blob;
  bad[bad.size() / 2] ^= 0x01;
  DeploymentFleet fresh2(one.specs, one.options);
  Expect(!fresh2.RestoreTenant(3, bad).ok(),
         "fleet: tenant snapshot with a flipped byte is refused");
}

void TestStormChecks() {
  StormSize size;
  size.owners = 300;
  size.pool_events = 900;
  size.conns = 2;
  size.rates = {20000, 40000};
  size.latency_rate = 0;
  size.slice_s = 0.1;  // three cycles: probes interleave with phases
  size.recovery_reps = 3;
  size.setup_reps = 1;
  RunArgs args;
  args.seed = 5;
  args.seconds = 1;
  Run run;
  StormEvidence ev;
  RunStorm(args, size, &run, &ev);
  Expect(run.checks.failed() == 0 && run.failed == 0 && StormMatches(ev),
         "storm: socket stream matches the in-process replay");
  StormEvidence bad = ev;
  bad.socket = FlipBit(bad.socket);
  Expect(!StormMatches(bad), "storm: corrupted socket fingerprint fails");
  bad = ev;
  bad.replay = FlipBit(bad.replay);
  Expect(!StormMatches(bad), "storm: corrupted replay fingerprint fails");
  bad = ev;
  bad.rejected = 1;
  Expect(!StormMatches(bad), "storm: one listener reject fails");
  bad = ev;
  bad.drained -= 1;
  Expect(!StormMatches(bad), "storm: one undelivered frame fails");
}

void TestWholeRuns() {
  for (const bool trace : {false, true}) {
    const std::string mode = trace ? " (traced)" : "";
    RunArgs args;
    args.seed = 9;
    args.seconds = 1;
    args.trace = trace;
    {
      Tracer tracer;
      Run run;
      if (trace) run.tracer = &tracer;
      RunTable2(Table2Kind::kDp, args, SmallTable2(), &run);
      Expect(run.checks.run() > 0 && run.checks.failed() == 0 &&
                 run.failed == 0,
             "table2_dp run passes its checks" + mode);
    }
    {
      Tracer tracer;
      Run run;
      if (trace) run.tracer = &tracer;
      FleetSize size;
      size.tenants = 8;
      size.steps = 24;
      RunFleet(args, size, &run);
      Expect(run.checks.run() > 0 && run.checks.failed() == 0 &&
                 run.failed == 0,
             "fleet_zipf run passes its checks" + mode);
    }
  }
}

void TestTracerSelfTime() {
  Tracer tracer;
  {
    Tracer::Span outer(&tracer, "outer");
    Tracer::Span inner(&tracer, "inner");
  }
  const auto& t = tracer.totals();
  const double outer_total = t.at("outer").total_s;
  const double outer_self = t.at("outer").self_s;
  const double inner_total = t.at("inner").total_s;
  Expect(std::fabs(outer_self + inner_total - outer_total) < 1e-12,
         "tracer: self time excludes the child span");
  Expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0,
         "tracer: child span records its parent");
}

void TestFastestTimes() {
  FastestTimes t;
  t.Add({3, 1});
  t.Add({2, 5});
  t.Add({1, 4});
  Expect(t.times() == std::vector<double>{1, 1} && t.Total() == 2,
         "fastest times: keeps each unit's fastest repetition");
}

}  // namespace

int main() {
  TestTracerSelfTime();
  TestFastestTimes();
  TestTable2Checks(Table2Kind::kDp, "table2_dp");
  TestTable2Checks(Table2Kind::kBaselines, "table2_baselines");
  TestFleetChecks();
  TestStormChecks();
  TestWholeRuns();
  std::printf("perfbench_checks_test: %d checks, %d failed\n", g_checks,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
