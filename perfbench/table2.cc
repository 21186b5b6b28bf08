// table2_dp and table2_baselines: the paper's Table 2 streams (Q1 TPC-ds
// window join, Q2 CPDB with public Award) driven one SynchronousDeployment at
// a time on one thread.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "perfbench/workloads.h"
#include "src/core/analyst.h"
#include "src/core/engine.h"
#include "src/dp/composition.h"
#include "src/oblivious/sort.h"

namespace perfbench {

using namespace incshrink;

namespace {

constexpr uint64_t kSaltTpcds = 1;
constexpr uint64_t kSaltCpdb = 2;
constexpr uint64_t kSaltDataset = 1000;  ///< stride between stream pairs
constexpr uint64_t kSaltProtocol = 16;

}  // namespace

void MixObservables(const Engine& engine, Fingerprint* fp) {
  const RunSummary s = engine.Summary();
  fp->Mix(s.steps);
  fp->Mix(s.updates);
  fp->Mix(s.flushes);
  fp->Mix(s.final_view_rows);
  fp->Mix(s.final_cache_rows);
  fp->Mix(s.final_true_count);
  fp->Mix(s.total_real_entries_cached);
  fp->MixDouble(s.total_mpc_seconds);
  fp->MixDouble(s.total_query_seconds);
  fp->MixDouble(s.final_view_mb);
  fp->MixDouble(s.OverallRelativeError());
  for (const StepMetrics& m : engine.step_metrics()) {
    fp->Mix(m.t);
    fp->MixDouble(m.transform_seconds);
    fp->MixDouble(m.shrink_seconds);
    fp->MixDouble(m.query_seconds);
    fp->Mix(m.true_count);
    fp->Mix(m.view_answer);
    fp->Mix(m.view_rows);
    fp->Mix(m.cache_rows);
    fp->Mix(m.sync_rows);
    fp->Mix((m.synced ? 1u : 0u) | (m.flushed ? 2u : 0u));
  }
  for (const TranscriptEvent& ev : engine.transcript()) {
    fp->Mix(static_cast<uint64_t>(ev.kind));
    fp->Mix(ev.t);
    fp->Mix(ev.rows);
  }
  for (const LeakageRelease& r : engine.releases()) {
    fp->Mix(r.t);
    fp->Mix(r.size);
    fp->Mix(r.fired ? 1 : 0);
  }
}

namespace {

// Ad-hoc analyst queries of step t: a trailing 30-day range over the T2
// event date and a key lookup of a record seen so far. Parameters depend
// only on the public step and the job's seed.
std::vector<AnalystQuery> AdHocQueries(const Table2Stream& stream,
                                       const Table2Job& job, uint64_t t) {
  Rng rng(DeriveSeed(job.config.seed, t));
  const Word day = static_cast<Word>(t + 1);
  const Word lo = day > 30 ? day - 30 : 0;
  const auto& t1 = stream.workload.t1;
  const auto& recs = t1[rng.Next64() % (t + 1)];
  const Word key = recs.empty() ? 0 : recs[rng.Next64() % recs.size()].key;
  return {AnalystQuery::CountDateRange(lo, day),
          AnalystQuery::CountKeyEquals(key)};
}

Status TracedStep(SynchronousDeployment* dep,
                  const std::vector<LogicalRecord>& new1,
                  const std::vector<LogicalRecord>& new2, Tracer* tracer,
                  Table2Layers* layers) {
  Engine& engine = dep->engine();
  {
    Tracer::Span span(tracer, "OwnerClient::TryStep");
    if (!dep->owner1().TryStep(new1)) {
      return Status::Internal("owner 1 frame refused in lockstep");
    }
  }
  if (engine.config().view_kind != ViewKind::kFilter) {
    Tracer::Span span(tracer, "OwnerClient::TryStep");
    if (!dep->owner2().TryStep(new2)) {
      return Status::Internal("owner 2 frame refused in lockstep");
    }
  }
  layers->pending_max =
      std::max({layers->pending_max, dep->owner1().pending(),
                dep->owner2().pending()});
  Protocol2PC* proto = engine.proto();
  const CircuitStats before = proto->Snapshot();
  {
    Tracer::Span span(tracer, "Engine::BeginStep");
    INCSHRINK_RETURN_NOT_OK(engine.BeginStep());
  }
  layers->begin_step_and_gates += proto->StatsSince(before).and_gates;
  std::vector<SortJob> jobs = engine.TakePendingSortJobs();
  if (!jobs.empty()) {
    for (const SortJob& job : jobs) {
      if (job.algorithm == SortAlgorithm::kBatcher) {
        layers->sort_job_compare_exchanges +=
            SortNetworkCompareExchanges(job.rows->size());
      }
    }
    Tracer::Span span(tracer, "ObliviousSortBatch");
    ObliviousSortBatch(
        jobs.data(), jobs.size(),
        BatchExec{nullptr, engine.config().oblivious_batch_min_layer});
  }
  {
    Tracer::Span span(tracer, "Engine::FinishStep");
    INCSHRINK_RETURN_NOT_OK(engine.FinishStep());
  }
  for (const BatchTraceEvent& ev : proto->batch_trace()) {
    if (ev.kind == BatchTraceEvent::Kind::kCompareExchange ||
        ev.kind == BatchTraceEvent::Kind::kCompareExchangeLex) {
      layers->compare_exchanges += ev.ops;
    }
  }
  proto->EnableBatchTrace(true);  // clears the trace for the next step
  if (engine.config().strategy == Strategy::kNm) {
    layers->rows_scanned +=
        engine.store1().total_rows() + engine.store2().total_rows();
  }
  return Status::OK();
}

void CollectLayers(SynchronousDeployment* dep,
                   const std::vector<uint8_t>& snapshot,
                   Table2Layers* layers) {
  Engine& engine = dep->engine();
  layers->steps += engine.step_metrics().size();
  layers->mpc.Add(engine.proto()->stats());
  for (const StepMetrics& m : engine.step_metrics()) {
    layers->transform_sim_s += m.transform_seconds;
    layers->syncs += m.synced ? 1 : 0;
    layers->flushes += m.flushed ? 1 : 0;
    layers->sync_rows += m.sync_rows;
    layers->shrink_sim_s += m.shrink_seconds;
    layers->cache_rows_max = std::max(layers->cache_rows_max, m.cache_rows);
    layers->query_sim_s += m.query_seconds;
    if (engine.config().strategy != Strategy::kNm) {
      layers->rows_scanned += m.view_rows;
    }
  }
  for (const uint32_t real : engine.per_step_real_entries()) {
    layers->transform_real += real;
  }
  for (const TranscriptEvent& ev : engine.transcript()) {
    if (ev.kind == TranscriptEvent::Kind::kTransformOut) {
      layers->transform_out_rows += ev.rows;
    }
  }
  if (!engine.step_metrics().empty() &&
      engine.config().strategy != Strategy::kNm) {
    layers->view_real_rows += engine.step_metrics().back().view_answer;
    layers->view_rows += engine.view().size();
  }
  layers->frames += dep->owner1().frames_sent() + dep->owner2().frames_sent();
  layers->frame_bytes +=
      engine.channel1()->bytes_pushed() + engine.channel2()->bytes_pushed();
  layers->snapshot_bytes += snapshot.size();
  layers->snapshot_rows += engine.store1().total_rows() +
                           engine.store2().total_rows() +
                           engine.view().size() +
                           engine.Summary().final_cache_rows;
}

// Runs one job on `dep`, a deployment freshly built from job.config.
Table2JobOutcome RunJob(const Table2Plan& plan, const Table2Job& job,
                        SynchronousDeployment& dep, uint64_t steps,
                        bool snapshot, Tracer* tracer, Table2Layers* layers) {
  const Table2Stream& stream = plan.streams[job.stream];
  const GeneratedWorkload& wl = stream.workload;
  const uint64_t n = steps == 0 ? wl.steps() : std::min(steps, wl.steps());
  Table2JobOutcome out;
  out.step_s.reserve(n);
  out.work_s.reserve(n);
  Engine& engine = dep.engine();
  if (layers != nullptr) engine.proto()->EnableBatchTrace(true);
  Fingerprint fp;
  for (uint64_t t = 0; t < n; ++t) {
    if (tracer != nullptr) tracer->NextStep();
    const Clock::time_point start = Clock::now();
    Status st;
    if (tracer == nullptr) {
      st = dep.Step(wl.t1[t], wl.t2[t]);
    } else {
      Tracer::Span span(tracer, "step");
      st = TracedStep(&dep, wl.t1[t], wl.t2[t], tracer, layers);
    }
    out.step_s.push_back(SecondsSince(start));
    if (!st.ok()) {
      ++out.failed;
      std::fprintf(stderr, "%s step %llu: %s\n", job.label.c_str(),
                   static_cast<unsigned long long>(t), st.ToString().c_str());
      break;
    }
    if (job.adhoc && (t + 1) % plan.adhoc_every == 0) {
      for (const AnalystQuery& q : AdHocQueries(stream, job, t)) {
        Tracer::Span span(tracer, "Engine::AnswerAdHocQuery");
        const Engine::AdHocResult r = engine.AnswerAdHocQuery(q);
        fp.Mix(r.answer);
        fp.Mix(r.truth);
        fp.MixDouble(r.query_seconds);
      }
    }
    out.work_s.push_back(SecondsSince(start));
  }
  if (layers != nullptr) engine.proto()->EnableBatchTrace(false);
  MixObservables(engine, &fp);
  out.fingerprint = fp.hash;
  out.summary = engine.Summary();
  out.composed_eps = engine.ComposedEpsilon();
  out.shard_eps = SequentialComposition(engine.shard_epsilons());
  if (snapshot || layers != nullptr) {
    Result<std::vector<uint8_t>> blob = [&] {
      Tracer::Span span(tracer, "SynchronousDeployment::SaveCheckpoint");
      return dep.SaveCheckpoint();
    }();
    if (blob.ok()) {
      out.snapshot = std::move(*blob);
    } else {
      ++out.failed;
      std::fprintf(stderr, "%s SaveCheckpoint: %s\n", job.label.c_str(),
                   blob.status().ToString().c_str());
    }
  }
  if (layers != nullptr) {
    SynchronousDeployment fresh(job.config);
    Status st;
    {
      Tracer::Span span(tracer, "SynchronousDeployment::RestoreCheckpoint");
      st = fresh.RestoreCheckpoint(out.snapshot);
    }
    if (!st.ok()) ++out.failed;
    CollectLayers(&dep, out.snapshot, layers);
  }
  return out;
}

using Deployments = std::vector<std::unique_ptr<SynchronousDeployment>>;

Deployments BuildDeployments(const Table2Plan& plan) {
  Deployments deps;
  for (const Table2Job& job : plan.jobs) {
    deps.push_back(std::make_unique<SynchronousDeployment>(job.config));
  }
  return deps;
}

// One pass over every job of the plan, job j on deps[j].
struct Episode {
  std::vector<Table2JobOutcome> jobs;
};

Episode RunEpisode(const Table2Plan& plan, const Deployments& deps,
                   bool snapshot, Tracer* tracer, Table2Layers* layers) {
  Episode ep;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    ep.jobs.push_back(
        RunJob(plan, plan.jobs[j], *deps[j], 0, snapshot, tracer, layers));
  }
  return ep;
}

}  // namespace

Table2Plan MakeTable2Plan(Table2Kind kind, uint64_t seed,
                          const Table2Size& size) {
  Table2Plan plan;
  plan.adhoc_every = size.adhoc_every;
  for (uint64_t d = 0; d < size.datasets; ++d) {
    std::string tag;
    if (size.datasets > 1) tag.append("#").append(std::to_string(d));
    TpcDsParams tp;
    tp.steps = size.tpcds_steps;
    tp.seed = DeriveSeed(seed, kSaltTpcds + kSaltDataset * d);
    CpdbParams cp;
    cp.steps = size.cpdb_steps;
    cp.seed = DeriveSeed(seed, kSaltCpdb + kSaltDataset * d);
    plan.streams.push_back(
        {"TPC-ds" + tag, GenerateTpcDs(tp), DefaultTpcDsConfig()});
    plan.streams.back().config.flush_interval = size.tpcds_flush_interval;
    plan.streams.push_back({"CPDB" + tag, GenerateCpdb(cp), DefaultCpdbConfig()});
    plan.streams.back().config.flush_interval = size.cpdb_flush_interval;
  }

  const Strategy dp[] = {Strategy::kDpTimer, Strategy::kDpAnt};
  const Strategy baselines[] = {Strategy::kEp, Strategy::kNm};
  const Strategy* strategies = kind == Table2Kind::kDp ? dp : baselines;
  for (size_t s = 0; s < plan.streams.size(); ++s) {
    for (int k = 0; k < 2; ++k) {
      Table2Job job;
      job.stream = s;
      job.adhoc = strategies[k] == Strategy::kEp;
      job.config = plan.streams[s].config;
      job.config.strategy = strategies[k];
      job.config.seed = DeriveSeed(seed, kSaltProtocol + plan.jobs.size());
      job.label = plan.streams[s].name + "/" + StrategyName(strategies[k]);
      plan.jobs.push_back(std::move(job));
    }
  }
  return plan;
}

Table2JobOutcome RunTable2Job(const Table2Plan& plan, const Table2Job& job,
                              uint64_t steps, bool snapshot) {
  SynchronousDeployment dep(job.config);
  return RunJob(plan, job, dep, steps, snapshot, nullptr, nullptr);
}

Table2JobOutcome RunTable2JobTraced(const Table2Plan& plan,
                                    const Table2Job& job, uint64_t steps,
                                    Tracer* tracer, Table2Layers* layers) {
  SynchronousDeployment dep(job.config);
  return RunJob(plan, job, dep, steps, true, tracer, layers);
}

void RunTable2(Table2Kind kind, const RunArgs& args, const Table2Size& size,
               Run* run) {
  // The run repeats episodes, each on the next CPU, until the wall budget
  // is spent. An episode first repeats the set-up — generate the streams
  // from the seed and build every deployment — then runs each job once on
  // its deployment and restores each job's end-of-run snapshot into a fresh
  // deployment. A traced run follows every untraced episode with a traced
  // one of identical work.
  //
  // Every episode repeats the same deterministic steps, and host contention
  // only ever slows a step down, so each step's time is the fastest of its
  // repetitions (each restore's likewise). Step percentiles are taken per
  // deployment over its steps and combined by geometric mean: the pooled
  // distribution mixes datasets and strategies whose step costs differ by
  // an order of magnitude, so its median would jump between their modes
  // from seed to seed. Throughput and the tracing overhead count steps and
  // ad-hoc queries only, the overhead from the fastest repetitions of
  // traced and untraced episodes alike: set-up, snapshots, restores and the
  // traced run's counter collection stay outside them.
  CpuRotation rotation;
  std::vector<double> setup_s;
  std::vector<FastestTimes> step_s, work_s, traced_work_s;  // per job
  FastestTimes restore_s;                                   // per job
  int untraced_episodes = 0;
  int traced_episodes = 0;
  Table2Plan plan;
  Episode first;
  Table2Layers layers;
  std::vector<uint64_t> traced_fps;
  const Clock::time_point start = Clock::now();
  double episode_s = 0;  // duration of the last episode
  // Whole episodes only, and none that would end past the wall budget.
  while (untraced_episodes == 0 ||
         SecondsSince(start) + episode_s <= args.seconds) {
    const Clock::time_point episode_start = Clock::now();
    rotation.Next();
    plan = MakeTable2Plan(kind, args.seed, size);
    Deployments deps = BuildDeployments(plan);
    setup_s.push_back(SecondsSince(episode_start));
    Episode ep =
        RunEpisode(plan, deps, untraced_episodes == 0, nullptr, nullptr);
    deps.clear();
    step_s.resize(ep.jobs.size());
    work_s.resize(ep.jobs.size());
    for (size_t j = 0; j < ep.jobs.size(); ++j) {
      const Table2JobOutcome& o = ep.jobs[j];
      step_s[j].Add(o.step_s);
      work_s[j].Add(o.work_s);
      run->attempted += o.step_s.size();
      run->failed += o.failed;
    }
    if (untraced_episodes++ == 0) {
      first = std::move(ep);
    } else {
      for (size_t j = 0; j < ep.jobs.size(); ++j) {
        run->checks.Expect(
            ep.jobs[j].fingerprint == first.jobs[j].fingerprint &&
                ep.jobs[j].step_s.size() == first.jobs[j].step_s.size(),
            plan.jobs[j].label + ": repeated episode reproduces observables");
      }
    }
    std::vector<double> restores;
    for (size_t j = 0; j < plan.jobs.size(); ++j) {
      SynchronousDeployment fresh(plan.jobs[j].config);
      const Clock::time_point t0 = Clock::now();
      const Status st = fresh.RestoreCheckpoint(first.jobs[j].snapshot);
      restores.push_back(SecondsSince(t0));
      ++run->attempted;
      if (!st.ok()) ++run->failed;
    }
    restore_s.Add(restores);
    if (args.trace) {
      Table2Layers scratch;
      Episode traced =
          RunEpisode(plan, BuildDeployments(plan), true, run->tracer,
                     traced_episodes == 0 ? &layers : &scratch);
      traced_work_s.resize(traced.jobs.size());
      for (size_t j = 0; j < traced.jobs.size(); ++j) {
        traced_work_s[j].Add(traced.jobs[j].work_s);
      }
      if (traced_episodes++ == 0) {
        for (const Table2JobOutcome& o : traced.jobs) {
          traced_fps.push_back(o.fingerprint);
          run->failed += o.failed;
        }
      }
    }
    episode_s = SecondsSince(episode_start);
  }

  // Output checks.
  std::vector<uint64_t> untraced_fps;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    const Table2Job& job = plan.jobs[j];
    const Table2JobOutcome& o = first.jobs[j];
    untraced_fps.push_back(o.fingerprint);
    run->checks.Expect(EpsilonMatches(o.composed_eps, job.config.eps),
                       job.label + ": ComposedEpsilon equals the budget");
    run->checks.Expect(EpsilonMatches(o.shard_eps, job.config.eps),
                       job.label + ": shard slices compose to the budget");
    run->checks.Expect(RoundTripsExactly(job.config, o.snapshot),
                       job.label + ": save(restore(save)) is byte-identical");
  }
  if (args.trace) {
    run->checks.Expect(SameFingerprints(traced_fps, untraced_fps),
                       "traced observables equal untraced observables");
  } else {
    // Untraced runs replay a prefix of every job through the traced driver.
    std::vector<uint64_t> a, b;
    for (const Table2Job& job : plan.jobs) {
      Tracer scratch_tracer;
      Table2Layers scratch_layers;
      a.push_back(
          RunTable2Job(plan, job, size.traced_check_steps, false).fingerprint);
      b.push_back(RunTable2JobTraced(plan, job, size.traced_check_steps,
                                     &scratch_tracer, &scratch_layers)
                      .fingerprint);
    }
    run->checks.Expect(SameFingerprints(a, b),
                       "traced prefix observables equal untraced observables");
  }

  // Paper metrics of the first episode (simulated clock, deterministic).
  double mpc_s = 0, qet_s = 0, view_mb = 0, rel_error = 0;
  uint64_t steps = 0;
  for (const Table2JobOutcome& o : first.jobs) {
    mpc_s += o.summary.total_mpc_seconds;
    qet_s += o.summary.total_query_seconds;
    view_mb += o.summary.final_view_mb;
    rel_error += o.summary.OverallRelativeError();
    steps += o.summary.steps;
  }
  rel_error /= static_cast<double>(first.jobs.size());
  const double sim_mpc = mpc_s / static_cast<double>(std::max<uint64_t>(1, steps));
  const double sim_qet_ms =
      1e3 * qet_s / static_cast<double>(std::max<uint64_t>(1, steps));
  run->info.Set("sim_mpc_s_per_step", sim_mpc, "s");
  run->info.Set("sim_qet_ms", sim_qet_ms, "ms");
  run->info.Set("rel_error", rel_error, "frac");
  run->info.Set("view_mb", view_mb, "MB");
  run->info.Set("episodes", untraced_episodes, "count");
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    const RunSummary& s = first.jobs[j].summary;
    run->info.Set(plan.jobs[j].label + ".rel_error", s.OverallRelativeError(),
                  "frac");
    run->info.Set(plan.jobs[j].label + ".qet_ms", 1e3 * s.qet_seconds.mean(),
                  "ms");
    run->info.Set(plan.jobs[j].label + ".view_mb", s.final_view_mb, "MB");
  }

  if (!args.trace) {
    double work = 0, log_p50 = 0, log_p99 = 0;
    size_t timed_steps = 0;
    for (size_t j = 0; j < step_s.size(); ++j) {
      work += work_s[j].Total();
      timed_steps += work_s[j].times().size();
      log_p50 += std::log(Percentile(step_s[j].times(), 50));
      log_p99 += std::log(Percentile(step_s[j].times(), 99));
    }
    const double jobs = static_cast<double>(step_s.size());
    Report& m = run->metrics;
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("steps_per_s", static_cast<double>(timed_steps) / work, "1/s");
    m.Set("step_p50_ms", 1e3 * std::exp(log_p50 / jobs), "ms");
    m.Set("step_p99_ms", 1e3 * std::exp(log_p99 / jobs), "ms");
    m.Set("recovery_ms", 1e3 * restore_s.Total(), "ms");
    return;
  }

  const Tracer& tr = *run->tracer;
  const double per_ep = 1.0 / traced_episodes;
  const double n_steps = static_cast<double>(std::max<uint64_t>(1, layers.steps));
  Report& m = run->metrics;
  const double sort_s = tr.SelfSeconds("ObliviousSortBatch") * per_ep;
  m.Set("oblivious.sort_batch_s", sort_s, "s");
  m.Set("oblivious.compare_exchanges",
        static_cast<double>(layers.compare_exchanges), "count");
  m.Set("oblivious.ns_per_compare_exchange",
        layers.sort_job_compare_exchanges == 0
            ? 0.0
            : 1e9 * sort_s /
                  static_cast<double>(layers.sort_job_compare_exchanges),
        "ns");
  m.Set("engine.begin_step_s", tr.SelfSeconds("Engine::BeginStep") * per_ep,
        "s");
  m.Set("transform.sim_s", layers.transform_sim_s, "s");
  m.Set("transform.and_gates", static_cast<double>(layers.begin_step_and_gates),
        "count");
  m.Set("transform.real_frac",
        layers.transform_out_rows == 0
            ? 0.0
            : static_cast<double>(layers.transform_real) /
                  static_cast<double>(layers.transform_out_rows),
        "frac");
  m.Set("mpc.and_gates", static_cast<double>(layers.mpc.and_gates) / n_steps,
        "count/step");
  m.Set("mpc.bytes", static_cast<double>(layers.mpc.bytes) / n_steps,
        "B/step");
  m.Set("mpc.rounds", static_cast<double>(layers.mpc.rounds) / n_steps,
        "count/step");
  m.Set("shrink.syncs", static_cast<double>(layers.syncs), "count");
  m.Set("shrink.flushes", static_cast<double>(layers.flushes), "count");
  m.Set("shrink.sync_rows", static_cast<double>(layers.sync_rows), "count");
  m.Set("shrink.sim_s", layers.shrink_sim_s, "s");
  m.Set("shrink.cache_rows_max", static_cast<double>(layers.cache_rows_max),
        "count");
  m.Set("view.real_frac",
        layers.view_rows == 0 ? 0.0
                              : static_cast<double>(layers.view_real_rows) /
                                    static_cast<double>(layers.view_rows),
        "frac");
  m.Set("engine.finish_step_s", tr.SelfSeconds("Engine::FinishStep") * per_ep,
        "s");
  m.Set("query.sim_s", layers.query_sim_s, "s");
  m.Set("query.rows_scanned", static_cast<double>(layers.rows_scanned),
        "count");
  m.Set("query.adhoc_s", tr.SelfSeconds("Engine::AnswerAdHocQuery") * per_ep,
        "s");
  m.Set("checkpoint.save_s",
        tr.SelfSeconds("SynchronousDeployment::SaveCheckpoint") * per_ep, "s");
  m.Set("checkpoint.restore_s",
        tr.SelfSeconds("SynchronousDeployment::RestoreCheckpoint") * per_ep,
        "s");
  m.Set("checkpoint.bytes_per_row",
        layers.snapshot_rows == 0
            ? 0.0
            : static_cast<double>(layers.snapshot_bytes) /
                  static_cast<double>(layers.snapshot_rows),
        "B");
  m.Set("owner.try_step_s", tr.SelfSeconds("OwnerClient::TryStep") * per_ep,
        "s");
  m.Set("owner.frame_bytes",
        layers.frames == 0 ? 0.0
                           : static_cast<double>(layers.frame_bytes) /
                                 static_cast<double>(layers.frames),
        "B");
  m.Set("owner.pending_max", static_cast<double>(layers.pending_max), "count");
  m.Set("sim.mpc_s_per_step", sim_mpc, "s");
  m.Set("sim.qet_ms", sim_qet_ms, "ms");
  m.Set("sim.rel_error", rel_error, "frac");
  m.Set("sim.view_mb", view_mb, "MB");
  double traced_work = 0, untraced_work = 0;
  for (size_t j = 0; j < work_s.size(); ++j) {
    traced_work += traced_work_s[j].Total();
    untraced_work += work_s[j].Total();
  }
  m.Set("trace.overhead_frac", traced_work / untraced_work - 1.0, "frac");
}

}  // namespace perfbench
