// Shard scaling: wall-clock throughput (engine steps/sec) of a SINGLE hot
// deployment as the secure cache splits into K shards stepping their Shrink
// instances concurrently — the intra-tenant counterpart of
// bench_fleet_scaling's across-tenant sweep.
//
// Each (K, threads) cell runs the same TPC-ds stream through one engine
// with `num_cache_shards = K` and `cache_shard_threads = threads`. Shrink
// is configured to fire often (small timer interval, regular flushes) so
// the per-shard oblivious sorts dominate. The shard pool runs the per-shard
// Shrink plans and commits and one cache sort per shard as one pool task
// each; every sorting network itself is serial. At this stream's cache
// sizes a step's per-shard work is small next to the fork-join wake-ups,
// so threaded cells need not beat the 1-thread cell of their K: on a
// 4-core x86-64 host they ran at 0.35-0.95x. The speedup column measures
// that overhead; the part that must always hold is the determinism
// cross-check — the bench compares a summary+transcript fingerprint across
// all thread counts of each K and prints the verdict.
//
// Wall time is measurement-only (std::chrono::steady_clock around Run);
// nothing timed ever feeds back into simulated results.

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/engine.h"

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

uint64_t EngineFingerprint(const Engine& engine) {
  Fingerprint fp;
  const RunSummary s = engine.Summary();
  fp.Mix(s.steps);
  fp.Mix(s.updates);
  fp.Mix(s.flushes);
  fp.Mix(s.final_view_rows);
  fp.Mix(s.final_cache_rows);
  fp.Mix(s.final_true_count);
  fp.MixDouble(s.l1_error.mean());
  fp.MixDouble(s.total_mpc_seconds);
  fp.MixDouble(s.qet_seconds.mean());
  for (const TranscriptEvent& e : engine.transcript()) {
    fp.Mix(static_cast<uint64_t>(e.kind));
    fp.Mix(e.t);
    fp.Mix(e.rows);
  }
  return fp.hash;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  PrintHeader("Shard scaling: engine steps/sec vs cache shards x threads");
  const DatasetSpec tpcds = MakeTpcDs(opt.steps_tpcds);

  std::printf("%8s %8s | %10s %14s %10s | %s\n", "shards", "threads",
              "steps", "steps/sec", "speedup", "wall");
  bool deterministic = true;
  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    double base_seconds = 0;
    uint64_t base_fingerprint = 0;
    for (const int threads : {1, 2, 4}) {
      IncShrinkConfig cfg = WithShards(
          WithStrategy(tpcds.config, Strategy::kDpTimer), shards, threads);
      cfg.timer_T = 2;         // Shrink-heavy: release every other step
      cfg.flush_interval = 8;  // regular full-cache sorts per shard
      SynchronousDeployment deployment(cfg);
      const auto t0 = std::chrono::steady_clock::now();
      const Status st =
          deployment.Run(tpcds.workload.t1, tpcds.workload.t2);
      const auto t1 = std::chrono::steady_clock::now();
      if (!st.ok()) {
        std::printf("engine failed: %s\n", st.ToString().c_str());
        return 1;
      }
      const double seconds =
          std::chrono::duration<double>(t1 - t0).count();
      const uint64_t fingerprint = EngineFingerprint(deployment.engine());
      const uint64_t steps = deployment.Summary().steps;
      if (threads == 1) {
        base_seconds = seconds;
        base_fingerprint = fingerprint;
      } else if (fingerprint != base_fingerprint) {
        deterministic = false;
      }
      std::printf("%8u %8d | %10llu %14.1f %9.2fx | %s\n", shards, threads,
                  static_cast<unsigned long long>(steps),
                  static_cast<double>(steps) / std::max(1e-9, seconds),
                  base_seconds / std::max(1e-9, seconds),
                  FormatSeconds(seconds).c_str());
    }
  }
  std::printf("\nDeterminism cross-check (summary+transcript fingerprints "
              "identical across thread counts for every K): %s\n",
              deterministic ? "OK" : "FAILED");
  return deterministic ? 0 : 1;
}
