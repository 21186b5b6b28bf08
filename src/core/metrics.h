#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/stats.h"

namespace incshrink {

/// \brief Per-step measurements recorded by the engine: everything needed to
/// regenerate the paper's tables and figures.
struct StepMetrics {
  uint64_t t = 0;
  double transform_seconds = 0;  ///< simulated MPC time of Transform
  double shrink_seconds = 0;     ///< simulated MPC time of Shrink (+flush)
  double query_seconds = 0;      ///< simulated QET of this step's query
  uint64_t true_count = 0;       ///< q_t(D_t), ground truth
  uint64_t view_answer = 0;      ///< q~_t(V_t), the server's answer
  double l1_error = 0;           ///< |view_answer - true_count|
  double relative_error = 0;     ///< l1 / max(1, true_count)
  uint64_t view_rows = 0;        ///< padded rows currently in V
  uint64_t cache_rows = 0;       ///< padded rows currently in sigma
  bool synced = false;
  uint64_t sync_rows = 0;
  bool flushed = false;
};

/// \brief Aggregates over a full run — the rows of Table 2.
struct RunSummary {
  RunningStat l1_error;
  RunningStat relative_error;
  RunningStat true_count_stat;
  RunningStat qet_seconds;
  RunningStat transform_seconds;  ///< per Transform invocation
  RunningStat shrink_seconds;     ///< per *fired* Shrink update
  double total_mpc_seconds = 0;   ///< transform + shrink + flush (simulated)
  double total_query_seconds = 0; ///< sum of QETs (simulated)
  double final_view_mb = 0;
  uint64_t final_view_rows = 0;
  uint64_t final_cache_rows = 0;
  uint64_t updates = 0;   ///< fired Shrink syncs
  uint64_t flushes = 0;
  uint64_t steps = 0;
  uint64_t total_real_entries_cached = 0;  ///< sum of Transform real outputs
  uint64_t final_true_count = 0;

  /// Run-level relative error — mean |error| over mean true answer. This is
  /// the "Relative Error" statistic of the paper's Table 2 (an OTM view
  /// that never updates scores exactly 1).
  double OverallRelativeError() const {
    if (true_count_stat.mean() <= 0) return 0.0;
    return l1_error.mean() / true_count_stat.mean();
  }
};

/// Accumulates the per-step half of a RunSummary from a run's metrics, in
/// step order: error, truth and QET stats, Transform and fired-Shrink costs,
/// update and flush counts, totals, the step count and the final true
/// count. The caller fills the end-of-run state (view, cache, real entries).
inline RunSummary SummarizeSteps(const std::vector<StepMetrics>& metrics) {
  RunSummary s;
  for (const StepMetrics& m : metrics) {
    s.l1_error.Add(m.l1_error);
    s.relative_error.Add(m.relative_error);
    s.true_count_stat.Add(static_cast<double>(m.true_count));
    s.qet_seconds.Add(m.query_seconds);
    if (m.transform_seconds > 0) s.transform_seconds.Add(m.transform_seconds);
    if (m.synced) {
      s.shrink_seconds.Add(m.shrink_seconds);
      ++s.updates;
    }
    if (m.flushed) ++s.flushes;
    s.total_mpc_seconds += m.transform_seconds + m.shrink_seconds;
    s.total_query_seconds += m.query_seconds;
  }
  s.steps = metrics.size();
  if (!metrics.empty()) s.final_true_count = metrics.back().true_count;
  return s;
}

/// Nearest-rank percentile of an (unsorted) integer sample set: the smallest
/// sample s such that at least pct% of the samples are <= s. Exact integer
/// arithmetic, 0 for an empty set. Used for the fleet's per-tenant
/// service-latency stats (rounds between engine services).
inline uint64_t NearestRankPercentile(std::vector<uint64_t> samples,
                                      uint32_t pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // rank = ceil(pct/100 * n), 1-based; pct is clamped to [1, 100].
  const uint64_t n = samples.size();
  const uint64_t p = pct == 0 ? 1 : (pct > 100 ? 100 : pct);
  uint64_t rank = (p * n + 99) / 100;
  if (rank == 0) rank = 1;
  return samples[rank - 1];
}

/// Jain fairness index of a non-negative allocation vector:
/// (sum x)^2 / (n * sum x^2). 1.0 means perfectly even service, 1/n means
/// one tenant received everything. Degenerate inputs (empty, all-zero)
/// report 1.0 — an idle fleet is trivially fair.
inline double JainFairnessIndex(const std::vector<double>& x) {
  if (x.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sum_sq);
}

}  // namespace incshrink
