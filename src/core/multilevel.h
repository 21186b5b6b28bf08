#pragma once

#include <cstdint>
#include <vector>

#include "src/core/config.h"
#include "src/core/engine.h"
#include "src/core/metrics.h"
#include "src/core/owner_client.h"
#include "src/relational/growing_table.h"

namespace incshrink {

/// \brief Multi-level "Transform-and-Shrink" (paper Section 8, "Support for
/// complex query workloads") as a chain of two IncShrink engines.
///
/// Decomposes the query  sigma_pred(T1) JOIN T2  into two chained
/// deployments, each with its own secure cache, Shrink, noise stream and
/// privacy slice:
///
///   stage 1: a SynchronousDeployment of a filter view over the T1 stream
///            (sDPTimer, eps1, b = 1, no flush) whose DP-sized Shrink
///            output materializes V1;
///   stage 2: an Engine of a truncated windowed join, fed by one T2
///            OwnerClient and, on its T1 channel, by the rows each stage-1
///            step appended to V1, re-encoded as source rows. It
///            materializes V2 — the view queries are answered from.
///
/// Each step hands stage 1's fresh V1 rows to stage 2 as one upload frame
/// whose evaluation-only arrivals are the filtered T1 records, so stage 2's
/// own pair drain, ground truth, Transform, Shrink, query and StepMetrics
/// do all the per-step work. The per-stage budgets eps1/eps2 are exactly
/// the knobs the Appendix-D.2 allocation optimizer tunes: a starving stage
/// floods its successor with dummy rows, degrading end-to-end efficiency
/// but not correctness.
class MultiLevelPipeline {
 public:
  struct Config {
    double eps1 = 0.75;      ///< stage-1 (filter) privacy slice
    double eps2 = 0.75;      ///< stage-2 (join) privacy slice
    FilterSpec filter;       ///< stage-1 predicate on T1 payloads
    JoinSpec join;           ///< stage-2 join spec
    uint32_t omega = 1;      ///< join truncation bound
    uint32_t budget_b = 10;  ///< lifetime contribution budget (join stage)
    uint32_t window_steps = 10;
    uint32_t timer_T1 = 5;   ///< stage-1 sDPTimer interval
    uint32_t timer_T2 = 10;  ///< stage-2 sDPTimer interval
    uint32_t upload_rows_t1 = 8;
    uint32_t upload_rows_t2 = 8;
    CostModel cost_model = CostModel::EmpLikeLan();
    uint64_t seed = 77;
  };

  explicit MultiLevelPipeline(const Config& config);

  /// Processes one step of logical arrivals through both stages and answers
  /// the analyst query from V2.
  Status Step(const std::vector<LogicalRecord>& new1,
              const std::vector<LogicalRecord>& new2);

  /// Stage 2's summary, with stage 1's MPC time and both views' sizes.
  RunSummary Summary() const;

  /// The filter engine (V1) and the join engine (V2).
  Engine& stage1() { return stage1_.engine(); }
  const Engine& stage1() const { return stage1_.engine(); }
  Engine& stage2() { return stage2_; }
  const Engine& stage2() const { return stage2_; }

 private:
  SynchronousDeployment stage1_;
  Engine stage2_;
  OwnerClient t2_owner_;
};

}  // namespace incshrink
