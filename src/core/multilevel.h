#pragma once

#include <cstdint>
#include <vector>

#include "src/core/config.h"
#include "src/core/metrics.h"
#include "src/core/shrink.h"
#include "src/core/transform.h"
#include "src/core/upload_policy.h"
#include "src/dp/accountant.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/relational/growing_table.h"
#include "src/relational/query.h"
#include "src/storage/materialized_view.h"
#include "src/storage/outsourced_store.h"
#include "src/storage/sharded_cache.h"

namespace incshrink {

/// \brief Multi-level "Transform-and-Shrink" (paper Section 8, "Support for
/// complex query workloads").
///
/// Decomposes the query  sigma_pred(T1) JOIN T2  into two chained
/// IncShrink operators, each with its own secure cache, Shrink instance and
/// privacy slice:
///
///   stage 1: an oblivious-selection Transform over the T1 stream whose
///            DP-sized Shrink output materializes the filtered view V1;
///   stage 2: a truncated windowed join whose T1-side *input stream* is the
///            stage-1 synchronization output, materializing V2 — the view
///            queries are answered from.
///
/// The per-stage budgets eps1/eps2 are exactly the knobs the Appendix-D.2
/// allocation optimizer tunes: a starving stage floods its successor with
/// dummy rows, degrading end-to-end efficiency but not correctness.
///
/// Both stages share one protocol instance (and so one noise stream); each
/// stage's cache is an unsharded ShardedSecureCache and its Shrink the
/// engine's Shrink protocol. The two owners upload fixed-size padded
/// batches through OwnerUploader, drawing shares from one owner stream.
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

  const std::vector<StepMetrics>& step_metrics() const { return metrics_; }
  RunSummary Summary() const;

  const MaterializedView& v1() const { return view1_; }
  const MaterializedView& v2() const { return view2_; }
  Protocol2PC* proto() { return &proto_; }

 private:
  /// Converts stage-1 synchronized view rows back into source-format rows
  /// (the input encoding stage 2 expects). Dummy view rows become dummy
  /// source rows.
  SharedRows ViewRowsToSourceRows(const SharedRows& rows);

  Config config_;
  Party s0_;
  Party s1_;
  Protocol2PC proto_;

  IncShrinkConfig stage1_cfg_;
  IncShrinkConfig stage2_cfg_;
  PrivacyAccountant accountant1_;
  PrivacyAccountant accountant2_;
  TransformProtocol transform1_;
  TransformProtocol transform2_;
  Shrink shrink1_;
  Shrink shrink2_;

  OutsourcedTable store_t1_;  ///< raw T1 uploads
  OutsourcedTable store_v1_;  ///< stage-1 outputs, re-encoded as sources
  OutsourcedTable store_t2_;  ///< raw T2 uploads
  ShardedSecureCache cache1_;
  ShardedSecureCache cache2_;
  MaterializedView view1_;
  MaterializedView view2_;

  WindowJoinCounter truth_;
  Rng owner_rng_;  ///< share randomness of both owners, T1 drawn first
  OwnerUploader uploader1_;
  OwnerUploader uploader2_;
  uint64_t t_ = 0;
  std::vector<StepMetrics> metrics_;
};

}  // namespace incshrink
