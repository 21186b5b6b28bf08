#include "src/core/multilevel.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/oblivious/filter.h"
#include "src/oblivious/formats.h"
#include "src/relational/encode.h"

namespace incshrink {

namespace {

IncShrinkConfig MakeStage1Config(const MultiLevelPipeline::Config& c) {
  IncShrinkConfig cfg;
  cfg.eps = c.eps1;
  cfg.omega = 1;
  cfg.budget_b = 1;  // selection is 1-stable; one participation per record
  cfg.view_kind = ViewKind::kFilter;
  cfg.filter = c.filter;
  cfg.join.omega = 1;
  cfg.strategy = Strategy::kDpTimer;
  cfg.timer_T = c.timer_T1;
  cfg.flush_interval = 0;
  cfg.upload_rows_t1 = c.upload_rows_t1;
  cfg.upload_rows_t2 = c.upload_rows_t2;
  cfg.cost_model = c.cost_model;
  cfg.seed = c.seed + 1;
  return cfg;
}

IncShrinkConfig MakeStage2Config(const MultiLevelPipeline::Config& c) {
  IncShrinkConfig cfg;
  cfg.eps = c.eps2;
  cfg.omega = c.omega;
  cfg.budget_b = c.budget_b;
  cfg.view_kind = ViewKind::kWindowJoin;
  cfg.join = c.join;
  cfg.join.omega = c.omega;
  cfg.window_steps = c.window_steps;
  cfg.strategy = Strategy::kDpTimer;
  cfg.timer_T = c.timer_T2;
  cfg.flush_interval = 0;
  cfg.upload_rows_t1 = c.upload_rows_t1;
  cfg.upload_rows_t2 = c.upload_rows_t2;
  cfg.cost_model = c.cost_model;
  cfg.seed = c.seed + 2;
  return cfg;
}

}  // namespace

MultiLevelPipeline::MultiLevelPipeline(const Config& config)
    : config_(config),
      s0_(0, config.seed * 31 + 7),
      s1_(1, config.seed * 37 + 11),
      proto_(&s0_, &s1_, config.cost_model),
      stage1_cfg_(MakeStage1Config(config)),
      stage2_cfg_(MakeStage2Config(config)),
      accountant1_(stage1_cfg_.eps, stage1_cfg_.budget_b, stage1_cfg_.omega),
      accountant2_(stage2_cfg_.eps, stage2_cfg_.budget_b, stage2_cfg_.omega),
      transform1_(&proto_, stage1_cfg_, &accountant1_),
      transform2_(&proto_, stage2_cfg_, &accountant2_),
      shrink1_(&proto_, stage1_cfg_),
      shrink2_(&proto_, stage2_cfg_),
      store_t1_(kSrcWidth),
      store_v1_(kSrcWidth),
      store_t2_(kSrcWidth),
      cache1_(&proto_, 1, stage1_cfg_.eps, stage1_cfg_.budget_b,
              stage1_cfg_.seed, config.cost_model),
      cache2_(&proto_, 1, stage2_cfg_.eps, stage2_cfg_.budget_b,
              stage2_cfg_.seed, config.cost_model),
      truth_(WindowJoinQuery{config.join.window_lo, config.join.window_hi,
                             config.join.use_window}),
      owner_rng_(config.seed ^ 0xBEEF1234CAFE5678ull),
      uploader1_(UploadPolicyConfig{}, config.upload_rows_t1,
                 /*is_public=*/false, config.seed),
      uploader2_(UploadPolicyConfig{}, config.upload_rows_t2,
                 /*is_public=*/false, config.seed) {
  INCSHRINK_CHECK(stage1_cfg_.Validate().ok());
  INCSHRINK_CHECK(stage2_cfg_.Validate().ok());
}

SharedRows MultiLevelPipeline::ViewRowsToSourceRows(const SharedRows& rows) {
  // In-circuit rewiring: per row, copy key/date/rid and map isView -> valid.
  proto_.AccountAndGates(rows.size() * kSrcWidth * kWordBits);
  Rng* rng = proto_.internal_rng();
  SharedRows out(kSrcWidth);
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<Word> view = rows.RecoverRow(r);
    // oblivious-ok: ideal-functionality rewiring — per-row copy/mux circuit
    // charged above; exactly one fresh-shared source row is emitted per view
    // row, real or dummy
    if (view[kViewIsViewCol] & 1) {
      std::vector<Word> src(kSrcWidth);
      src[kSrcValidCol] = 1;
      src[kSrcKeyCol] = view[kViewKeyCol];
      src[kSrcDateCol] = view[kViewDate1Col];
      src[kSrcRidCol] = view[kViewRid1Col];
      src[kSrcPayloadCol] = view[kViewRid2Col];
      out.AppendSecretRow(src, rng);
    } else {
      out.AppendSecretRow(MakeDummySourceRow(rng), rng);
    }
  }
  return out;
}

Status MultiLevelPipeline::Step(const std::vector<LogicalRecord>& new1,
                                const std::vector<LogicalRecord>& new2) {
  ++t_;
  StepMetrics m;
  m.t = t_;

  // Ground truth: filtered T1 stream joined with T2.
  std::vector<LogicalRecord> filtered;
  for (const LogicalRecord& rec : new1) {
    if (rec.payload >= config_.filter.lo && rec.payload <= config_.filter.hi)
      filtered.push_back(rec);
  }
  m.true_count = truth_.Step(filtered, new2);

  // Owner uploads (fixed-size policy for both streams; records beyond the
  // batch size wait in the uploaders' queues).
  store_t1_.AppendBatch(uploader1_.BuildBatch(t_, new1, &owner_rng_));
  store_t2_.AppendBatch(uploader2_.BuildBatch(t_, new2, &owner_rng_));

  // ---- Stage 1: oblivious selection + DP shrink into V1. Its synchronized
  // rows form the (public-size) input stream of stage 2.
  const CircuitStats before1 = proto_.Snapshot();
  INCSHRINK_ASSIGN_OR_RETURN(
      const TransformProtocol::StepResult tr1,
      transform1_.StepFilter(t_, store_t1_, &cache1_));
  (void)tr1;
  MaterializedView synced;
  shrink1_.Step(t_, &cache1_.shard(0), &synced);
  // The freshly synchronized block is both appended to V1 and re-encoded
  // as stage-2 source rows.
  view1_.Append(synced.rows());
  store_v1_.AppendBatch(ViewRowsToSourceRows(synced.rows()));
  m.transform_seconds = proto_.SimulatedSecondsSince(before1);

  // ---- Stage 2: truncated join of the stage-1 output stream against T2.
  const CircuitStats before2 = proto_.Snapshot();
  INCSHRINK_ASSIGN_OR_RETURN(
      const TransformProtocol::StepResult tr2,
      transform2_.Step(t_, store_v1_, store_t2_, &cache2_));
  (void)tr2;
  const ShrinkResult sync2 = shrink2_.Step(t_, &cache2_.shard(0), &view2_);
  m.shrink_seconds = proto_.SimulatedSecondsSince(before2);
  m.synced = sync2.fired;
  m.sync_rows = sync2.sync_rows;

  // ---- Analyst query over V2.
  const CircuitStats before_q = proto_.Snapshot();
  const WordShares count = ObliviousCountWhere(
      &proto_, view2_.rows(), kViewIsViewCol, ObliviousPredicate::True());
  m.view_answer = proto_.Reveal(count);
  m.query_seconds = proto_.SimulatedSecondsSince(before_q);

  m.l1_error = std::abs(static_cast<double>(m.view_answer) -
                        static_cast<double>(m.true_count));
  m.relative_error =
      m.l1_error / std::max<double>(1.0, static_cast<double>(m.true_count));
  m.view_rows = view2_.size();
  m.cache_rows = cache1_.size() + cache2_.size();
  metrics_.push_back(m);
  return Status::OK();
}

RunSummary MultiLevelPipeline::Summary() const {
  RunSummary s = SummarizeSteps(metrics_);
  s.final_view_mb = view1_.SizeMb() + view2_.SizeMb();
  s.final_view_rows = view2_.size();
  return s;
}

}  // namespace incshrink
