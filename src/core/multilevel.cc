#include "src/core/multilevel.h"

#include "src/common/logging.h"
#include "src/oblivious/formats.h"
#include "src/relational/encode.h"
#include "src/storage/serialization.h"

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

/// Re-encodes view rows [first, view.size()) as source rows (the input
/// encoding stage 2 expects), charging and drawing on `proto`. Dummy view
/// rows become dummy source rows.
SharedRows ViewRowsToSourceRows(Protocol2PC* proto, const SharedRows& view,
                                size_t first) {
  // In-circuit rewiring: per row, copy key/date/rid and map isView -> valid.
  proto->AccountAndGates((view.size() - first) * kSrcWidth * kWordBits);
  Rng* rng = proto->internal_rng();
  SharedRows out(kSrcWidth);
  for (size_t r = first; r < view.size(); ++r) {
    const std::vector<Word> row = view.RecoverRow(r);
    // oblivious-ok: ideal-functionality rewiring — per-row copy/mux circuit
    // charged above; exactly one fresh-shared source row is emitted per view
    // row, real or dummy
    if (row[kViewIsViewCol] & 1) {
      std::vector<Word> src(kSrcWidth);
      src[kSrcValidCol] = 1;
      src[kSrcKeyCol] = row[kViewKeyCol];
      src[kSrcDateCol] = row[kViewDate1Col];
      src[kSrcRidCol] = row[kViewRid1Col];
      src[kSrcPayloadCol] = row[kViewRid2Col];
      out.AppendSecretRow(src, rng);
    } else {
      out.AppendSecretRow(MakeDummySourceRow(rng), rng);
    }
  }
  return out;
}

}  // namespace

MultiLevelPipeline::MultiLevelPipeline(const Config& config)
    : stage1_(MakeStage1Config(config)),
      stage2_(MakeStage2Config(config)),
      t2_owner_(MakeOwner2(stage2_.config(), stage2_.channel2())) {}

Status MultiLevelPipeline::Step(const std::vector<LogicalRecord>& new1,
                                const std::vector<LogicalRecord>& new2) {
  const size_t v1_before = stage1().view().size();
  INCSHRINK_RETURN_NOT_OK(stage1_.Step(new1, {}));

  // Stage 1's fresh V1 rows are stage 2's T1 upload for this step; the
  // filtered arrivals ride along as the frame's ground truth.
  UploadFrame handoff;
  handoff.owner_step = t2_owner_.clock() + 1;
  handoff.batch =
      ViewRowsToSourceRows(stage2_.proto(), stage1().view().rows(), v1_before);
  const FilterSpec& filter = stage1().config().filter;
  for (const LogicalRecord& rec : new1) {
    if (rec.payload >= filter.lo && rec.payload <= filter.hi) {
      handoff.arrivals.push_back(rec);
    }
  }
  // Lockstep leaves both channels empty between steps, so neither push can
  // be refused.
  INCSHRINK_CHECK(stage2_.channel1()->TryPush(EncodeUploadFrame(handoff)));
  INCSHRINK_CHECK(t2_owner_.TryStep(new2));
  return stage2_.Step();
}

RunSummary MultiLevelPipeline::Summary() const {
  RunSummary s = stage2_.Summary();
  s.total_mpc_seconds += stage1().Summary().total_mpc_seconds;
  s.final_view_mb += stage1().view().SizeMb();
  return s;
}

}  // namespace incshrink
