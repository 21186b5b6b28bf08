#include "src/core/shrink.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/dp/laplace.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/formats.h"

namespace incshrink {

namespace {
constexpr double kFpOffset = 1048576.0;  // 2^20
constexpr double kFpScale = 1024.0;      // 2^10
}  // namespace

Word EncodeThresholdFixedPoint(double x) {
  const double shifted = (x + kFpOffset) * kFpScale;
  if (shifted <= 0) return 0;
  if (shifted >= 4294967295.0) return 0xFFFFFFFFu;
  return static_cast<Word>(std::llround(shifted));
}

double DecodeThresholdFixedPoint(Word enc) {
  return static_cast<double>(enc) / kFpScale - kFpOffset;
}

SortJob SyncSortJob(Protocol2PC* proto, SecureCache* cache,
                    const IncShrinkConfig& config) {
  return SortJob{proto,         cache->rows(),         kViewSortKeyCol, 0,
                 /*lex=*/false, /*ascending=*/false, config.sort_algorithm};
}

Shrink::Shrink(Protocol2PC* proto, const IncShrinkConfig& config)
    : proto_(proto), config_(config) {
  INCSHRINK_CHECK(config.strategy == Strategy::kDpTimer || ant());
  if (ant()) {
    // The placeholder sharing is drawn before the first threshold so the
    // protocol stream matches every recorded run.
    shared_theta_ = proto->FreshShare(0);
    RefreshThreshold();
  }
}

void Shrink::RefreshThreshold() {
  // theta~ = theta + Lap(2b/eps1), secret-shared across the servers
  // (Alg. 3 lines 2-3 / 11-12), with eps1 = eps/2.
  const double noise =
      proto_->JointLaplace(2.0 * config_.budget_b / (config_.eps / 2));
  const Word enc = EncodeThresholdFixedPoint(config_.ant_theta + noise);
  shared_theta_ = proto_->FreshShare(enc);
}

double Shrink::noisy_threshold_inside() const {
  return DecodeThresholdFixedPoint(proto_->RecoverInside(shared_theta_));
}

ShrinkPlan Shrink::Plan(uint64_t t, SecureCache* cache) {
  ShrinkPlan plan;
  // Alg. 2 line 2: the timer check is a public function of the clock.
  if (!ant() && (config_.timer_T == 0 || t % config_.timer_T != 0)) {
    return plan;
  }
  plan.before = proto_->Snapshot();

  // Alg. 2 line 3 / Alg. 3 line 5: recover c internally.
  const uint32_t c = cache->RecoverCounterInside(proto_);
  const double b = static_cast<double>(config_.budget_b);
  double release_scale = b / config_.eps;
  if (ant()) {
    // Alg. 3 lines 5-7: recover theta~ internally, distort c, compare.
    const double eps1 = config_.eps / 2;
    const double theta = noisy_threshold_inside();
    const double c_noisy =
        static_cast<double>(c) + proto_->JointLaplace(4.0 * b / eps1);
    proto_->AccountAndGates(kWordBits);  // in-circuit threshold comparison
    // oblivious-ok: above-noisy-threshold test (Alg. 3 lines 5-7) — both
    // operands carry fresh Laplace noise, so the comparison outcome is the
    // eps1-budgeted DP release the SVT analysis pays for; publishing the
    // fire/no-fire bit is the mechanism's sanctioned output
    if (c_noisy < theta) {
      plan.early.simulated_seconds =
          proto_->SimulatedSecondsSince(plan.before);
      return plan;
    }
    // Alg. 3 line 8: a Laplace release at scale b/eps2 (eps2 = eps/2) is
    // eps2-DP for the b-sensitive counter, so the eps1 + eps2 = eps split
    // of line 1 composes exactly. (Algorithm 5 / M_ant use the more
    // conservative 2b/eps2; that variant only strengthens the guarantee.)
    release_scale = b / (config_.eps / 2);
  }

  // Alg. 2 lines 4-6 / Alg. 3 line 8: distort c with joint noise.
  const double noise = proto_->JointLaplace(release_scale);
  plan.released_size = ClampRoundNonNegative(static_cast<double>(c) + noise);
  plan.fired = true;
  return plan;
}

ShrinkResult Shrink::Commit(const ShrinkPlan& plan, SecureCache* cache,
                            MaterializedView* view) {
  INCSHRINK_CHECK(plan.fired);
  ShrinkResult result;

  // Alg. 2 lines 7-8 / Alg. 3 lines 9-10: prefix fetch from the sorted
  // cache, view append.
  result.released_size = plan.released_size;
  SharedRows fetched =
      TakeSortedPrefix(proto_, cache->rows(), plan.released_size);
  result.sync_rows = fetched.size();
  view->Append(fetched);

  // Alg. 3 lines 11-12: fresh threshold (sDPANT only).
  if (ant()) RefreshThreshold();
  // Alg. 2 line 9 / Alg. 3 line 13: reset and re-share the counter.
  cache->ResetCounter(proto_);

  result.fired = true;
  result.simulated_seconds = proto_->SimulatedSecondsSince(plan.before);
  return result;
}

ShrinkResult Shrink::Step(uint64_t t, SecureCache* cache,
                          MaterializedView* view) {
  ShrinkPlan plan = Plan(t, cache);
  // oblivious-ok: the fire decision is public — sDPTimer's is a function of
  // the step counter and timer_T (Alg. 2 line 2), sDPANT's the DP-released
  // SVT outcome of the noisy-threshold comparison in Plan
  if (!plan.fired) return plan.early;
  SortJob job = SyncSortJob(proto_, cache, config_);
  ObliviousSortBatch(&job, 1);
  return Commit(plan, cache, view);
}

// ---------------------------------------------------------------------------
// Cache flush
// ---------------------------------------------------------------------------

bool FlushDue(const IncShrinkConfig& config, uint64_t t) {
  return config.flush_interval != 0 && t % config.flush_interval == 0;
}

ShrinkResult CommitFlush(Protocol2PC* proto, const IncShrinkConfig& config,
                         SecureCache* cache, MaterializedView* view,
                         const CircuitStats& before) {
  ShrinkResult result;
  SharedRows fetched =
      TakeFlushPrefix(proto, cache->rows(), config.flush_size);
  result.sync_rows = fetched.size();
  view->Append(fetched);
  // The flush recycles the entire remaining array, so no cached real entry
  // survives and the secret-shared cardinality counter must drop to zero
  // with it. Leaving it standing made every post-flush DP release re-count
  // rows that were already synchronized (or recycled) and fetch too many
  // entries from the rebuilt cache.
  cache->ResetCounter(proto);
  result.fired = true;
  result.simulated_seconds = proto->SimulatedSecondsSince(before);
  return result;
}

}  // namespace incshrink
