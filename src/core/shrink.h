#pragma once

#include <cstdint>

#include "src/core/config.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/sort.h"
#include "src/storage/materialized_view.h"
#include "src/storage/secure_cache.h"

namespace incshrink {

/// Result of one Shrink step (and of a cache flush).
struct ShrinkResult {
  bool fired = false;            ///< whether a view update was posted
  uint64_t sync_rows = 0;        ///< rows moved into the view (public)
  uint32_t released_size = 0;    ///< DP-released batch size v_t (pre-clamp)
  double simulated_seconds = 0;  ///< simulated MPC time consumed
};

/// \brief Phase-split Shrink stepping, the seam multi-shard sort
/// submissions plug into: `Plan()` runs everything up to (not including)
/// the oblivious cache sort — the timer check / noisy-threshold comparison
/// and the DP release draws — and decides whether the shard fires; the
/// caller then sorts the shard's cache with `SyncSortJob` (possibly as one
/// job of a multi-shard submission); `Commit()` performs the prefix fetch,
/// view append and counter/threshold maintenance.
struct ShrinkPlan {
  bool fired = false;          ///< whether the shard's cache must be sorted
  uint32_t released_size = 0;  ///< DP-released batch size (fired only)
  ShrinkResult early;          ///< the finished result when !fired
  CircuitStats before;         ///< stats snapshot at plan start
};

/// \brief The Shrink protocol (paper Section 5.2): one instance per cache
/// (shard), with the trigger chosen by `config.strategy`.
///
///  * kDpTimer — sDPTimer (Algorithm 2): every T steps, synchronize a
///    DP-sized batch sz = c + Lap(b/eps).
///  * kDpAnt — sDPANT (Algorithm 3): splits eps into eps1 = eps2 = eps/2;
///    keeps a secret-shared noisy threshold theta~ = theta + Lap(2b/eps1);
///    every step compares c~ = c + Lap(4b/eps1) against theta~ inside the
///    protocol and, on firing, synchronizes sz = c + Lap(b/eps2) rows and
///    refreshes theta~ with fresh randomness.
///
/// Both triggers then run the same synchronization: sort the cache, fetch
/// the DP-sized prefix into the view, reset the counter c. All Laplace
/// noise is generated jointly (Alg. 2 lines 4-6) so neither server can
/// predict or bias it; the counter is recovered only inside the protocol.
///
/// Note: Algorithm 3 line 8 releases with Lap(b/eps2) (eps2-DP for the
/// b-sensitive counter, composing to eps total); Algorithm 5 / M_ant use
/// the more conservative Lap(2*Delta/eps2). We follow Algorithm 3, which is
/// what the paper's evaluation uses.
class Shrink {
 public:
  /// `config.strategy` must be kDpTimer or kDpAnt.
  Shrink(Protocol2PC* proto, const IncShrinkConfig& config);

  /// Plan, then the sync sort as a single `SyncSortJob`, then Commit.
  ShrinkResult Step(uint64_t t, SecureCache* cache, MaterializedView* view);

  /// Pre-sort phase of Step (see ShrinkPlan) for step `t` (1-based).
  ShrinkPlan Plan(uint64_t t, SecureCache* cache);
  /// Post-sort phase: `cache` must have been sorted by its `SyncSortJob`
  /// after Plan() returned fired == true.
  ShrinkResult Commit(const ShrinkPlan& plan, SecureCache* cache,
                      MaterializedView* view);

  /// sDPANT only: decoded value of the current noisy threshold (test
  /// access; the shared encoding is protocol state).
  double noisy_threshold_inside() const;

  /// sDPANT checkpoint support: the fixed-point sharing of the current
  /// noisy threshold, and its restore-path overwrite. Restore deliberately
  /// does not RefreshThreshold() — drawing joint noise here would
  /// desynchronize the protocol streams from the run being resumed.
  const WordShares& shared_theta() const { return shared_theta_; }
  void RestoreTheta(const WordShares& theta) { shared_theta_ = theta; }

 private:
  bool ant() const { return config_.strategy == Strategy::kDpAnt; }
  void RefreshThreshold();

  Protocol2PC* proto_;
  IncShrinkConfig config_;
  WordShares shared_theta_{0, 0};  ///< sDPANT: fixed-point sharing of theta~
};

/// The sync-path cache sort of one cache under the configured execution
/// policy, as one job of a (possibly multi-shard) sort submission: the
/// fetched prefix must be in real-first FIFO order either way, so the
/// shuffle tier runs the full shuffle-then-sort here (unlike flushes,
/// which keep only a random permutation).
SortJob SyncSortJob(Protocol2PC* proto, SecureCache* cache,
                    const IncShrinkConfig& config);

/// Whether step `t` is a flush step of the independent cache flush (paper
/// Section 5.2.1), used by both triggers: every `flush_interval` steps the
/// engine sorts (or, on the shuffle tier, randomly permutes) every shard's
/// cache, then CommitFlush fetches a fixed `flush_size` prefix into the
/// view. A public function of the clock.
bool FlushDue(const IncShrinkConfig& config, uint64_t t);

/// Post-sort half of a flush: fetches the fixed prefix from the (already
/// sorted or permuted) cache, recycles the rest and resets the counter (the
/// recycled array holds no real entries, so c must return to 0 or the next
/// DP release over-counts already-synchronized rows). `before` is the stats
/// snapshot taken just before the flush sort began.
ShrinkResult CommitFlush(Protocol2PC* proto, const IncShrinkConfig& config,
                         SecureCache* cache, MaterializedView* view,
                         const CircuitStats& before);

/// Fixed-point encoding used to secret-share the (real-valued) noisy
/// threshold inside 32 bits: enc(x) = (x + 2^20) * 2^10, clamped.
Word EncodeThresholdFixedPoint(double x);
double DecodeThresholdFixedPoint(Word enc);

}  // namespace incshrink
