#pragma once

#include <cstdint>

#include "src/core/config.h"
#include "src/mpc/protocol.h"
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
/// caller then sorts the shard's cache (possibly as one job of a
/// multi-shard submission); `Commit()` performs the prefix fetch, view
/// append and counter/threshold maintenance. Plan + sort + Commit on one shard is
/// bit-identical to `Step()` (which remains, and is implemented that way).
struct ShrinkPlan {
  bool fired = false;          ///< whether the shard's cache must be sorted
  uint32_t released_size = 0;  ///< DP-released batch size (fired only)
  ShrinkResult early;          ///< the finished result when !fired
  CircuitStats before;         ///< stats snapshot at plan start
};

/// \brief sDPTimer (paper Algorithm 2): every T steps, synchronize a
/// DP-sized batch sz = c + Lap(b/eps) from the secure cache to the view.
///
/// The Laplace noise is generated jointly (Alg. 2 lines 4-6) so neither
/// server can predict or bias it; the cardinality counter is recovered only
/// inside the protocol and re-shared afterwards.
class ShrinkTimer {
 public:
  ShrinkTimer(Protocol2PC* proto, const IncShrinkConfig& config);

  /// Runs the timer check for step `t` (1-based).
  ShrinkResult Step(uint64_t t, SecureCache* cache, MaterializedView* view);

  /// Pre-sort phase of Step (see ShrinkPlan).
  ShrinkPlan Plan(uint64_t t, SecureCache* cache);
  /// Post-sort phase: `cache` must have been sorted by the cache key
  /// (descending) after Plan() returned fired == true.
  ShrinkResult Commit(const ShrinkPlan& plan, SecureCache* cache,
                      MaterializedView* view);

 private:
  Protocol2PC* proto_;
  IncShrinkConfig config_;
  double scale_;  // b / eps
};

/// \brief sDPANT (paper Algorithm 3): above-noisy-threshold updates.
///
/// Splits eps into eps1 = eps2 = eps/2; maintains a secret-shared noisy
/// threshold theta~ = theta + Lap(2b/eps1); every step compares
/// c~ = c + Lap(4b/eps1) against theta~ inside the protocol and, on firing,
/// synchronizes sz = c + Lap(b/eps2) rows, refreshes theta~ with fresh
/// randomness, and resets c.
///
/// Note: Algorithm 3 line 8 releases with Lap(b/eps2) (eps2-DP for the
/// b-sensitive counter, composing to eps total); Algorithm 5 / M_ant use
/// the more conservative Lap(2*Delta/eps2). We follow Algorithm 3, which is
/// what the paper's evaluation uses.
class ShrinkAnt {
 public:
  ShrinkAnt(Protocol2PC* proto, const IncShrinkConfig& config);

  ShrinkResult Step(uint64_t t, SecureCache* cache, MaterializedView* view);

  /// Pre-sort phase of Step (see ShrinkPlan): the noisy comparison and, on
  /// firing, the release draw.
  ShrinkPlan Plan(uint64_t t, SecureCache* cache);
  /// Post-sort phase: prefix fetch, threshold refresh, counter reset.
  ShrinkResult Commit(const ShrinkPlan& plan, SecureCache* cache,
                      MaterializedView* view);

  /// Decoded value of the current noisy threshold (test access; the shared
  /// encoding is protocol state).
  double noisy_threshold_inside() const;

  /// Checkpoint support: the fixed-point sharing of the current noisy
  /// threshold, and its restore-path overwrite. Restore deliberately does
  /// not RefreshThreshold() — drawing joint noise here would desynchronize
  /// the protocol streams from the run being resumed.
  const WordShares& shared_theta() const { return shared_theta_; }
  void RestoreTheta(const WordShares& theta) { shared_theta_ = theta; }

 private:
  void RefreshThreshold();

  Protocol2PC* proto_;
  IncShrinkConfig config_;
  double eps1_;
  double eps2_;
  WordShares shared_theta_;  ///< fixed-point sharing of theta~
};

/// \brief Independent cache flush (paper Section 5.2.1): every
/// `flush_interval` steps, fetch a fixed `flush_size` prefix of the sorted
/// cache into the view, recycle the rest, and reset the cardinality counter
/// (the recycled array holds no real entries, so c must return to 0 or the
/// next DP release over-counts already-synchronized rows). Used by both DP
/// protocols.
ShrinkResult MaybeFlushCache(Protocol2PC* proto,
                             const IncShrinkConfig& config, uint64_t t,
                             SecureCache* cache, MaterializedView* view);

/// Whether step `t` is a flush step — the (public) pre-sort half of
/// MaybeFlushCache, split out for multi-shard flush-sort submissions.
bool FlushDue(const IncShrinkConfig& config, uint64_t t);

/// Post-sort half of MaybeFlushCache: fetches the fixed prefix from the
/// (already sorted) cache, recycles the rest and resets the counter.
/// `before` is the stats snapshot taken just before the flush sort began.
ShrinkResult CommitFlush(Protocol2PC* proto, const IncShrinkConfig& config,
                         SecureCache* cache, MaterializedView* view,
                         const CircuitStats& before);

/// Fixed-point encoding used to secret-share the (real-valued) noisy
/// threshold inside 32 bits: enc(x) = (x + 2^20) * 2^10, clamped.
Word EncodeThresholdFixedPoint(double x);
double DecodeThresholdFixedPoint(Word enc);

}  // namespace incshrink
