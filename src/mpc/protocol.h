#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/mpc/cost_model.h"
#include "src/mpc/party.h"
#include "src/secret/share.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// Bit width of the ring Z_2^32 used for circuit cost accounting.
inline constexpr uint64_t kWordBits = 32;

/// One compare-exchange / mux-swap site of a batched submission. Pairs in a
/// batch must be pairwise disjoint (no row index appears twice), which is
/// what makes a layer of a sorting or permutation network one batch.
struct RowPair {
  uint32_t a = 0;  ///< lower row index
  uint32_t b = 0;  ///< upper row index (a < b)

  bool operator==(const RowPair&) const = default;
};

/// One batched COUNT task: count rows of `*rows` whose `flag_col` low bit is
/// set and that satisfy `pred` (null accepts everything). The equivalent
/// per-row predicate circuit is `pred_and_gates_per_row` AND gates.
struct CountWhereTask {
  const SharedRows* rows = nullptr;
  size_t flag_col = 0;
  uint64_t pred_and_gates_per_row = 0;
  const std::function<bool(const std::vector<Word>&)>* pred = nullptr;
};

/// One entry of the (opt-in) batch trace: a batched submission recorded as a
/// single event carrying its exact aggregate circuit cost. The sum of event
/// costs over a phase equals what charging each of its ops separately would
/// add to CircuitStats — batching amortizes the bookkeeping, it never
/// changes the totals.
struct BatchTraceEvent {
  enum class Kind : uint8_t {
    kCompareExchange,     ///< one sorting-network layer (single key)
    kCompareExchangeLex,  ///< one sorting-network layer (lexicographic)
    kMuxSwap,             ///< one permutation-network layer of switches
    kCountWhere,          ///< batched oblivious COUNT tasks
  };

  Kind kind;
  uint64_t ops;       ///< scalar primitive calls fused into this submission
  CircuitStats cost;  ///< exact aggregate gates/bytes/rounds of the batch
};

/// \brief Simulated semi-honest two-party computation runtime.
///
/// This class plays the role EMP-Toolkit plays in the paper's prototype: it
/// evaluates Boolean-circuit operations over XOR-shared 32-bit words between
/// the two non-colluding servers S0 and S1.
///
/// Simulation model: the functionality of each gate is computed directly on
/// the recovered values (the runtime acts as the ideal functionality), the
/// result is re-shared with fresh randomness derived from both parties'
/// contributed seeds, and the circuit cost (AND gates, communicated bytes,
/// rounds) of the equivalent garbled-circuit protocol is charged to the
/// running `CircuitStats`. Whole networks follow the same model at row
/// granularity: a sort or shuffle computes its permutation inside the
/// functionality, charges every layer of the network it stands for, and
/// moves the rows once (PermuteAndReshare). Consequently:
///  * each party's local state is always a stream of uniformly random shares
///    (tested in `tests/mpc_test.cc`), and
///  * control flow is data-independent — the same gate trace is produced for
///    any two inputs of equal public size (tested in
///    `tests/oblivious_test.cc`).
///
/// Simulated wall-clock time is obtained by pricing the accumulated stats
/// through a `CostModel`.
class Protocol2PC {
 public:
  Protocol2PC(Party* s0, Party* s1, CostModel model);

  Party* s0() { return s0_; }
  Party* s1() { return s1_; }
  const CostModel& cost_model() const { return model_; }

  // ------------------------------------------------------------------
  // Cost accounting
  // ------------------------------------------------------------------

  const CircuitStats& stats() const { return stats_; }

  /// Returns a snapshot usable with `StatsSince` to meter a phase.
  CircuitStats Snapshot() const { return stats_; }
  CircuitStats StatsSince(const CircuitStats& snap) const {
    return stats_.Diff(snap);
  }
  double SimulatedSeconds() const { return stats_.SimulatedSeconds(model_); }
  double SimulatedSecondsSince(const CircuitStats& snap) const {
    return stats_.Diff(snap).SimulatedSeconds(model_);
  }

  void AccountAndGates(uint64_t n) { stats_.and_gates += n; }
  void AccountXorGates(uint64_t n) { stats_.xor_gates += n; }
  void AccountBytes(uint64_t n) { stats_.bytes += n; }
  void AccountRounds(uint64_t n) { stats_.rounds += n; }

  // ------------------------------------------------------------------
  // Sharing / revealing
  // ------------------------------------------------------------------

  /// Produces a fresh sharing of `value` inside the protocol using
  /// party-contributed randomness (Appendix A.2): c0 = z0 XOR z1,
  /// c1 = c0 XOR value.
  WordShares FreshShare(Word value);

  /// Trivial sharing of a public constant: {v, 0}. Costs nothing.
  static WordShares ConstShare(Word value) { return WordShares{value, 0}; }

  /// Opens a shared value to both parties (each sends its share).
  Word Reveal(const WordShares& x);

  /// Recovers a value inside the protocol without revealing it to the
  /// parties (e.g., Shrink recovering the cardinality counter "internally").
  Word RecoverInside(const WordShares& x) const { return x.s0 ^ x.s1; }

  // ------------------------------------------------------------------
  // Word-level secure operations (all return fresh sharings and charge the
  // garbled-circuit cost of the corresponding 32-bit Boolean circuit).
  // ------------------------------------------------------------------

  WordShares Xor(const WordShares& a, const WordShares& b);  ///< Free-XOR.
  WordShares Add(const WordShares& a, const WordShares& b);
  WordShares Sub(const WordShares& a, const WordShares& b);
  WordShares Mul(const WordShares& a, const WordShares& b);
  /// Unsigned a < b, returned as a sharing of 0/1.
  WordShares LessThan(const WordShares& a, const WordShares& b);
  /// a == b, returned as a sharing of 0/1.
  WordShares Equal(const WordShares& a, const WordShares& b);
  /// cond ? a : b. `cond` must be a sharing of 0/1.
  WordShares Mux(const WordShares& cond, const WordShares& a,
                 const WordShares& b);
  /// Logical AND / OR / NOT of shared 0/1 bits.
  WordShares And(const WordShares& a, const WordShares& b);
  WordShares Or(const WordShares& a, const WordShares& b);
  WordShares Not(const WordShares& a);

  // ------------------------------------------------------------------
  // Row-level secure operations over SharedRows
  // ------------------------------------------------------------------

  /// Reads the sharing of word (row, col).
  WordShares RowWord(const SharedRows& rows, size_t row, size_t col) const;

  /// Writes a sharing into word (row, col).
  void SetRowWord(SharedRows* rows, size_t row, size_t col,
                  const WordShares& v);

  /// Sums column `col` over all rows (used for oblivious COUNT over isView
  /// bits). Returns a sharing of the sum.
  WordShares SumColumn(const SharedRows& rows, size_t col);

  // ------------------------------------------------------------------
  // Batched oblivious primitives
  //
  // Sorting and permutation networks run as the ideal functionality they
  // stand for: the caller computes the network's permutation inside the
  // functionality, charges the network's exact per-layer circuit cost, and
  // moves the secret rows once through PermuteAndReshare.
  // ------------------------------------------------------------------

  /// Draws `count` words from the internal resharing stream. The entry
  /// point for the public randomness that programs shuffles
  /// (DrawPublicPermutation); tools/check_no_hidden_entropy.sh enforces
  /// that the oblivious layer draws nothing else outside this class.
  void DrawReshareMasks(size_t count, Word* out) {
    for (size_t i = 0; i < count; ++i) out[i] = internal_rng_.Next32();
  }

  /// The one row-moving kernel of every sorting and permutation network:
  /// rows'[k] = rows[src_of_dst[k]] for k in [0, n), with every output
  /// word re-shared under a fresh mask. `src_of_dst` must be a permutation
  /// of [0, n); it is plaintext inside the functionality (a sort's
  /// permutation is secret, a shuffle's is public) and never leaves it.
  /// The masks are drawn in destination word order, two 32-bit masks per
  /// `Next64`, ceil(n*w/2) draws per call: S0's output shares and the
  /// stream cursor are pure functions of the public shape (n, w). The
  /// rows are rearranged in place (cycle by cycle), so the only scratch is
  /// one row and n flags. Charges nothing; the caller charges its network.
  void PermuteAndReshare(SharedRows* rows, const uint32_t* src_of_dst);

  /// Charges the exact aggregate cost of `ops` fused (lex) compare-exchange
  /// sites over rows of `width` words and records one batch trace event.
  void AccountCompareExchangeBatch(uint64_t ops, size_t width, bool lex);

  /// Charges the exact aggregate cost of `ops` fused mux-swap sites over
  /// rows of `width` words and records one batch trace event. The
  /// permutation-network switches of src/oblivious/shuffle.cc are mux-swaps
  /// with publicly programmed control bits: the conditional swap still
  /// costs the full per-bit AND circuit, because hiding *whether* each
  /// switch crossed is what keeps the realized permutation secret from the
  /// evaluator.
  void AccountMuxSwapBatch(uint64_t ops, size_t width);

  /// Batched oblivious COUNT: evaluates `count` CountWhereTasks with one
  /// aggregate accounting event; `out[k]` receives task k's fresh sharing.
  /// Bit-identical to per-task ObliviousCountWhere in task order.
  void CountWhereBatch(const CountWhereTask* tasks, size_t count,
                       WordShares* out);

  /// Opt-in recording of batched submissions (off by default: long runs
  /// would otherwise accumulate unbounded trace state). Enabling clears any
  /// previous trace.
  void EnableBatchTrace(bool on);
  const std::vector<BatchTraceEvent>& batch_trace() const {
    return batch_trace_;
  }

  // ------------------------------------------------------------------
  // Joint noise generation (paper Alg. 2 lines 4-6 / Section 5.2)
  // ------------------------------------------------------------------

  /// Samples Lap(scale) with randomness contributed by both servers:
  /// z = z0 XOR z1, r = fixed_point(z) in (0,1),
  /// noise = scale * ln(r) * sign(msb(z)).
  /// Neither party alone can predict or bias the noise as long as the other
  /// is honest. Charges the cost of a fixed-point log circuit.
  double JointLaplace(double scale);

  /// Internal combined randomness (seeded from both parties). Exposed for
  /// oblivious operators that need in-protocol random choices (e.g. dummy
  /// payload generation during padding).
  Rng* internal_rng() { return &internal_rng_; }

  /// Checkpoint-restore path: overwrites the accumulated circuit statistics
  /// with snapshot values, so per-step cost deltas (Snapshot()/CostSince())
  /// in a restored run match the uninterrupted run exactly.
  void RestoreStats(const CircuitStats& stats) { stats_ = stats; }

 private:
  /// Re-shares a plaintext word with protocol-internal fresh randomness.
  WordShares Reshare(Word value);

  Party* s0_;
  Party* s1_;
  CostModel model_;
  CircuitStats stats_;
  Rng internal_rng_;
  bool batch_trace_enabled_ = false;
  std::vector<BatchTraceEvent> batch_trace_;
};

}  // namespace incshrink
