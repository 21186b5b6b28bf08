#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/mpc/protocol.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// \brief Parameters of a truncated, windowed equi-join view transformation.
///
/// Both paper workloads are band joins of this shape:
///   Q1: Sales JOIN Returns  ON PID      WHERE ReturnDate - SaleDate  in [0,10]
///   Q2: Allegation JOIN Award ON officer WHERE AwardTime - CaseEnd   in [0,10]
struct JoinSpec {
  /// T2.date - T1.date must lie in [window_lo, window_hi] (inclusive).
  uint32_t window_lo = 0;
  uint32_t window_hi = 10;
  /// If false, the window predicate is skipped (pure equi-join).
  bool use_window = true;
  /// Truncation bound omega: within one operator invocation each input
  /// record contributes to at most `omega` output rows (paper Eq. 3).
  uint32_t omega = 1;
  /// Whether the contribution cap applies to each side. Public relations
  /// (e.g. the CPDB Award table) carry no privacy budget, so their side is
  /// left uncapped.
  bool cap_t1 = true;
  bool cap_t2 = true;
};

/// Per-invocation contribution usage, keyed by record id. One logical
/// Transform invocation may be assembled from several operator calls (new
/// rows vs. each window side); sharing this map across those calls enforces
/// the omega cap per record per *invocation*, which is what the q-stability
/// analysis requires.
using ContributionUsage = std::unordered_map<Word, uint32_t>;

/// \brief Result of a truncated oblivious join.
struct JoinResult {
  /// Exhaustively padded output in view-row format (`kView*` columns). The
  /// row count is a deterministic function of the public input sizes only.
  SharedRows rows;
  /// Number of real view entries among `rows`. This value exists only inside
  /// the protocol (ideal functionality); callers must secret-share it before
  /// it leaves MPC (Transform re-shares it into the cardinality counter).
  uint32_t real_count = 0;
};

/// \brief b-truncated oblivious sort-merge join (paper Example 5.1, Fig. 2).
///
/// Unions the two tables (T1 rows ordered before T2 rows on key ties),
/// obliviously sorts the union by join key with Batcher's network, then
/// linearly scans, emitting exactly `omega` output slots per accessed merged
/// tuple — real joins first, dummy-padded to `omega`. Each record contributes
/// at most `omega` real rows; surplus true joins are truncated (the paper's
/// truncation error source).
///
/// Inputs are source-format rows (`kSrc*` columns); both tables may contain
/// dummy padding rows (valid bit 0), which never join. The output size is
/// omega * (|t1| + |t2|) rows regardless of content.
///
/// `seq` is the cache insertion sequence counter used to build FIFO cache
/// sort keys; it is advanced once per emitted row.
/// `usage` (optional) carries per-record contribution counts across multiple
/// operator calls of the same Transform invocation; pass nullptr for a
/// standalone call.
JoinResult TruncatedSortMergeJoin(Protocol2PC* proto, const SharedRows& t1,
                                  const SharedRows& t2, const JoinSpec& spec,
                                  uint64_t* seq,
                                  ContributionUsage* usage = nullptr);

/// \brief Truncated oblivious nested-loop join (paper Algorithm 4).
///
/// For each outer tuple, joins against every inner tuple, generating a join
/// row only when both tuples still have remaining contribution budget in
/// their `budget_col`; budgets are consumed (obliviously decremented) per
/// generated row. Each per-outer intermediate block is obliviously sorted
/// (real rows first) and truncated to `omega` rows, so the output size is
/// omega * |t1| regardless of content.
///
/// `t1`/`t2` are modified in place: their budget columns are decremented and
/// re-shared, implementing the appendix's per-row budget accounting.
JoinResult TruncatedNestedLoopJoin(Protocol2PC* proto, SharedRows* t1,
                                   SharedRows* t2, size_t budget_col1,
                                   size_t budget_col2, const JoinSpec& spec,
                                   uint64_t* seq);

/// \brief Full (untruncated) oblivious join COUNT — the query operator of
/// the non-materialized (NM) baseline, i.e. the standard SOGDB that re-joins
/// the entire outsourced data for every query.
///
/// Obliviously sorts the union of the two tables and aggregates the number
/// of qualifying pairs inside the circuit, revealing only the final count.
/// Charges the sort network plus an O(n log n) oblivious prefix-aggregation
/// scan. The returned count exists only inside the protocol.
uint32_t ObliviousJoinCountFull(Protocol2PC* proto, const SharedRows& t1,
                                const SharedRows& t2, const JoinSpec& spec);

/// \brief Plaintext reference join with identical semantics (same truncation
/// and ordering rules) used for differential testing and ground truth.
///
/// Returns the number of (t1,t2) pairs a truncation-free join would produce
/// in `untruncated_count` (if non-null).
uint32_t ReferenceTruncatedJoinCount(const std::vector<std::vector<Word>>& t1,
                                     const std::vector<std::vector<Word>>& t2,
                                     const JoinSpec& spec,
                                     uint32_t* untruncated_count);

}  // namespace incshrink
