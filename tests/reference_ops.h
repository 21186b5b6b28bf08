// Reference implementations for the test suites: the per-gate row
// primitives the sorting networks once ran physically, the cache read /
// flush compositions, and a plaintext Batcher sort. Nothing in src/ calls
// these; they pin the behaviour of the ideal-functionality kernels
// (src/oblivious/sort.cc, src/oblivious/shuffle.cc) from outside.
//
// Header-only on purpose: every tests/*.cc is its own test binary.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/sort.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// Re-shares a plaintext word with one mask from the protocol's internal
/// stream.
inline WordShares ReshareForTest(Protocol2PC* proto, Word value) {
  const Word mask = proto->internal_rng()->Next32();
  return WordShares{mask, static_cast<Word>(value ^ mask)};
}

/// Obliviously swaps rows i and j iff the shared bit `swap` is 1, using the
/// XOR-swap circuit: one AND gate per payload bit; both rows are rewritten
/// with fresh shares either way.
inline void MuxSwapRows(Protocol2PC* proto, SharedRows* rows, size_t i,
                        size_t j, const WordShares& swap) {
  const size_t width = rows->width();
  proto->AccountAndGates(width * kWordBits);
  const Word do_swap = proto->RecoverInside(swap) & 1;
  for (size_t c = 0; c < width; ++c) {
    const Word a = rows->share0_at(i, c) ^ rows->share1_at(i, c);
    const Word b = rows->share0_at(j, c) ^ rows->share1_at(j, c);
    proto->SetRowWord(rows, i, c, ReshareForTest(proto, do_swap ? b : a));
    proto->SetRowWord(rows, j, c, ReshareForTest(proto, do_swap ? a : b));
  }
}

/// Compare-exchange of rows i < j by the 32-bit key in `key_col`: one
/// comparison plus one row mux-swap. Ties keep the original order.
inline void CompareExchangeRows(Protocol2PC* proto, SharedRows* rows,
                                size_t i, size_t j, size_t key_col,
                                bool ascending) {
  INCSHRINK_CHECK_LT(i, j);
  proto->AccountAndGates(kWordBits);
  const Word ki = rows->share0_at(i, key_col) ^ rows->share1_at(i, key_col);
  const Word kj = rows->share0_at(j, key_col) ^ rows->share1_at(j, key_col);
  const bool out_of_order = ascending ? (kj < ki) : (ki < kj);
  MuxSwapRows(proto, rows, i, j, ReshareForTest(proto, out_of_order));
}

/// Lexicographic compare-exchange on (major_col, minor_col): two
/// comparisons, one equality, two combine gates, one row mux-swap.
inline void CompareExchangeRowsLex(Protocol2PC* proto, SharedRows* rows,
                                   size_t i, size_t j, size_t major_col,
                                   size_t minor_col, bool ascending) {
  INCSHRINK_CHECK_LT(i, j);
  proto->AccountAndGates(3 * kWordBits + 2);
  const std::pair<Word, Word> ki{
      rows->share0_at(i, major_col) ^ rows->share1_at(i, major_col),
      rows->share0_at(i, minor_col) ^ rows->share1_at(i, minor_col)};
  const std::pair<Word, Word> kj{
      rows->share0_at(j, major_col) ^ rows->share1_at(j, major_col),
      rows->share0_at(j, minor_col) ^ rows->share1_at(j, minor_col)};
  const bool out_of_order = ascending ? (kj < ki) : (ki < kj);
  MuxSwapRows(proto, rows, i, j, ReshareForTest(proto, out_of_order));
}

/// Batcher's network run physically, one compare-exchange at a time on the
/// shared rows: the per-gate path the ideal-functionality sort stands for.
inline void ObliviousSortScalar(Protocol2PC* proto, SharedRows* rows,
                                size_t key_col, bool ascending) {
  for (const std::vector<RowPair>& layer : SortNetworkLayers(rows->size())) {
    for (const RowPair& pr : layer) {
      CompareExchangeRows(proto, rows, pr.a, pr.b, key_col, ascending);
    }
  }
}

inline void ObliviousSortLexScalar(Protocol2PC* proto, SharedRows* rows,
                                   size_t major_col, size_t minor_col,
                                   bool ascending) {
  for (const std::vector<RowPair>& layer : SortNetworkLayers(rows->size())) {
    for (const RowPair& pr : layer) {
      CompareExchangeRowsLex(proto, rows, pr.a, pr.b, major_col, minor_col,
                             ascending);
    }
  }
}

/// Plaintext Batcher reference: the recovered rows of `rows`, ordered by
/// the network's compare-exchanges on (major, minor) — minor ignored unless
/// `lex` — so its tie order is the network's own.
inline std::vector<std::vector<Word>> PlaintextBatcherSort(
    const SharedRows& rows, size_t major_col, size_t minor_col, bool lex,
    bool ascending) {
  std::vector<std::vector<Word>> out;
  for (size_t r = 0; r < rows.size(); ++r) out.push_back(rows.RecoverRow(r));
  auto key = [&](const std::vector<Word>& row) {
    return std::pair<Word, Word>{row[major_col], lex ? row[minor_col] : 0};
  };
  for (const std::vector<RowPair>& layer : SortNetworkLayers(rows.size())) {
    for (const RowPair& pr : layer) {
      const auto ka = key(out[pr.a]);
      const auto kb = key(out[pr.b]);
      if (ascending ? (kb < ka) : (ka < kb)) std::swap(out[pr.a], out[pr.b]);
    }
  }
  return out;
}

/// Oblivious cache read (Fig. 3): sort the cache by the cache key, real
/// tuples first, then cut a public-size prefix.
inline SharedRows ObliviousCacheRead(Protocol2PC* proto, SharedRows* cache,
                                     size_t read_size) {
  ObliviousSort(proto, cache, kViewSortKeyCol, /*ascending=*/false);
  return TakeSortedPrefix(proto, cache, read_size);
}

/// Cache flush (Section 5.2.1): sort, fetch the prefix, recycle the rest.
inline SharedRows CacheFlush(Protocol2PC* proto, SharedRows* cache,
                             size_t flush_size) {
  ObliviousSort(proto, cache, kViewSortKeyCol, /*ascending=*/false);
  return TakeFlushPrefix(proto, cache, flush_size);
}

}  // namespace incshrink
