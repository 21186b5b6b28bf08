// Reference implementations for the test suites: the per-gate row
// primitives the sorting networks once ran physically, the cache read /
// flush compositions, a plaintext Batcher sort and the Waksman router whose
// layers the shuffle kernel charges. Nothing in src/ calls these; they pin
// the behaviour of the ideal-functionality kernels (src/oblivious/sort.cc,
// src/oblivious/shuffle.cc) from outside.
//
// Header-only on purpose: every tests/*.cc is its own test binary.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/shuffle.h"
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

/// One programmed switch: obliviously swap `pair` iff `swap` (the public
/// control bit). All switches of a network execute regardless of their
/// control bit — the bit only decides the crossing.
struct ProgrammedSwitch {
  RowPair pair;
  bool swap = false;
};

/// Routes one n-wire AS-Waksman block over the physical row slots
/// pos[0..n), realizing slot[k] = old slot[perm[k]] (both indices local to
/// the block), and appends its programmed switches into layers
/// [base, base + ShuffleNetworkDepth(n)). Wire plan (the block operates in
/// place):
///
///   * input switch i pairs slots (2i, 2i+1); its even output is wire i of
///     the top subnet (the even slots), its odd output wire i of the bottom
///     subnet (the odd slots). When n is odd, input n-1 is a straight wire
///     into bottom wire floor(n/2).
///   * output switch j pairs slots (2j, 2j+1), fed by top wire j and bottom
///     wire j. When n is even the last pair is straight (output n-2 from
///     the top, n-1 from the bottom) — that fixed pair is what makes the
///     network complete with one switch fewer per even block.
///
/// Programming is the classic 2-coloring: label every output Top or Bottom
/// (which subnet its element travels through). The two outputs of one
/// output switch must differ, and so must the two outputs fed by the two
/// sides of one input switch. These "must differ" edges form disjoint
/// paths/cycles, so propagating from the pinned straight wires (and seeding
/// any free component deterministically) always 2-colors the block; a
/// conflict would mean the construction is wrong, so it CHECK-fails loudly.
inline void RouteBlock(const uint32_t* pos, const uint32_t* perm, size_t n,
                size_t base,
                std::vector<std::vector<ProgrammedSwitch>>* layers) {
  if (n < 2) return;
  if (n == 2) {
    (*layers)[base].push_back({{pos[0], pos[1]}, perm[0] == 1});
    return;
  }
  const size_t half = n / 2;  // top subnet width; bottom is n - half
  const size_t out_pairs = (n % 2 == 0) ? half - 1 : half;

  // inv[x] = output index where input x exits.
  std::vector<uint32_t> inv(n);
  for (size_t k = 0; k < n; ++k) inv[perm[k]] = static_cast<uint32_t>(k);

  constexpr int8_t kUnset = -1;
  constexpr int8_t kTop = 0;
  constexpr int8_t kBottom = 1;
  std::vector<int8_t> color(n, kUnset);
  std::vector<uint32_t> frontier;
  auto pin = [&](size_t k, int8_t c) {
    if (color[k] == kUnset) {
      color[k] = c;
      frontier.push_back(static_cast<uint32_t>(k));
    }
    INCSHRINK_CHECK_EQ(color[k], c);
  };
  auto propagate = [&]() {
    while (!frontier.empty()) {
      const uint32_t k = frontier.back();
      frontier.pop_back();
      const int8_t other = color[k] == kTop ? kBottom : kTop;
      if (k < 2 * out_pairs) pin(k ^ 1, other);    // output-switch partner
      const uint32_t in = perm[k];
      if (in < 2 * half) pin(inv[in ^ 1], other);  // input-switch partner
    }
  };
  if (n % 2 == 0) {
    pin(n - 2, kTop);  // straight last pair: n-2 from top, n-1 from bottom
    propagate();
    pin(n - 1, kBottom);
    propagate();
  } else {
    pin(n - 1, kBottom);  // output n-1 is hard-wired to the bottom subnet
    propagate();
    pin(inv[n - 1], kBottom);  // and so is the straight input n-1
    propagate();
  }
  for (size_t k = 0; k < n; ++k) {
    if (color[k] == kUnset) {
      pin(k, kTop);  // free cycle: fixed deterministic choice
      propagate();
    }
  }

  // Input column: switch i crosses iff input 2i must reach the bottom.
  for (size_t i = 0; i < half; ++i) {
    (*layers)[base].push_back(
        {{pos[2 * i], pos[2 * i + 1]}, color[inv[2 * i]] == kBottom});
  }

  // Subnet slot maps and sub-permutations over subnet wires.
  const size_t bot_n = n - half;
  std::vector<uint32_t> top_pos(half);
  std::vector<uint32_t> top_perm(half);
  std::vector<uint32_t> bot_pos(bot_n);
  std::vector<uint32_t> bot_perm(bot_n);
  for (size_t i = 0; i < half; ++i) {
    top_pos[i] = pos[2 * i];
    bot_pos[i] = pos[2 * i + 1];
  }
  if (n % 2 != 0) bot_pos[half] = pos[n - 1];
  for (size_t k = 0; k < n; ++k) {
    const uint32_t out_wire = static_cast<uint32_t>(k / 2);
    const uint32_t in = perm[k];
    if (color[k] == kTop) {
      top_perm[out_wire] = in / 2;
    } else {
      bot_perm[out_wire] = (n % 2 != 0 && in == n - 1)
                               ? static_cast<uint32_t>(half)
                               : in / 2;
    }
  }

  RouteBlock(top_pos.data(), top_perm.data(), half, base + 1, layers);
  RouteBlock(bot_pos.data(), bot_perm.data(), bot_n, base + 1, layers);

  // Output column, after the deeper (bottom) subnet's last layer.
  const size_t out_base = base + 1 + ShuffleNetworkDepth(bot_n);
  for (size_t j = 0; j < out_pairs; ++j) {
    (*layers)[out_base].push_back(
        {{pos[2 * j], pos[2 * j + 1]}, color[2 * j] == kBottom});
  }
}

/// Builds the programmed Waksman network realizing, for an array `src` of
/// perm.size() rows, the in-place rearrangement dst[k] = src[perm[k]].
/// Returned as execution layers of pairwise-disjoint switches. `perm` must
/// be a permutation of [0, n). The shuffle kernel (src/oblivious/shuffle.h)
/// charges exactly these layers, from the closed form, without routing.
inline std::vector<std::vector<ProgrammedSwitch>> WaksmanNetwork(
    const std::vector<uint32_t>& perm) {
  const size_t n = perm.size();
  std::vector<std::vector<ProgrammedSwitch>> layers(ShuffleNetworkDepth(n));
  if (n < 2) return layers;
  std::vector<bool> seen(n, false);
  for (const uint32_t v : perm) {
    INCSHRINK_CHECK_LT(v, n);
    INCSHRINK_CHECK(!seen[v]);
    seen[v] = true;
  }
  std::vector<uint32_t> pos(n);
  for (size_t i = 0; i < n; ++i) pos[i] = static_cast<uint32_t>(i);
  RouteBlock(pos.data(), perm.data(), n, 0, &layers);
  return layers;
}

}  // namespace incshrink
