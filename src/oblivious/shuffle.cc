#include "src/oblivious/shuffle.h"

#include <algorithm>

#include "src/common/logging.h"

namespace incshrink {

namespace {

/// Switch count of the n-wire AS-Waksman block: floor(n/2) input switches,
/// floor(n/2) output switches minus one straight pair when n is even, plus
/// the two recursive subnets (n*log2(n) - n + 1 at powers of two).
uint64_t SwitchesRec(size_t n) {
  if (n < 2) return 0;
  if (n == 2) return 1;
  const size_t half = n / 2;
  const uint64_t out_pairs = (n % 2 == 0) ? half - 1 : half;
  return half + out_pairs + SwitchesRec(half) + SwitchesRec(n - half);
}

/// Depth of the n-wire block: input column + deepest subnet + output
/// column. The bottom subnet (ceil(n/2) wires) is always the deeper one.
uint64_t DepthRec(size_t n) {
  if (n < 2) return 0;
  if (n == 2) return 1;
  return 2 + DepthRec(n - n / 2);
}

/// Adds the switch counts of the n-wire block, whose first layer is
/// `base`, into `sizes` (already DepthRec(total) long): the input column at
/// `base`, both subnets from base + 1, and the output column after the
/// deeper (bottom) subnet — the layer placement of the routed network
/// (WaksmanNetwork in tests/reference_ops.h).
void LayerSizesRec(size_t n, size_t base, std::vector<uint64_t>* sizes) {
  if (n < 2) return;
  if (n == 2) {
    (*sizes)[base] += 1;
    return;
  }
  const size_t half = n / 2;
  const size_t bot_n = n - half;
  (*sizes)[base] += half;
  LayerSizesRec(half, base + 1, sizes);
  LayerSizesRec(bot_n, base + 1, sizes);
  (*sizes)[base + 1 + DepthRec(bot_n)] += (n % 2 == 0) ? half - 1 : half;
}

/// Stable argsort of the recovered (inside the ideal functionality) keys of
/// an already-shuffled table: returns perm with perm[k] = current index of
/// the row that must land at position k. Charges the fixed
/// ShuffleSortComparisons(n) key-comparison budget.
std::vector<uint32_t> ArgsortKeysInside(Protocol2PC* proto,
                                        const SharedRows& rows,
                                        size_t key_col, bool ascending) {
  const size_t n = rows.size();
  std::vector<uint32_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
  std::vector<Word> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rows.share0_at(i, key_col) ^ rows.share1_at(i, key_col);
  }
  proto->AccountAndGates(ShuffleSortComparisons(n) * kWordBits);
  // Ideal-functionality argsort: the comparison budget is charged above as a
  // fixed function of n, and the outcomes feed only the permutation of the
  // second Waksman pass, whose switch count, layer structure and mask-draw
  // count are pure functions of n; the observable trace stays
  // input-invariant (tests/shuffle_test.cc pins this).
  std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    return ascending ? keys[a] < keys[b] : keys[b] < keys[a];
  });
  return idx;
}

}  // namespace

uint64_t ShuffleNetworkSwitches(size_t n) { return SwitchesRec(n); }

uint64_t ShuffleNetworkDepth(size_t n) { return DepthRec(n); }

std::vector<uint64_t> ShuffleNetworkLayerSizes(size_t n) {
  std::vector<uint64_t> sizes(DepthRec(n), 0);
  LayerSizesRec(n, 0, &sizes);
  return sizes;
}

std::vector<uint32_t> DrawPublicPermutation(Protocol2PC* proto, size_t n) {
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  if (n < 2) return perm;
  // Fisher-Yates over 64-bit draws assembled from two resharing-stream
  // words per step; the bound reduction is multiply-high, so exactly
  // 2*(n-1) words are consumed for every n — never data-dependent.
  std::vector<Word> raw(2 * (n - 1));
  proto->DrawReshareMasks(raw.size(), raw.data());
  size_t w = 0;
  for (size_t i = n - 1; i > 0; --i) {
    const uint64_t rh = raw[w++];
    const uint64_t rl = raw[w++];
    // High 64 bits of the 96-bit product (rh*2^32 + rl) * (i+1), computed
    // in pieces so it stays within uint64_t: both partials are < 2^64 and
    // their sum is < (i+1)*2^32 <= 2^64.
    const uint64_t m = static_cast<uint64_t>(i) + 1;
    const size_t j =
        static_cast<size_t>((rh * m + ((rl * m) >> 32)) >> 32);
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

void ObliviousShuffle(Protocol2PC* proto, SharedRows* rows,
                      const std::vector<uint32_t>& perm) {
  INCSHRINK_CHECK_EQ(perm.size(), rows->size());
  if (rows->size() < 2) return;
  // Every switch of the n-row network is charged, layer by layer, whatever
  // its control bit: the topology is a pure function of n. The rows then
  // move once, re-masked, as the programmed network would leave them.
  for (const uint64_t switches : ShuffleNetworkLayerSizes(rows->size())) {
    if (switches > 0) proto->AccountMuxSwapBatch(switches, rows->width());
  }
  proto->PermuteAndReshare(rows, perm.data());
}

void ObliviousRandomPermuteBatch(PermuteJob* jobs, size_t num_jobs,
                                 const BatchExec& exec) {
  exec.RunJobs(jobs, num_jobs, [](const PermuteJob& job) {
    ObliviousRandomPermute(job.proto, job.rows);
  });
}

void ObliviousRandomPermute(Protocol2PC* proto, SharedRows* rows) {
  ObliviousShuffle(proto, rows, DrawPublicPermutation(proto, rows->size()));
}

uint64_t ShuffleSortComparisons(size_t n) {
  if (n < 2) return 0;
  uint64_t lg = 0;
  while ((static_cast<size_t>(1) << lg) < n) ++lg;
  return static_cast<uint64_t>(n) * lg;
}

void ObliviousShuffleSort(Protocol2PC* proto, SharedRows* rows,
                          size_t key_col, bool ascending) {
  // Pass 1: random Waksman shuffle drawn from the protocol stream.
  ObliviousRandomPermute(proto, rows);
  // Pass 2: Waksman programmed from the stable argsort of the shuffled
  // keys. Ties land in shuffled order — a uniformly random (but seeded,
  // deterministic) placement, which is exactly why the shuffle must come
  // first: the argsort's control bits then reveal nothing about the
  // pre-shuffle arrangement.
  ObliviousShuffle(proto, rows,
                   ArgsortKeysInside(proto, *rows, key_col, ascending));
}

}  // namespace incshrink
