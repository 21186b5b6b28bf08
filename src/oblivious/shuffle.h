#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/mpc/protocol.h"
#include "src/oblivious/sort.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// \brief Oblivious shuffles via control-bit-programmed Waksman permutation
/// networks, and the ORQ-style shuffle-then-sort fast path built on them.
///
/// A Waksman (AS-Waksman) network realizes *any* permutation of n wires with
/// ~n*log2(n) - n + 1 two-input switches — a log(n) factor fewer gates than
/// Batcher's O(n log^2 n) compare-exchange network, which is what the cache
/// recycle/flush paths pay today even though they only need *some* secret
/// permutation. Each switch is exactly one row mux-swap whose control bit is
/// programmed (publicly, from a permutation drawn via the protocol's seeded
/// stream) instead of computed from a key comparison: the conditional swap
/// still runs the full per-bit AND circuit, because hiding whether each
/// switch crossed is what keeps the realized permutation secret from the
/// evaluating servers.
///
/// Execution model mirrors src/oblivious/sort.cc: a shuffle runs as the
/// ideal functionality of its programmed network, on the calling thread.
/// Every layer of the n-row network is charged as one aggregate mux-swap
/// event (the topology, hence every charge, is a pure function of n), and
/// the rows then move once through Protocol2PC::PermuteAndReshare, every
/// output word under a fresh mask — the switches themselves are never run.
/// The routing program that charge stands for lives with the tests
/// (WaksmanNetwork in tests/reference_ops.h), which check that it realizes
/// any permutation with exactly the charged layers.
/// The only parallelism is across the jobs of a multi-job submission
/// (BatchExec), so output shares, the internal randomness stream and the
/// aggregate circuit cost are bit-identical at any thread count
/// (tests/shuffle_test.cc).
///
/// The permutation itself is drawn exclusively through DrawReshareMasks
/// (tools/check_no_hidden_entropy.sh pins this), so every draw count is a
/// pure function of n too and the whole circuit trace is input-invariant.

/// Number of switches the n-wire network contains (pure function of n):
/// 0 for n < 2, and S(n) = floor(n/2) + (n even ? n/2 - 1 : floor(n/2))
/// + S(floor(n/2)) + S(ceil(n/2)) otherwise — n*log2(n) - n + 1 at powers
/// of two.
uint64_t ShuffleNetworkSwitches(size_t n);

/// Depth (layer count) of the n-wire network: d(2) = 1,
/// d(n) = 2 + d(ceil(n/2)).
uint64_t ShuffleNetworkDepth(size_t n);

/// Per-layer switch counts in execution order, from the closed-form
/// recursion (no routing); sums to ShuffleNetworkSwitches(n). ObliviousShuffle
/// charges one batch per non-empty entry; the tests pin it against the
/// layers the routed reference network programs.
std::vector<uint64_t> ShuffleNetworkLayerSizes(size_t n);

/// Draws a uniformly random public permutation of [0, n) from the
/// protocol's internal stream — the *only* sanctioned control-bit entropy
/// source for shuffles. Consumes exactly 2*(n-1) DrawReshareMasks words
/// (64 bits per Fisher-Yates step, reduced by multiply-high), so the draw
/// count is a pure function of n and the stream stays aligned across
/// same-cardinality inputs. The permutation is public in the same sense the
/// network topology is: it is jointly seeded randomness, independent of any
/// secret-shared payload.
std::vector<uint32_t> DrawPublicPermutation(Protocol2PC* proto, size_t n);

/// Applies `perm` to `rows` obliviously (rows'[k] = rows[perm[k]]): charges
/// the n-row Waksman network one AccountMuxSwapBatch per layer, then moves
/// the rows once through PermuteAndReshare.
void ObliviousShuffle(Protocol2PC* proto, SharedRows* rows,
                      const std::vector<uint32_t>& perm);

/// One recycle-tier permute job: the cache shard to re-randomize.
struct PermuteJob {
  Protocol2PC* proto = nullptr;
  SharedRows* rows = nullptr;
};

/// Cache-recycle tier: runs ObliviousRandomPermute for every job, fanned
/// out over `exec` (see BatchExec::RunJobs). This replaces the flush sort
/// outright under `sort_algorithm = shuffle_sort`: the flush's prefix cut
/// is public-size, so *any* secret permutation randomizes which rows are
/// fetched versus recycled — full key order is never needed.
void ObliviousRandomPermuteBatch(PermuteJob* jobs, size_t num_jobs,
                                 const BatchExec& exec = {});

/// Draws one fresh public permutation from the protocol's own stream and
/// applies it to `rows` through ObliviousShuffle.
void ObliviousRandomPermute(Protocol2PC* proto, SharedRows* rows);

/// Comparison sites the shuffle-then-sort path charges for the in-protocol
/// argsort of n shuffled keys: n * ceil(log2 n) (a comparison-based sort's
/// information-theoretic bound, matching what a real oblivious 2PC
/// quicksort pays post-shuffle). Pure function of n, so the charge — like
/// every other component of the shuffle-sort trace — is input-invariant.
uint64_t ShuffleSortComparisons(size_t n);

/// ORQ-style shuffle-then-sort: (1) apply a random Waksman shuffle drawn
/// from the protocol stream, (2) stably argsort the shuffled keys inside
/// the ideal functionality — charging ShuffleSortComparisons(n) key
/// comparisons — and (3) apply a second Waksman pass programmed from that
/// argsort. Total O(n log n) gates versus Batcher's O(n log^2 n). The key
/// order of the result equals Batcher's; tie placement differs (ties land
/// in shuffled order), which is why the Batcher goldens stay the reference
/// and this path is opt-in.
void ObliviousShuffleSort(Protocol2PC* proto, SharedRows* rows,
                          size_t key_col, bool ascending);

}  // namespace incshrink
