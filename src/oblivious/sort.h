#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/mpc/protocol.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// \brief Oblivious sorting of secret-shared rows (paper's ObliSort).
///
/// Implements Batcher's odd-even merge sorting network for arbitrary input
/// length. The sequence of compare-exchange operations depends only on the
/// public row count, never on the data — the defining property of an
/// oblivious sort (tested by asserting identical gate traces across inputs).
///
/// Cost: ~ n/4 * log^2(n) compare-exchanges, each costing one 32-bit
/// comparison plus one row-width mux-swap, matching the sort-network costs
/// the paper's EMP implementation pays.
///
/// Execution model: the sort runs as the ideal functionality of that
/// network, on the calling thread. The keys are recovered inside the
/// functionality, the network's compare-exchanges run layer by layer — one
/// layer per (p, k) pass, pairs disjoint by construction — on a packed
/// (key, row index) array, and the secret rows then move once through
/// Protocol2PC::PermuteAndReshare, every output word under a fresh mask.
/// Each non-empty layer is charged as one aggregate cost event, so gates,
/// bytes, rounds and the batch trace are those of running the network on
/// the rows; the output order, ties included, is exactly Batcher's
/// (tests/batched_oblivious_test.cc). The only parallelism is across the
/// jobs of a multi-job submission (BatchExec).

/// Execution policy of the multi-job entry points (ObliviousSortBatch,
/// ObliviousRandomPermuteBatch): whether the jobs of one submission may run
/// concurrently, one pool task per job. Purely a scheduling hint — every
/// job runs whole on its own protocol, so results are bit-identical with
/// any pool and any threshold.
struct BatchExec {
  /// Pool to fan jobs out over; null or a 1-thread pool runs the jobs in
  /// job order on the calling thread.
  ThreadPool* pool = nullptr;
  /// Submissions with fewer rows than this, summed over their jobs, stay on
  /// the calling thread (fork-join overhead would dominate). Config knob
  /// `oblivious_batch_min_layer`.
  size_t min_parallel_ops = 128;

  /// Runs `run(jobs[i])` for every job of a multi-job submission, after
  /// checking that each job has rows and a protocol of its own (each job
  /// consumes its protocol's resharing stream; two jobs on one protocol
  /// would interleave draws). With a pool of more than one thread, at least
  /// two jobs and at least `min_parallel_ops` rows in all, every job is one
  /// pool task; otherwise the jobs run in job order.
  template <typename Job, typename Run>
  void RunJobs(Job* jobs, size_t num_jobs, Run&& run) const {
    size_t rows = 0;
    for (size_t i = 0; i < num_jobs; ++i) {
      INCSHRINK_CHECK(jobs[i].proto != nullptr && jobs[i].rows != nullptr);
      for (size_t j = i + 1; j < num_jobs; ++j) {
        INCSHRINK_CHECK(jobs[i].proto != jobs[j].proto);
      }
      rows += jobs[i].rows->size();
    }
    if (pool != nullptr && pool->num_threads() > 1 && num_jobs >= 2 &&
        rows >= min_parallel_ops) {
      pool->ParallelFor(num_jobs, [&](size_t i) { run(jobs[i]); });
      return;
    }
    for (size_t i = 0; i < num_jobs; ++i) run(jobs[i]);
  }
};

/// Which full-sort execution policy an oblivious sort runs.
///
///  * kBatcher — Batcher's odd-even merge network, O(n log^2 n)
///    compare-exchanges. The reference path: goldens are recorded on it.
///  * kShuffleSort — ORQ-style shuffle-then-sort (src/oblivious/shuffle.h):
///    a random Waksman shuffle followed by a second Waksman pass programmed
///    from the stable in-protocol argsort of the shuffled keys,
///    O(n log n) mux gates + n*ceil(log2 n) charged comparisons. Opt-in
///    via IncShrinkConfig::sort_algorithm; same sorted key order, different
///    tie placement and circuit trace (both traces remain pure functions of
///    the public row count — tests/shuffle_test.cc pins this).
enum class SortAlgorithm : uint8_t {
  kBatcher,
  kShuffleSort,
};

/// Sorts `rows` in place by the 32-bit key in `key_col`.
/// Ascending if `ascending`, else descending.
void ObliviousSort(Protocol2PC* proto, SharedRows* rows, size_t key_col,
                   bool ascending);

/// Sorts `rows` lexicographically by (major_col, minor_col). When the pair
/// is unique per row this yields a deterministic total order even though the
/// underlying network is not stable.
void ObliviousSortLex(Protocol2PC* proto, SharedRows* rows, size_t major_col,
                      size_t minor_col, bool ascending);

/// One oblivious sort of a multi-sort submission. Jobs of one batch must
/// run on pairwise-distinct protocol instances (each sort consumes its own
/// protocol's resharing stream; two jobs on one protocol would interleave
/// draws nondeterministically).
struct SortJob {
  Protocol2PC* proto = nullptr;
  SharedRows* rows = nullptr;
  size_t key_col = 0;    ///< sort key (major key for lex jobs)
  size_t minor_col = 0;  ///< lex tie-break column (lex jobs only)
  bool lex = false;
  bool ascending = true;
  /// Execution policy of this job. A batch may mix policies freely (jobs
  /// run on distinct protocols, so the groups cannot perturb each other's
  /// streams); shuffle-sort jobs must be single-key (lex == false).
  SortAlgorithm algorithm = SortAlgorithm::kBatcher;
};

/// Multi-job sort submission (cross-shard / cross-tenant): runs every job
/// whole — Batcher jobs through the network above, shuffle-sort jobs
/// through ObliviousShuffleSort — and fans the jobs out over `exec` (see
/// BatchExec::RunJobs). Each job's output shares, randomness stream and
/// aggregate cost are bit-identical to running it alone, at any thread
/// count and any job mix.
void ObliviousSortBatch(SortJob* jobs, size_t num_jobs,
                        const BatchExec& exec = {});

/// Returns the number of compare-exchanges the network performs for `n` rows
/// (exposed for cost analysis and tests).
uint64_t SortNetworkCompareExchanges(size_t n);

/// Per-layer compare-exchange counts of the n-row network, in execution
/// order. Sums to SortNetworkCompareExchanges(n); drives the bench
/// batch-size histogram and the layer property tests.
std::vector<uint64_t> SortNetworkLayerSizes(size_t n);

/// Materializes the network's layers as explicit pair lists (test access:
/// the layer-disjointness property and the plaintext reference sort are
/// built on it).
std::vector<std::vector<RowPair>> SortNetworkLayers(size_t n);

}  // namespace incshrink
