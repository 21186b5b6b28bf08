#include "src/oblivious/sort.h"

#include "src/common/logging.h"
#include "src/oblivious/shuffle.h"

namespace incshrink {

namespace {

/// Visits every compare-exchange (a, b) of one layer — one (p, k) pass —
/// of Batcher's odd-even merge network for n rows, in execution order.
/// This is the single definition of the network's index math (including
/// the `a / (p*2) == b / (p*2)` block guard): the sort itself, the layer
/// listing and the compare-exchange count all funnel through it, so the
/// charged network and the computed permutation cannot drift apart.
template <typename Visitor>
void VisitLayerPairs(size_t n, size_t p, size_t k, Visitor&& visit) {
  for (size_t j = k % p; j + k < n; j += 2 * k) {
    for (size_t i = 0; i < k; ++i) {
      const size_t a = i + j;
      const size_t b = i + j + k;
      if (b >= n) break;
      if (a / (p * 2) == b / (p * 2)) visit(a, b);
    }
  }
}

/// Steps the (p, k) layer state machine to the next pass; returns false
/// when the network (for n rows) is exhausted. Layer order: (1,1), (2,2),
/// (2,1), (4,4), (4,2), (4,1), ...
bool AdvanceLayer(size_t n, size_t* p, size_t* k) {
  if (*k > 1) {
    *k >>= 1;
    return true;
  }
  *p <<= 1;
  if (*p >= n) return false;
  *k = *p;
  return true;
}

/// Visits every layer (p, k) of the n-row network, in execution order.
template <typename LayerVisitor>
void ForEachLayer(size_t n, LayerVisitor&& visit) {
  if (n < 2) return;
  size_t p = 1;
  size_t k = 1;
  do {
    visit(p, k);
  } while (AdvanceLayer(n, &p, &k));
}

/// Visits every compare-exchange of the whole network, in execution order.
template <typename Visitor>
void ForEachCompareExchange(size_t n, Visitor&& visit) {
  ForEachLayer(n,
               [&](size_t p, size_t k) { VisitLayerPairs(n, p, k, visit); });
}

/// Runs one sort as the ideal functionality of Batcher's network: the keys
/// are recovered inside the functionality into one packed word per row
/// (major << 32 | minor; minor is 0 for single-key sorts, and descending
/// sorts complement the word so the network always runs ascending), the
/// unchanged network runs on (key, source index) pairs with a branch-free
/// swap — exactly the compare-exchanges, and so exactly the tie order, of
/// the row network — and the rows move once, re-masked, through
/// PermuteAndReshare. Each non-empty layer is charged as one aggregate
/// event, as if its compare-exchanges had run on the rows.
void SerialSortSingle(const SortJob& job) {
  const size_t n = job.rows->size();
  if (n < 2) return;
  const SharedRows& rows = *job.rows;
  const uint64_t flip = job.ascending ? 0 : ~uint64_t{0};
  std::vector<uint64_t> keys(n);
  std::vector<uint32_t> src(n);
  for (size_t r = 0; r < n; ++r) {
    const uint64_t major =
        rows.share0_at(r, job.key_col) ^ rows.share1_at(r, job.key_col);
    const uint64_t minor =
        job.lex ? rows.share0_at(r, job.minor_col) ^
                      rows.share1_at(r, job.minor_col)
                : 0;
    keys[r] = ((major << 32) | minor) ^ flip;
    src[r] = static_cast<uint32_t>(r);
  }
  ForEachLayer(n, [&](size_t p, size_t k) {
    uint64_t ops = 0;
    VisitLayerPairs(n, p, k, [&](size_t a, size_t b) {
      const uint64_t swap = 0 - static_cast<uint64_t>(keys[b] < keys[a]);
      const uint64_t dk = (keys[a] ^ keys[b]) & swap;
      keys[a] ^= dk;
      keys[b] ^= dk;
      const uint32_t di = (src[a] ^ src[b]) & static_cast<uint32_t>(swap);
      src[a] ^= di;
      src[b] ^= di;
      ++ops;
    });
    if (ops > 0) {
      job.proto->AccountCompareExchangeBatch(ops, rows.width(), job.lex);
    }
  });
  job.proto->PermuteAndReshare(job.rows, src.data());
}

}  // namespace

void ObliviousSortBatch(SortJob* jobs, size_t num_jobs,
                        const BatchExec& exec) {
  exec.RunJobs(jobs, num_jobs, [](const SortJob& job) {
    if (job.algorithm == SortAlgorithm::kShuffleSort) {
      INCSHRINK_CHECK(!job.lex);  // shuffle-sort is single-key
      ObliviousShuffleSort(job.proto, job.rows, job.key_col, job.ascending);
    } else {
      SerialSortSingle(job);
    }
  });
}

void ObliviousSort(Protocol2PC* proto, SharedRows* rows, size_t key_col,
                   bool ascending) {
  SerialSortSingle({proto, rows, key_col, 0, /*lex=*/false, ascending});
}

void ObliviousSortLex(Protocol2PC* proto, SharedRows* rows, size_t major_col,
                      size_t minor_col, bool ascending) {
  SerialSortSingle(
      {proto, rows, major_col, minor_col, /*lex=*/true, ascending});
}

uint64_t SortNetworkCompareExchanges(size_t n) {
  uint64_t count = 0;
  ForEachCompareExchange(n, [&](size_t, size_t) { ++count; });
  return count;
}

std::vector<uint64_t> SortNetworkLayerSizes(size_t n) {
  std::vector<uint64_t> sizes;
  for (const std::vector<RowPair>& layer : SortNetworkLayers(n)) {
    sizes.push_back(layer.size());
  }
  return sizes;
}

std::vector<std::vector<RowPair>> SortNetworkLayers(size_t n) {
  std::vector<std::vector<RowPair>> layers;
  ForEachLayer(n, [&](size_t p, size_t k) {
    std::vector<RowPair>& pairs = layers.emplace_back();
    VisitLayerPairs(n, p, k, [&pairs](size_t a, size_t b) {
      pairs.push_back({static_cast<uint32_t>(a), static_cast<uint32_t>(b)});
    });
  });
  return layers;
}

}  // namespace incshrink
