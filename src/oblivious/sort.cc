#include "src/oblivious/sort.h"

#include "src/common/logging.h"
#include "src/oblivious/shuffle.h"

namespace incshrink {

namespace {

/// Visits every compare-exchange (a, b) of one layer — one (p, k) pass —
/// of Batcher's odd-even merge network for n rows, in scalar execution
/// order. This is the single definition of the network's index math
/// (including the `a / (p*2) == b / (p*2)` block guard): the scalar
/// reference path, the layer listing and the serial network all funnel
/// through it, so the batched/scalar bit-equality contract has exactly one
/// loop nest to keep correct.
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

/// Visits every compare-exchange of the whole network, in execution order
/// (scalar reference order).
template <typename Visitor>
void ForEachCompareExchange(size_t n, Visitor&& visit) {
  ForEachLayer(n,
               [&](size_t p, size_t k) { VisitLayerPairs(n, p, k, visit); });
}

/// Runs one sort through the serial network: walks the (p, k) layers with
/// inline index math — no pair materialization, no mask buffer — through
/// the inline-draw site kernels (== scalar draw order), and charges each
/// layer's aggregate cost once. Accounting touches no protocol randomness,
/// so charging after a layer's sites instead of before commits identical
/// state.
void SerialSortSingle(const SortJob& job) {
  const size_t n = job.rows->size();
  Protocol2PC* proto = job.proto;
  SharedRows* rows = job.rows;
  ForEachLayer(n, [&](size_t p, size_t k) {
    uint64_t ops = 0;
    if (job.lex) {
      VisitLayerPairs(n, p, k, [&](size_t a, size_t b) {
        proto->CompareExchangeLexSite(rows, a, b, job.key_col, job.minor_col,
                                      job.ascending);
        ++ops;
      });
    } else {
      VisitLayerPairs(n, p, k, [&](size_t a, size_t b) {
        proto->CompareExchangeSite(rows, a, b, job.key_col, job.ascending);
        ++ops;
      });
    }
    if (ops > 0) {
      proto->AccountCompareExchangeBatch(ops, rows->width(), job.lex);
    }
  });
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

void ObliviousSortScalar(Protocol2PC* proto, SharedRows* rows, size_t key_col,
                         bool ascending) {
  ForEachCompareExchange(rows->size(), [&](size_t a, size_t b) {
    proto->CompareExchangeRows(rows, a, b, key_col, ascending);
  });
}

void ObliviousSortLexScalar(Protocol2PC* proto, SharedRows* rows,
                            size_t major_col, size_t minor_col,
                            bool ascending) {
  ForEachCompareExchange(rows->size(), [&](size_t a, size_t b) {
    proto->CompareExchangeRowsLex(rows, a, b, major_col, minor_col,
                                  ascending);
  });
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
