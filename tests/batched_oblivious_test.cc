// Batched-oblivious-execution suite: a sort runs as the ideal
// functionality of Batcher's network — plaintext permutation, one gather,
// one reshare per output word — and must be indistinguishable from running
// the network on the rows in everything but the share bits:
//
//   * layer structure: every (p, k) pass of Batcher's network is one batch
//     whose pairs are disjoint; per-layer sizes sum to the total
//     compare-exchange count for every n in [0, 257];
//   * value contract: sort / lex-sort outputs equal a plaintext Batcher
//     reference on keys with many ties (so tie order is pinned), the cost
//     and per-layer trace equal the per-gate network's, and every output
//     word carries a fresh mask from the protocol stream;
//   * count kernel equality: CountWhereBatch vs per-task counts;
//   * multi-job submissions: ObliviousSortBatch over many jobs, fanned out
//     at 1 / 2 / 8 threads, equals each job sorted alone;
//   * engine equality: the `oblivious_batch_min_layer` knob is inert for
//     all three DP strategies (sort, lex-sort and count all sit on the
//     engine's hot path).
//
// Runs under the TSan CI job together with the parallel/sharded suites.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/filter.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/sort.h"
#include "src/workload/generators.h"
#include "tests/reference_ops.h"

namespace incshrink {
namespace {

void ExpectStatsEqual(const CircuitStats& a, const CircuitStats& b) {
  EXPECT_EQ(a.and_gates, b.and_gates);
  EXPECT_EQ(a.xor_gates, b.xor_gates);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.rounds, b.rounds);
}

/// Shares (and, because XOR recovery is share-determined, revealed values)
/// of two tables must agree word for word.
void ExpectRowsIdentical(const SharedRows& a, const SharedRows& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.width(), b.width());
  EXPECT_EQ(a.shares0(), b.shares0());
  EXPECT_EQ(a.shares1(), b.shares1());
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a.RecoverRow(r), b.RecoverRow(r)) << "row " << r;
  }
}

SharedRows RandomViewRows(Rng* rng, size_t n) {
  SharedRows rows(kViewWidth);
  uint64_t seq = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.4)) {
      std::vector<Word> row(kViewWidth, 0);
      row[kViewIsViewCol] = 1;
      row[kViewSortKeyCol] = MakeCacheSortKey(true, seq++);
      row[kViewKeyCol] = rng->Next32() % 97;
      rows.AppendSecretRow(row, rng);
    } else {
      AppendDummyViewRow(&rows, rng, &seq);
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Layer structure of the sorting network
// ---------------------------------------------------------------------------

TEST(SortNetworkLayerTest, LayerSizesSumToTotalComparesForAllSmallN) {
  for (size_t n = 0; n <= 257; ++n) {
    const std::vector<uint64_t> sizes = SortNetworkLayerSizes(n);
    uint64_t sum = 0;
    for (const uint64_t s : sizes) sum += s;
    EXPECT_EQ(sum, SortNetworkCompareExchanges(n)) << "n=" << n;
    if (n < 2) {
      EXPECT_TRUE(sizes.empty()) << "n=" << n;
    }
  }
}

TEST(SortNetworkLayerTest, LayersAreDisjointAndOrdered) {
  for (const size_t n : {2u, 3u, 7u, 16u, 63u, 64u, 100u, 257u}) {
    const auto layers = SortNetworkLayers(n);
    uint64_t total = 0;
    for (size_t l = 0; l < layers.size(); ++l) {
      std::set<uint32_t> touched;
      for (const RowPair& pr : layers[l]) {
        EXPECT_LT(pr.a, pr.b) << "n=" << n << " layer " << l;
        EXPECT_LT(pr.b, n) << "n=" << n << " layer " << l;
        // Disjointness: no row index appears twice within one layer — the
        // property that makes a layer an order-free batch.
        EXPECT_TRUE(touched.insert(pr.a).second) << "n=" << n << " l=" << l;
        EXPECT_TRUE(touched.insert(pr.b).second) << "n=" << n << " l=" << l;
      }
      total += layers[l].size();
    }
    EXPECT_EQ(total, SortNetworkCompareExchanges(n)) << "n=" << n;
  }
}

TEST(SortNetworkLayerTest, PowerOfTwoLayerCountIsLogSquaredTriangle) {
  // For n = 2^m Batcher's network has exactly m(m+1)/2 (p, k) passes.
  for (const auto& [n, m] : std::vector<std::pair<size_t, uint64_t>>{
           {2, 1}, {4, 2}, {8, 3}, {64, 6}, {256, 8}}) {
    EXPECT_EQ(SortNetworkLayerSizes(n).size(), m * (m + 1) / 2)
        << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Value contract of the ideal-functionality sort, and the count kernel
// ---------------------------------------------------------------------------

struct ProtoPair {
  Party s0{0, 11}, s1{1, 22};
  Protocol2PC proto{&s0, &s1, CostModel::EmpLikeLan()};
};

/// Rows of width 4: (major in [0, 5), minor in [0, 3), row id, random).
/// With at most 15 distinct (major, minor) keys, every n > 15 has ties, and
/// the unique row id makes the order among tied rows visible.
SharedRows TiedRows(Rng* rng, size_t n) {
  SharedRows rows(4);
  for (size_t i = 0; i < n; ++i) {
    rows.AppendSecretRow({rng->Next32() % 5, rng->Next32() % 3,
                          static_cast<Word>(i), rng->Next32()},
                         rng);
  }
  return rows;
}

std::vector<std::vector<Word>> RecoverAll(const SharedRows& rows) {
  std::vector<std::vector<Word>> out;
  for (size_t r = 0; r < rows.size(); ++r) out.push_back(rows.RecoverRow(r));
  return out;
}

/// The masks the next ceil(words/2) 64-bit draws of `stream` yield, two per
/// draw, low half first: what S0 must hold after one PermuteAndReshare.
std::vector<Word> NextMasks(Rng* stream, size_t words) {
  std::vector<Word> masks;
  while (masks.size() < words) {
    const uint64_t m = stream->Next64();
    masks.push_back(static_cast<Word>(m));
    masks.push_back(static_cast<Word>(m >> 32));
  }
  masks.resize(words);
  return masks;
}

/// Sorts `input` through the ideal-functionality kernel and through the
/// per-gate network on the rows, and checks the value contract: recovered
/// output equal to the plaintext Batcher reference (ties included), cost
/// and per-layer trace equal to the per-gate network's, and S0 equal to the
/// fresh mask stream (every output word re-masked).
void ExpectSortValueContract(const SharedRows& input, bool lex,
                             bool ascending) {
  const size_t n = input.size();
  const BatchTraceEvent::Kind kind =
      lex ? BatchTraceEvent::Kind::kCompareExchangeLex
          : BatchTraceEvent::Kind::kCompareExchange;

  ProtoPair per_gate;
  SharedRows a = input;
  if (lex) {
    ObliviousSortLexScalar(&per_gate.proto, &a, 0, 1, ascending);
  } else {
    ObliviousSortScalar(&per_gate.proto, &a, 0, ascending);
  }

  ProtoPair ideal;
  ideal.proto.EnableBatchTrace(true);
  Rng stream = *ideal.proto.internal_rng();
  SharedRows b = input;
  if (lex) {
    ObliviousSortLex(&ideal.proto, &b, 0, 1, ascending);
  } else {
    ObliviousSort(&ideal.proto, &b, 0, ascending);
  }

  const auto want = PlaintextBatcherSort(input, 0, 1, lex, ascending);
  EXPECT_EQ(RecoverAll(b), want);
  EXPECT_EQ(RecoverAll(a), want);  // the reference agrees with the network
  ExpectStatsEqual(per_gate.proto.Snapshot(), ideal.proto.Snapshot());

  // One event per non-empty layer, in layer order, with that layer's ops.
  std::vector<uint64_t> layer_ops;
  for (const uint64_t s : SortNetworkLayerSizes(n)) {
    if (s > 0) layer_ops.push_back(s);
  }
  const uint64_t per_op = (lex ? 3 * kWordBits + 2 : kWordBits) +
                          input.width() * kWordBits;
  ASSERT_EQ(ideal.proto.batch_trace().size(), layer_ops.size());
  for (size_t l = 0; l < layer_ops.size(); ++l) {
    const BatchTraceEvent& e = ideal.proto.batch_trace()[l];
    EXPECT_EQ(e.kind, kind) << "layer " << l;
    EXPECT_EQ(e.ops, layer_ops[l]) << "layer " << l;
    EXPECT_EQ(e.cost.and_gates, layer_ops[l] * per_op) << "layer " << l;
  }

  if (n < 2) {
    // No network, no rows moved: shares and stream untouched.
    ExpectRowsIdentical(input, b);
    EXPECT_EQ(ideal.proto.internal_rng()->Next64(), stream.Next64());
    return;
  }
  EXPECT_EQ(b.shares0(), NextMasks(&stream, n * input.width()));
  EXPECT_EQ(ideal.proto.internal_rng()->Next64(), stream.Next64());
}

TEST(IdealSortContractTest, SortMatchesPlaintextBatcherWithTies) {
  for (const bool ascending : {true, false}) {
    for (const size_t n : {0u, 1u, 2u, 3u, 5u, 16u, 64u, 100u, 257u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (ascending ? " asc" : " desc"));
      Rng data_rng(7 + n);
      ExpectSortValueContract(TiedRows(&data_rng, n), /*lex=*/false,
                              ascending);
    }
  }
}

TEST(IdealSortContractTest, LexSortMatchesPlaintextBatcherWithTies) {
  for (const bool ascending : {true, false}) {
    for (const size_t n : {0u, 2u, 5u, 16u, 64u, 100u, 257u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (ascending ? " asc" : " desc"));
      Rng data_rng(100 + n);
      ExpectSortValueContract(TiedRows(&data_rng, n), /*lex=*/true,
                              ascending);
    }
  }
}

TEST(IdealSortContractTest, ViewSortMatchesPlaintextBatcher) {
  // The engine's cache sort: descending by the cache key, many dummies.
  for (const size_t n : {3u, 64u, 257u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng data_rng(7 + n);
    const SharedRows input = RandomViewRows(&data_rng, n);
    ProtoPair p;
    SharedRows rows = input;
    ObliviousSort(&p.proto, &rows, kViewSortKeyCol, false);
    EXPECT_EQ(RecoverAll(rows),
              PlaintextBatcherSort(input, kViewSortKeyCol, 0, false, false));
  }
}

TEST(BatchedScalarEquivalenceTest, CountWhereBatchMatchesPerTaskCounts) {
  Rng data_rng(9);
  std::vector<SharedRows> tables;
  for (const size_t n : {0u, 17u, 64u, 129u}) {
    tables.push_back(RandomViewRows(&data_rng, n));
  }
  const ObliviousPredicate pred = ObliviousPredicate::True();
  std::vector<CountWhereTask> tasks;
  for (const SharedRows& t : tables) {
    tasks.push_back(
        {&t, kViewIsViewCol, pred.and_gates_per_row, &pred.eval});
  }

  ProtoPair scalar;
  std::vector<WordShares> want;
  for (const SharedRows& t : tables) {
    want.push_back(ObliviousCountWhere(&scalar.proto, t, kViewIsViewCol, pred));
  }
  ProtoPair batched;
  std::vector<WordShares> got(tasks.size());
  batched.proto.CountWhereBatch(tasks.data(), tasks.size(), got.data());
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].s0, want[k].s0) << "task " << k;
    EXPECT_EQ(got[k].s1, want[k].s1) << "task " << k;
    EXPECT_EQ(batched.proto.Reveal(got[k]), scalar.proto.Reveal(want[k]))
        << "task " << k;
  }
  ExpectStatsEqual(scalar.proto.Snapshot(), batched.proto.Snapshot());
}

TEST(BatchTraceTest, TraceEventsCarryExactAggregateCost) {
  const size_t n = 100;
  Rng data_rng(13);
  const SharedRows input = RandomViewRows(&data_rng, n);

  ProtoPair scalar;
  SharedRows a = input;
  const CircuitStats scalar_before = scalar.proto.Snapshot();
  ObliviousSortScalar(&scalar.proto, &a, kViewSortKeyCol, false);
  const CircuitStats scalar_cost =
      scalar.proto.Snapshot().Diff(scalar_before);

  ProtoPair batched;
  batched.proto.EnableBatchTrace(true);
  SharedRows b = input;
  ObliviousSort(&batched.proto, &b, kViewSortKeyCol, false);

  // One event per non-empty layer; ops and gate totals sum to the scalar
  // path's exactly — amortized bookkeeping, identical totals.
  uint64_t ops = 0;
  CircuitStats traced;
  for (const BatchTraceEvent& e : batched.proto.batch_trace()) {
    EXPECT_EQ(e.kind, BatchTraceEvent::Kind::kCompareExchange);
    ops += e.ops;
    traced.Add(e.cost);
  }
  size_t nonempty_layers = 0;
  for (const uint64_t s : SortNetworkLayerSizes(n)) {
    if (s > 0) ++nonempty_layers;
  }
  EXPECT_EQ(batched.proto.batch_trace().size(), nonempty_layers);
  EXPECT_EQ(ops, SortNetworkCompareExchanges(n));
  EXPECT_EQ(traced.and_gates, scalar_cost.and_gates);

  // Disabling stops recording but keeps the collected trace readable;
  // re-enabling starts a fresh one.
  batched.proto.EnableBatchTrace(false);
  EXPECT_EQ(batched.proto.batch_trace().size(), nonempty_layers);
  batched.proto.EnableBatchTrace(true);
  EXPECT_TRUE(batched.proto.batch_trace().empty());
}

// ---------------------------------------------------------------------------
// Multi-job submissions: many sorts fanned out == each sort alone
// ---------------------------------------------------------------------------

TEST(SortFusionTest, FusedJobsMatchStandaloneSorts) {
  const std::vector<size_t> sizes = {3, 64, 64, 100, 17, 1};
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Reference: each job sorted alone on its own protocol.
    std::vector<SharedRows> want;
    std::vector<CircuitStats> want_stats;
    for (size_t j = 0; j < sizes.size(); ++j) {
      Rng data_rng(31 + j);
      SharedRows rows = RandomViewRows(&data_rng, sizes[j]);
      Party s0(0, 100 + j), s1(1, 200 + j);
      Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
      ObliviousSort(&proto, &rows, kViewSortKeyCol, false);
      want.push_back(std::move(rows));
      want_stats.push_back(proto.Snapshot());
    }
    // All jobs in one submission; min_parallel_ops = 1 fans them out
    // whenever the pool has more than one thread.
    std::vector<SharedRows> got;
    std::vector<std::unique_ptr<Party>> parties;
    std::vector<std::unique_ptr<Protocol2PC>> protos;
    for (size_t j = 0; j < sizes.size(); ++j) {
      Rng data_rng(31 + j);
      got.push_back(RandomViewRows(&data_rng, sizes[j]));
      parties.push_back(std::make_unique<Party>(0, 100 + j));
      parties.push_back(std::make_unique<Party>(1, 200 + j));
      protos.push_back(std::make_unique<Protocol2PC>(
          parties[2 * j].get(), parties[2 * j + 1].get(),
          CostModel::EmpLikeLan()));
    }
    std::vector<SortJob> jobs;
    for (size_t j = 0; j < sizes.size(); ++j) {
      jobs.push_back(SortJob{protos[j].get(), &got[j], kViewSortKeyCol, 0,
                             false, false});
    }
    ThreadPool pool(threads);
    ObliviousSortBatch(jobs.data(), jobs.size(), BatchExec{&pool, 1});
    for (size_t j = 0; j < sizes.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j));
      ExpectRowsIdentical(want[j], got[j]);
      ExpectStatsEqual(want_stats[j], protos[j]->Snapshot());
    }
  }
}

// ---------------------------------------------------------------------------
// Engine equality: the batch knob and thread count are inert for every DP
// strategy (exercising cache sorts, join lex-sorts and query counts)
// ---------------------------------------------------------------------------

void ExpectEngineIdentical(const Engine& a, const Engine& b) {
  const RunSummary sa = a.Summary();
  const RunSummary sb = b.Summary();
  EXPECT_EQ(sa.total_mpc_seconds, sb.total_mpc_seconds);
  EXPECT_EQ(sa.total_query_seconds, sb.total_query_seconds);
  EXPECT_EQ(sa.final_view_rows, sb.final_view_rows);
  EXPECT_EQ(sa.final_cache_rows, sb.final_cache_rows);
  EXPECT_EQ(sa.updates, sb.updates);
  EXPECT_EQ(sa.flushes, sb.flushes);
  EXPECT_EQ(sa.l1_error.sum(), sb.l1_error.sum());
  EXPECT_EQ(sa.final_true_count, sb.final_true_count);
  ASSERT_EQ(a.transcript().size(), b.transcript().size());
  for (size_t i = 0; i < a.transcript().size(); ++i) {
    EXPECT_EQ(a.transcript()[i], b.transcript()[i]) << "event " << i;
  }
  ExpectRowsIdentical(a.view().rows(), b.view().rows());
}

IncShrinkConfig BatchTestConfig(Strategy strategy, uint32_t shards,
                                int threads, uint32_t min_layer) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = strategy;
  cfg.ant_theta = 8;
  cfg.flush_interval = 16;
  cfg.num_cache_shards = shards;
  cfg.cache_shard_threads = threads;
  cfg.oblivious_batch_min_layer = min_layer;
  return cfg;
}

TEST(BatchedEngineEquivalenceTest, BatchKnobAndThreadsInertForDpStrategies) {
  TpcDsParams p;
  p.steps = 40;
  p.seed = 21;
  const GeneratedWorkload w = GenerateTpcDs(p);
  for (const Strategy strategy :
       {Strategy::kDpTimer, Strategy::kDpAnt, Strategy::kEp}) {
    SCOPED_TRACE(StrategyName(strategy));
    SynchronousDeployment ref_dep(BatchTestConfig(strategy, 2, 1, 128));
    ASSERT_TRUE(ref_dep.Run(w.t1, w.t2).ok());
    for (const int threads : {1, 2, 8}) {
      for (const uint32_t min_layer : {1u, 4096u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " min_layer=" + std::to_string(min_layer));
        SynchronousDeployment run_dep(
            BatchTestConfig(strategy, 2, threads, min_layer));
        ASSERT_TRUE(run_dep.Run(w.t1, w.t2).ok());
        ExpectEngineIdentical(ref_dep.engine(), run_dep.engine());
      }
    }
  }
}

TEST(BatchedEngineEquivalenceTest, ConfigRejectsZeroMinLayer) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.oblivious_batch_min_layer = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

}  // namespace
}  // namespace incshrink
