#include <gtest/gtest.h>

#include <cmath>

#include "src/common/stats.h"
#include "src/dp/laplace.h"
#include "src/mpc/cost_model.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "tests/reference_ops.h"

namespace incshrink {
namespace {

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() : s0_(0, 111), s1_(1, 222), proto_(&s0_, &s1_,
                                                    CostModel::EmpLikeLan()) {}
  Party s0_;
  Party s1_;
  Protocol2PC proto_;
  Rng rng_{333};
};

// ---------------------------------------------------------------------------
// Cost model arithmetic
// ---------------------------------------------------------------------------

TEST(CostModelTest, FreeModelCostsNothing) {
  CircuitStats stats{1000, 2000, 3000, 4};
  EXPECT_DOUBLE_EQ(stats.SimulatedSeconds(CostModel::Free()), 0.0);
}

TEST(CostModelTest, EmpLikeChargesGatesBytesRounds) {
  CostModel m = CostModel::EmpLikeLan();
  CircuitStats stats{1000000, 0, 0, 0};  // 1M AND gates
  const double secs = stats.SimulatedSeconds(m);
  // 1M gates * 1e-7 s + 32 MB of labels * 8e-9 s/byte.
  EXPECT_NEAR(secs, 0.1 + 32e6 * 8e-9, 1e-9);
}

TEST(CostModelTest, StatsDiffIsMonotone) {
  CircuitStats a{10, 10, 10, 1};
  CircuitStats b{25, 30, 50, 3};
  const CircuitStats d = b.Diff(a);
  EXPECT_EQ(d.and_gates, 15u);
  EXPECT_EQ(d.xor_gates, 20u);
  EXPECT_EQ(d.bytes, 40u);
  EXPECT_EQ(d.rounds, 2u);
}

// ---------------------------------------------------------------------------
// Secure word operations
// ---------------------------------------------------------------------------

TEST_F(ProtocolTest, FreshShareAndReveal) {
  for (int i = 0; i < 100; ++i) {
    const Word x = rng_.Next32();
    const WordShares s = proto_.FreshShare(x);
    EXPECT_EQ(proto_.RecoverInside(s), x);
    EXPECT_EQ(proto_.Reveal(s), x);
  }
}

TEST_F(ProtocolTest, ConstShareNeedsNoRandomness) {
  const WordShares s = Protocol2PC::ConstShare(99);
  EXPECT_EQ(RecoverWord(s), 99u);
}

TEST_F(ProtocolTest, ArithmeticMatchesRing) {
  for (int i = 0; i < 500; ++i) {
    const Word a = rng_.Next32();
    const Word b = rng_.Next32();
    const WordShares sa = proto_.FreshShare(a);
    const WordShares sb = proto_.FreshShare(b);
    EXPECT_EQ(proto_.RecoverInside(proto_.Add(sa, sb)),
              static_cast<Word>(a + b));
    EXPECT_EQ(proto_.RecoverInside(proto_.Sub(sa, sb)),
              static_cast<Word>(a - b));
    EXPECT_EQ(proto_.RecoverInside(proto_.Mul(sa, sb)),
              static_cast<Word>(a * b));
    EXPECT_EQ(proto_.RecoverInside(proto_.Xor(sa, sb)),
              static_cast<Word>(a ^ b));
  }
}

TEST_F(ProtocolTest, ComparisonsMatch) {
  for (int i = 0; i < 500; ++i) {
    const Word a = rng_.Next32();
    const Word b = i % 3 == 0 ? a : rng_.Next32();
    const WordShares sa = proto_.FreshShare(a);
    const WordShares sb = proto_.FreshShare(b);
    EXPECT_EQ(proto_.RecoverInside(proto_.LessThan(sa, sb)),
              a < b ? 1u : 0u);
    EXPECT_EQ(proto_.RecoverInside(proto_.Equal(sa, sb)), a == b ? 1u : 0u);
  }
}

TEST_F(ProtocolTest, MuxSelects) {
  const WordShares a = proto_.FreshShare(111);
  const WordShares b = proto_.FreshShare(222);
  const WordShares one = proto_.FreshShare(1);
  const WordShares zero = proto_.FreshShare(0);
  EXPECT_EQ(proto_.RecoverInside(proto_.Mux(one, a, b)), 111u);
  EXPECT_EQ(proto_.RecoverInside(proto_.Mux(zero, a, b)), 222u);
}

TEST_F(ProtocolTest, BooleanOps) {
  const WordShares t = proto_.FreshShare(1);
  const WordShares f = proto_.FreshShare(0);
  EXPECT_EQ(proto_.RecoverInside(proto_.And(t, t)), 1u);
  EXPECT_EQ(proto_.RecoverInside(proto_.And(t, f)), 0u);
  EXPECT_EQ(proto_.RecoverInside(proto_.Or(f, t)), 1u);
  EXPECT_EQ(proto_.RecoverInside(proto_.Or(f, f)), 0u);
  EXPECT_EQ(proto_.RecoverInside(proto_.Not(t)), 0u);
  EXPECT_EQ(proto_.RecoverInside(proto_.Not(f)), 1u);
}

// ---------------------------------------------------------------------------
// Gate accounting
// ---------------------------------------------------------------------------

TEST_F(ProtocolTest, AddChargesWordWidthAndGates) {
  const WordShares a = proto_.FreshShare(1);
  const WordShares b = proto_.FreshShare(2);
  const CircuitStats before = proto_.Snapshot();
  proto_.Add(a, b);
  EXPECT_EQ(proto_.StatsSince(before).and_gates, kWordBits);
}

TEST_F(ProtocolTest, MulChargesQuadratic) {
  const WordShares a = proto_.FreshShare(1);
  const CircuitStats before = proto_.Snapshot();
  proto_.Mul(a, a);
  EXPECT_EQ(proto_.StatsSince(before).and_gates, kWordBits * kWordBits);
}

TEST_F(ProtocolTest, XorIsFree) {
  const WordShares a = proto_.FreshShare(1);
  const CircuitStats before = proto_.Snapshot();
  proto_.Xor(a, a);
  const CircuitStats d = proto_.StatsSince(before);
  EXPECT_EQ(d.and_gates, 0u);
  EXPECT_EQ(d.xor_gates, kWordBits);
}

TEST_F(ProtocolTest, RevealCostsOneRoundTwoWords) {
  const WordShares a = proto_.FreshShare(5);
  const CircuitStats before = proto_.Snapshot();
  proto_.Reveal(a);
  const CircuitStats d = proto_.StatsSince(before);
  EXPECT_EQ(d.bytes, 8u);
  EXPECT_EQ(d.rounds, 1u);
}

TEST_F(ProtocolTest, SimulatedSecondsGrowMonotonically) {
  const double t0 = proto_.SimulatedSeconds();
  const WordShares a = proto_.FreshShare(1);
  proto_.Mul(a, a);
  EXPECT_GT(proto_.SimulatedSeconds(), t0);
}

// ---------------------------------------------------------------------------
// Row operations
// ---------------------------------------------------------------------------

TEST_F(ProtocolTest, MuxSwapRowsSwapsIffBitSet) {
  SharedRows rows(2);
  rows.AppendSecretRow({1, 2}, &rng_);
  rows.AppendSecretRow({3, 4}, &rng_);

  MuxSwapRows(&proto_, &rows, 0, 1, proto_.FreshShare(0));
  EXPECT_EQ(rows.RecoverRow(0), (std::vector<Word>{1, 2}));

  MuxSwapRows(&proto_, &rows, 0, 1, proto_.FreshShare(1));
  EXPECT_EQ(rows.RecoverRow(0), (std::vector<Word>{3, 4}));
  EXPECT_EQ(rows.RecoverRow(1), (std::vector<Word>{1, 2}));
}

TEST_F(ProtocolTest, MuxSwapRefreshesShares) {
  SharedRows rows(1);
  rows.AppendSecretRow({7}, &rng_);
  rows.AppendSecretRow({9}, &rng_);
  const Word old_share = rows.share0_at(0, 0);
  MuxSwapRows(&proto_, &rows, 0, 1, proto_.FreshShare(0));
  // Even a non-swap re-shares the payload (new garbled labels).
  EXPECT_NE(rows.share0_at(0, 0), old_share);
  EXPECT_EQ(rows.RecoverAt(0, 0), 7u);
}

TEST_F(ProtocolTest, CompareExchangeOrdersPairs) {
  SharedRows rows(2);
  rows.AppendSecretRow({30, 1}, &rng_);
  rows.AppendSecretRow({10, 2}, &rng_);
  CompareExchangeRows(&proto_, &rows, 0, 1, 0, /*ascending=*/true);
  EXPECT_EQ(rows.RecoverAt(0, 0), 10u);
  EXPECT_EQ(rows.RecoverAt(1, 0), 30u);
  CompareExchangeRows(&proto_, &rows, 0, 1, 0, /*ascending=*/false);
  EXPECT_EQ(rows.RecoverAt(0, 0), 30u);
}

TEST_F(ProtocolTest, PermuteAndReshareGathersAndRemasksEveryWord) {
  for (const size_t width : {1u, 3u}) {
    SharedRows rows(width);
    for (Word r = 0; r < 5; ++r) {
      std::vector<Word> row(width);
      for (size_t c = 0; c < width; ++c) row[c] = 10 * r + c;
      rows.AppendSecretRow(row, &rng_);
    }
    const SharedRows before = rows;
    const std::vector<uint32_t> src_of_dst = {3, 0, 4, 1, 2};
    Rng expect_stream = *proto_.internal_rng();
    const CircuitStats stats_before = proto_.Snapshot();
    proto_.PermuteAndReshare(&rows, src_of_dst.data());
    for (size_t k = 0; k < 5; ++k) {
      EXPECT_EQ(rows.RecoverRow(k), before.RecoverRow(src_of_dst[k]));
    }
    // S0 holds exactly the next ceil(5w/2) draws, two masks per draw, in
    // destination word order; the stream advanced by that many draws.
    std::vector<Word> masks;
    while (masks.size() < 5 * width) {
      const uint64_t m = expect_stream.Next64();
      masks.push_back(static_cast<Word>(m));
      masks.push_back(static_cast<Word>(m >> 32));
    }
    masks.resize(5 * width);
    EXPECT_EQ(rows.shares0(), masks);
    EXPECT_EQ(proto_.internal_rng()->Next64(), expect_stream.Next64());
    // The kernel charges nothing: callers charge the network.
    EXPECT_EQ(proto_.Snapshot().and_gates, stats_before.and_gates);
  }
}

TEST_F(ProtocolTest, PermuteAndReshareRejectsNonPermutations) {
  SharedRows rows(1);
  rows.AppendSecretRow({1}, &rng_);
  rows.AppendSecretRow({2}, &rng_);
  const std::vector<uint32_t> repeated = {1, 1};
  EXPECT_DEATH(proto_.PermuteAndReshare(&rows, repeated.data()), "");
  const std::vector<uint32_t> out_of_range = {0, 2};
  EXPECT_DEATH(proto_.PermuteAndReshare(&rows, out_of_range.data()), "");
}

TEST_F(ProtocolTest, SumColumn) {
  SharedRows rows(2);
  for (Word i = 1; i <= 10; ++i) rows.AppendSecretRow({i, 0}, &rng_);
  EXPECT_EQ(proto_.RecoverInside(proto_.SumColumn(rows, 0)), 55u);
  EXPECT_EQ(proto_.RecoverInside(proto_.SumColumn(rows, 1)), 0u);
}

// ---------------------------------------------------------------------------
// Joint noise (Alg. 2 lines 4-6)
// ---------------------------------------------------------------------------

TEST_F(ProtocolTest, JointLaplaceMatchesLaplaceDistribution) {
  const double scale = 5.0;
  SampleSet samples;
  for (int i = 0; i < 50000; ++i) samples.Add(proto_.JointLaplace(scale));
  EXPECT_NEAR(samples.Mean(), 0.0, 0.15);
  EXPECT_NEAR(samples.Variance(), 2 * scale * scale, 3.0);
  const double ks =
      KsDistance(samples, [&](double x) { return LaplaceCdf(x, scale); });
  EXPECT_LT(ks, 0.015);
}

TEST_F(ProtocolTest, JointLaplaceChargesCircuitCost) {
  const CircuitStats before = proto_.Snapshot();
  proto_.JointLaplace(1.0);
  const CircuitStats d = proto_.StatsSince(before);
  EXPECT_GT(d.and_gates, 0u);
  EXPECT_EQ(d.rounds, 1u);
}

TEST(JointNoiseSecurityTest, HonestPartyRandomnessSuffices) {
  // Two protocol instances whose *first* party uses the same seed but whose
  // second party differs must still produce different noise: a single
  // corrupted server cannot predict the output (it is masked by the honest
  // server's contribution).
  Party a0(0, 1), a1(1, 2);
  Party b0(0, 1), b1(1, 99999);
  Protocol2PC pa(&a0, &a1, CostModel::Free());
  Protocol2PC pb(&b0, &b1, CostModel::Free());
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (pa.JointLaplace(1.0) != pb.JointLaplace(1.0)) ++differing;
  }
  EXPECT_GT(differing, 95);
}

TEST(JointNoiseSecurityTest, DeterministicGivenBothSeeds) {
  Party a0(0, 5), a1(1, 6);
  Party b0(0, 5), b1(1, 6);
  Protocol2PC pa(&a0, &a1, CostModel::Free());
  Protocol2PC pb(&b0, &b1, CostModel::Free());
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(pa.JointLaplace(2.0), pb.JointLaplace(2.0));
  }
}

// ---------------------------------------------------------------------------
// Share uniformity through protocol operations
// ---------------------------------------------------------------------------

TEST_F(ProtocolTest, OperationOutputsHaveUniformShares) {
  // The share a single server holds after any secure operation must look
  // uniform regardless of the plaintext (here: all-zero inputs).
  int64_t bits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const WordShares out =
        proto_.Add(proto_.FreshShare(0), proto_.FreshShare(0));
    bits += __builtin_popcount(out.s0);
  }
  EXPECT_NEAR(static_cast<double>(bits) / kTrials, 16.0, 0.12);
}

}  // namespace
}  // namespace incshrink
