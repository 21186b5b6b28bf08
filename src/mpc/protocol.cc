#include "src/mpc/protocol.h"

#include <algorithm>
#include <cmath>

#include "src/common/fixed_point.h"
#include "src/common/logging.h"

namespace incshrink {

namespace {

/// AND-gate cost of a fixed-point natural-log circuit plus the scale
/// multiplication used by joint noise generation. A 32-bit fixed-point log
/// via polynomial approximation costs a few multiplications; 5 muls at w^2
/// gates each is a representative garbled-circuit figure.
constexpr uint64_t kJointNoiseAndGates = 5 * kWordBits * kWordBits;

}  // namespace

Protocol2PC::Protocol2PC(Party* s0, Party* s1, CostModel model)
    : s0_(s0), s1_(s1), model_(model),
      // The internal resharing stream is seeded from randomness contributed
      // by BOTH parties, so neither can predict it alone (Appendix A.2).
      internal_rng_((static_cast<uint64_t>(s0->ContributeRandomWord()) << 32) ^
                    s1->ContributeRandomWord() ^ 0xA5A5A5A5DEADBEEFull) {}

WordShares Protocol2PC::Reshare(Word value) {
  const Word mask = internal_rng_.Next32();
  return WordShares{mask, static_cast<Word>(value ^ mask)};
}

WordShares Protocol2PC::FreshShare(Word value) {
  // Each server contributes z_i; c0 = z0 ^ z1, c1 = c0 ^ value. Two private
  // inputs of one word each.
  const Word z0 = s0_->ContributeRandomWord();
  const Word z1 = s1_->ContributeRandomWord();
  AccountBytes(2 * sizeof(Word));
  AccountRounds(1);
  const Word c0 = z0 ^ z1;
  return WordShares{c0, static_cast<Word>(c0 ^ value)};
}

Word Protocol2PC::Reveal(const WordShares& x) {
  AccountBytes(2 * sizeof(Word));
  AccountRounds(1);
  return x.s0 ^ x.s1;
}

WordShares Protocol2PC::Xor(const WordShares& a, const WordShares& b) {
  AccountXorGates(kWordBits);
  // Free-XOR: computed locally on shares, no fresh randomness needed.
  return WordShares{static_cast<Word>(a.s0 ^ b.s0),
                    static_cast<Word>(a.s1 ^ b.s1)};
}

WordShares Protocol2PC::Add(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits);
  return Reshare(RecoverInside(a) + RecoverInside(b));
}

WordShares Protocol2PC::Sub(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits);
  return Reshare(RecoverInside(a) - RecoverInside(b));
}

WordShares Protocol2PC::Mul(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits * kWordBits);
  return Reshare(RecoverInside(a) * RecoverInside(b));
}

WordShares Protocol2PC::LessThan(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits);
  // oblivious-ok: ideal-functionality gate — comparison cost charged above,
  // result re-shared; never observable as plaintext
  return Reshare(RecoverInside(a) < RecoverInside(b) ? 1 : 0);
}

WordShares Protocol2PC::Equal(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits);
  // oblivious-ok: ideal-functionality gate — equality cost charged above,
  // result re-shared
  return Reshare(RecoverInside(a) == RecoverInside(b) ? 1 : 0);
}

WordShares Protocol2PC::Mux(const WordShares& cond, const WordShares& a,
                            const WordShares& b) {
  AccountAndGates(kWordBits);
  const Word c = RecoverInside(cond);
  INCSHRINK_CHECK(c == 0 || c == 1);
  // oblivious-ok: ideal-functionality mux — selection cost charged above,
  // both arms recovered unconditionally, result re-shared
  return Reshare(c ? RecoverInside(a) : RecoverInside(b));
}

WordShares Protocol2PC::And(const WordShares& a, const WordShares& b) {
  AccountAndGates(1);
  return Reshare((RecoverInside(a) & RecoverInside(b)) & 1);
}

WordShares Protocol2PC::Or(const WordShares& a, const WordShares& b) {
  AccountAndGates(1);
  return Reshare((RecoverInside(a) | RecoverInside(b)) & 1);
}

WordShares Protocol2PC::Not(const WordShares& a) {
  AccountXorGates(1);
  return Reshare((RecoverInside(a) ^ 1) & 1);
}

WordShares Protocol2PC::RowWord(const SharedRows& rows, size_t row,
                                size_t col) const {
  return WordShares{rows.share0_at(row, col), rows.share1_at(row, col)};
}

void Protocol2PC::SetRowWord(SharedRows* rows, size_t row, size_t col,
                             const WordShares& v) {
  rows->set_share0_at(row, col, v.s0);
  rows->set_share1_at(row, col, v.s1);
}

WordShares Protocol2PC::SumColumn(const SharedRows& rows, size_t col) {
  // n-1 ripple-carry additions.
  if (!rows.empty()) AccountAndGates((rows.size() - 1) * kWordBits);
  Word sum = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    sum += rows.share0_at(r, col) ^ rows.share1_at(r, col);
  }
  return Reshare(sum);
}

// ---------------------------------------------------------------------------
// Batched oblivious primitives
// ---------------------------------------------------------------------------

void Protocol2PC::PermuteAndReshare(SharedRows* rows,
                                    const uint32_t* src_of_dst) {
  const size_t n = rows->size();
  const size_t w = rows->width();
  const size_t words = n * w;
  Word* s0 = rows->mutable_share0();
  Word* s1 = rows->mutable_share1();
  // Recover every word into the S1 array, inside the functionality.
  for (size_t i = 0; i < words; ++i) s1[i] ^= s0[i];
  // oblivious-ok-begin: ideal-functionality gather — the caller charged
  // the whole network it stands for, and every output word is re-masked
  // below in destination order, so no share depends on the permutation
  std::vector<uint8_t> pending(n, 0);  // 1 = row not yet moved
  for (size_t k = 0; k < n; ++k) {
    INCSHRINK_CHECK_LT(src_of_dst[k], n);
    INCSHRINK_CHECK(pending[src_of_dst[k]] == 0);  // a permutation
    pending[src_of_dst[k]] = 1;
  }
  // Cycle by cycle: hold the cycle's first row, pull each source row into
  // its destination, and drop the held row into the last slot.
  std::vector<Word> held(w);
  for (size_t start = 0; start < n; ++start) {
    if (pending[start] == 0) continue;
    pending[start] = 0;
    if (src_of_dst[start] == start) continue;
    std::copy_n(s1 + start * w, w, held.data());
    size_t dst = start;
    for (size_t src = src_of_dst[dst]; src != start; src = src_of_dst[dst]) {
      std::copy_n(s1 + src * w, w, s1 + dst * w);
      pending[src] = 0;
      dst = src;
    }
    std::copy_n(held.data(), w, s1 + dst * w);
  }
  // oblivious-ok-end
  // Fresh masks in destination word order, two per 64-bit draw.
  size_t i = 0;
  for (; i + 1 < words; i += 2) {
    const uint64_t m = internal_rng_.Next64();
    s0[i] = static_cast<Word>(m);
    s1[i] ^= static_cast<Word>(m);
    s0[i + 1] = static_cast<Word>(m >> 32);
    s1[i + 1] ^= static_cast<Word>(m >> 32);
  }
  if (i < words) {
    const Word m = static_cast<Word>(internal_rng_.Next64());
    s0[i] = m;
    s1[i] ^= m;
  }
}

void Protocol2PC::AccountCompareExchangeBatch(uint64_t ops, size_t width,
                                              bool lex) {
  const uint64_t compare_gates = lex ? 3 * kWordBits + 2 : kWordBits;
  const uint64_t gates = ops * (compare_gates + width * kWordBits);
  AccountAndGates(gates);
  if (batch_trace_enabled_) {
    batch_trace_.push_back({lex ? BatchTraceEvent::Kind::kCompareExchangeLex
                                : BatchTraceEvent::Kind::kCompareExchange,
                            ops, CircuitStats{gates, 0, 0, 0}});
  }
}

void Protocol2PC::AccountMuxSwapBatch(uint64_t ops, size_t width) {
  const uint64_t gates = ops * width * kWordBits;
  AccountAndGates(gates);
  if (batch_trace_enabled_) {
    batch_trace_.push_back({BatchTraceEvent::Kind::kMuxSwap, ops,
                            CircuitStats{gates, 0, 0, 0}});
  }
}

void Protocol2PC::CountWhereBatch(const CountWhereTask* tasks, size_t count,
                                  WordShares* out) {
  if (count == 0) return;
  uint64_t gates = 0;
  for (size_t k = 0; k < count; ++k) {
    // Per row: predicate circuit + AND with the flag + ripple-carry
    // accumulate — the exact scalar ObliviousCountWhere charge.
    gates += tasks[k].rows->size() *
             (tasks[k].pred_and_gates_per_row + 1 + kWordBits);
  }
  AccountAndGates(gates);
  if (batch_trace_enabled_) {
    batch_trace_.push_back({BatchTraceEvent::Kind::kCountWhere, count,
                            CircuitStats{gates, 0, 0, 0}});
  }
  for (size_t k = 0; k < count; ++k) {
    const SharedRows& rows = *tasks[k].rows;
    const size_t flag_col = tasks[k].flag_col;
    const auto* pred = tasks[k].pred;
    std::vector<Word> scratch(rows.width());
    Word tally = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < rows.width(); ++c)
        scratch[c] = rows.share0_at(r, c) ^ rows.share1_at(r, c);
      // oblivious-ok: ideal-functionality COUNT — the per-row predicate +
      // accumulate circuit is charged for every row above; the tally is
      // re-shared, never revealed
      if ((scratch[flag_col] & 1) && (pred == nullptr || (*pred)(scratch)))
        ++tally;
    }
    // One fresh-share mask per task, in task order (== the scalar ShareWord
    // sequence).
    out[k] = Reshare(tally);
  }
}

void Protocol2PC::EnableBatchTrace(bool on) {
  batch_trace_enabled_ = on;
  // Disabling only stops recording — the collected trace stays readable.
  if (on) batch_trace_.clear();
}

double Protocol2PC::JointLaplace(double scale) {
  INCSHRINK_CHECK_GT(scale, 0.0);
  const Word z0 = s0_->ContributeRandomWord();
  const Word z1 = s1_->ContributeRandomWord();
  AccountBytes(2 * sizeof(Word));
  AccountRounds(1);
  AccountAndGates(kJointNoiseAndGates);
  const Word z = z0 ^ z1;
  const double r = FixedPointOpenUnit(z);  // in (0, 1)
  const double sign = SignFromMsb(z);
  // scale * ln(r) <= 0 and |scale * ln(r)| ~ Exp(scale), so the product with
  // the uniform sign bit is distributed exactly Lap(0, scale).
  return scale * std::log(r) * sign;
}

}  // namespace incshrink
