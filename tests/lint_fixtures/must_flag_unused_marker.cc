// Lint self-test fixture: `oblivious-ok` markers that suppress nothing are
// reported as unused (and fail a real lint run), line and region alike,
// while a marker that does suppress a finding still counts as used.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// expect-findings: 0
// expect-suppressed: 1
// expect-unused-markers: 2
#include "src/mpc/protocol.h"

namespace incshrink {

void StaleMarkers(Protocol2PC* proto, WordShares x, uint64_t t) {
  const Word v = RecoverWord(x);
  // oblivious-ok: fixture — still sanctions the secret branch below
  if (v > 1) {
    proto->AccountRounds(1);
  }
  // oblivious-ok: fixture — stale, the branch below tests a public clock
  if (t % 2 == 0) {
    proto->AccountRounds(1);
  }
  // oblivious-ok-begin: fixture — stale region around public code only
  proto->AccountRounds(t);
  // oblivious-ok-end
}

}  // namespace incshrink
