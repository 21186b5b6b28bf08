// Lint self-test fixture: a recombined secret stored into an element of a
// container — directly or through a member of one of its elements — taints
// the whole container where it is declared, even when the store sits in a
// nested block; a later public store into one element does not launder it.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// expect-findings: 2
#include "src/mpc/protocol.h"

namespace incshrink {

struct Item {
  Word major;
  Word minor;
};

void ElementStores(const SharedRows& rows) {
  std::vector<Item> items(2);
  for (size_t r = 0; r < 2; ++r) {
    items[r].major = rows.share0_at(r, 0) ^ rows.share1_at(r, 0);
  }
  items[1].minor = 0;  // public store: the container stays tainted
  if (items[0].major < items[1].major) {  // FINDING: member-of-element store
    return;
  }
  std::vector<Word> keys(2);
  for (size_t r = 0; r < 2; ++r) {
    keys[r] = rows.share0_at(r, 0) ^ rows.share1_at(r, 0);
  }
  if (keys[0] < keys[1]) {  // FINDING: element store
    return;
  }
  std::vector<Word> halves(2);
  for (size_t r = 0; r < 2; ++r) {
    halves[r] = rows.share0_at(r, 0);  // one share alone is uniform noise
  }
  if (halves[0] < halves[1]) {  // clean
    return;
  }
}

}  // namespace incshrink
