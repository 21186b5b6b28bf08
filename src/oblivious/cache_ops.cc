#include "src/oblivious/cache_ops.h"

#include <algorithm>

#include "src/oblivious/formats.h"

namespace incshrink {

SharedRows TakeSortedPrefix(Protocol2PC* proto, SharedRows* cache,
                            size_t read_size) {
  read_size = std::min(read_size, cache->size());
  // The fetched shares are re-addressed to the view object: charge transfer.
  proto->AccountBytes(read_size * cache->width() * sizeof(Word) * 2);
  proto->AccountRounds(1);
  return cache->SplitPrefix(read_size);
}

SharedRows TakeFlushPrefix(Protocol2PC* proto, SharedRows* cache,
                           size_t flush_size) {
  flush_size = std::min(flush_size, cache->size());
  proto->AccountBytes(flush_size * cache->width() * sizeof(Word) * 2);
  proto->AccountRounds(1);
  SharedRows fetched = cache->SplitPrefix(flush_size);
  cache->Clear();  // recycle the remaining array (frees the memory space)
  return fetched;
}

uint32_t CountRealInside(Protocol2PC* proto, const SharedRows& rows) {
  const WordShares sum = proto->SumColumn(rows, kViewIsViewCol);
  return proto->RecoverInside(sum);
}

}  // namespace incshrink
