#pragma once

#include <cstddef>

#include "src/mpc/protocol.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// \brief Secure-cache operations (paper Fig. 3 and Section 5.2).
///
/// The secure cache sigma is an exhaustively padded shared array in view-row
/// format. Reads must never reveal which entries are real, so every access
/// first obliviously sorts the whole cache by the cache ordering key (real
/// tuples ahead of dummies, FIFO among real tuples) and then cuts a prefix
/// of *public* length.

/// Oblivious cache read, post-sort half (Fig. 3): the caller has sorted
/// `cache` by the cache key, descending — real tuples ahead of dummies,
/// FIFO among real tuples — usually as one job of a multi-shard sort
/// submission. Charges the share-transfer cost and cuts the first
/// `read_size` rows, returning them. `read_size` is public (it is the
/// DP-noised batch size released by Shrink); it is clamped to the cache
/// size.
SharedRows TakeSortedPrefix(Protocol2PC* proto, SharedRows* cache,
                            size_t read_size);

/// Cache flush (Section 5.2.1), post-sort half: fetches the first
/// `flush_size` rows of the sorted cache and recycles (drops) the
/// remainder — including, with small probability, deferred real tuples.
/// Under `sort_algorithm = shuffle_sort` the engine's flush replaces the
/// sort with one random Waksman shuffle (ObliviousRandomPermute): the
/// prefix cut is public-size and recycling is lossy by design, so any
/// secret permutation randomizes which rows are fetched versus recycled.
SharedRows TakeFlushPrefix(Protocol2PC* proto, SharedRows* cache,
                           size_t flush_size);

/// Obliviously counts real entries (isView == 1) in a view-format table.
/// The result is known only inside the protocol.
uint32_t CountRealInside(Protocol2PC* proto, const SharedRows& rows);

}  // namespace incshrink
