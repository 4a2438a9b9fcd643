// parallel.hpp — deterministic shard/merge primitives for the ecosystem
// build.
//
// The contract every consumer relies on (the same invariant the crawl
// engine established): results are byte-identical to a serial run
// at any thread count. The primitives here guarantee the easy half —
// partial results always come back in shard order (shard i covers a
// contiguous [begin, end) slice of the input, and shard i's result
// precedes shard i+1's) — so a caller whose merge is order-preserving
// (concatenation, first-occurrence dedup, commutative sums) reproduces
// the serial left-to-right scan exactly. Worker exceptions propagate to
// the caller through the futures, never swallowed.
#pragma once

#include <cstddef>
#include <future>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace btpub {

/// Splits [0, n) into at most `shards` contiguous, non-empty [begin, end)
/// spans of near-equal size, in ascending order. Returns an empty vector
/// when n == 0.
std::vector<std::pair<std::size_t, std::size_t>> shard_spans(std::size_t n,
                                                             std::size_t shards);

/// Runs `scan(begin, end)` over each span of [0, n) and returns the partial
/// results **in span order** — the property deterministic merges build on.
/// `threads` counts pool workers (0 = hardware concurrency); `shards_hint`
/// requests finer-grained spans for load balancing when per-item cost is
/// uneven (0 = one span per worker, the cheapest-merge default). With one
/// span (or one thread) the scan runs inline on the caller's thread.
template <typename Scan>
auto sharded_scan(std::size_t n, std::size_t threads, Scan&& scan,
                  std::size_t shards_hint = 0)
    -> std::vector<decltype(scan(std::size_t{}, std::size_t{}))> {
  using Partial = decltype(scan(std::size_t{}, std::size_t{}));
  const std::size_t workers = ThreadPool::resolve_threads(threads);
  const auto spans =
      shard_spans(n, shards_hint != 0 && workers > 1 ? shards_hint : workers);
  std::vector<Partial> partials;
  partials.reserve(spans.size());
  if (workers <= 1 || spans.size() <= 1) {
    for (const auto& [begin, end] : spans) partials.push_back(scan(begin, end));
    return partials;
  }
  ThreadPool pool(std::min(workers, spans.size()));
  std::vector<std::future<Partial>> futures;
  futures.reserve(spans.size());
  for (const auto& [begin, end] : spans) {
    futures.push_back(
        pool.submit([&scan, begin = begin, end = end] { return scan(begin, end); }));
  }
  for (auto& future : futures) partials.push_back(future.get());
  return partials;
}

/// Runs `body(i)` for every i in [0, n) across `threads` workers. The body
/// must only touch state owned by index i (typically writing result slot i
/// of a preallocated vector) — which makes the result independent of both
/// interleaving and shard boundaries. Spans are oversubscribed 4x by
/// default so one expensive item cannot serialise a whole shard's worth of
/// work behind it.
template <typename Body>
void parallel_for_each_index(std::size_t n, std::size_t threads, Body&& body,
                             std::size_t shards_hint = 0) {
  const std::size_t workers = ThreadPool::resolve_threads(threads);
  sharded_scan(
      n, threads,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
        return 0;
      },
      shards_hint != 0 ? shards_hint : workers * 4);
}

}  // namespace btpub
