// parallel.hpp — the one batch-parallel primitive: run a body over [0, n).
//
// The contract every consumer relies on: results are byte-identical to a
// serial run at any thread count. parallel_for guarantees nothing about
// which worker runs which index or in what order, so a caller gets that
// contract by letting body(i, w) write only state owned by index i (slot i
// of a preallocated vector) plus scratch owned by worker w that never
// influences a result.
//
// Its one caller is the ecosystem build (core/ecosystem.cpp), the one
// stage a 4-core measurement showed to pay for a fan-out (DESIGN §4.1).
// The measurement crawl runs on one thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace btpub {

/// Resolves a user-facing thread-count knob: 0 -> hardware concurrency,
/// floor of 1 (hardware_concurrency() may report 0 in containers).
inline std::size_t resolve_threads(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Runs `body(i, w)` for every i in [0, n), where w < `workers` names the
/// worker running it. The caller's thread is worker 0, next to up to
/// `workers - 1` jthreads; each index is claimed from one shared counter,
/// so an expensive index delays only the worker that claimed it. With
/// `workers <= 1` or `n <= 1` the loop runs inline and starts no thread.
/// After a body throws, no worker claims a new index; the first exception
/// is rethrown here once every worker has joined.
template <typename Body>
void parallel_for(std::size_t n, std::size_t workers, Body&& body) {
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, std::size_t{0});
    return;
  }
  workers = std::min(workers, n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written only by the worker that set `failed`
  const auto work = [&](std::size_t w) {
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i, w);
      }
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
    work(0);
  }  // the jthreads join here
  if (error) std::rethrow_exception(error);
}

}  // namespace btpub
