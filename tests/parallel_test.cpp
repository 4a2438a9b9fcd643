// parallel_for: every index visited exactly once, worker ids in range,
// inline execution on one worker, exception propagation after join, and
// resolve_threads' "0 = hardware concurrency" rule.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace btpub {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnceWithWorkerInRange) {
  for (const std::size_t n : {0u, 1u, 7u, 1000u}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " workers=" + std::to_string(workers));
      std::vector<std::atomic<int>> visits(n);
      std::atomic<bool> worker_out_of_range{false};
      parallel_for(n, workers, [&](std::size_t i, std::size_t w) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
        if (w >= workers) worker_out_of_range = true;
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
      EXPECT_FALSE(worker_out_of_range.load());
    }
  }
}

TEST(ParallelFor, OneWorkerRunsInOrderOnTheCallersThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool off_thread = false;
  parallel_for(20, 1, [&](std::size_t i, std::size_t w) {
    order.push_back(i);
    if (std::this_thread::get_id() != caller || w != 0) off_thread = true;
  });
  EXPECT_FALSE(off_thread);
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ThrowRethrowsAtCallerAfterEveryWorkerJoined) {
  constexpr std::size_t kWorkers = 4;
  // Workers still inside a body when the throw lands must finish before
  // parallel_for returns; `running` counts bodies in flight.
  std::atomic<int> running{0};
  std::atomic<int> visited{0};
  EXPECT_THROW(parallel_for(1000, kWorkers,
                            [&](std::size_t i, std::size_t) {
                              if (i == 3) throw std::runtime_error("body failed");
                              running.fetch_add(1);
                              visited.fetch_add(1);
                              std::this_thread::sleep_for(std::chrono::milliseconds(1));
                              running.fetch_sub(1);
                            }),
               std::runtime_error);
  EXPECT_EQ(running.load(), 0);
  // No index is claimed after the failure: the other workers stop after
  // the body they were in, long before they could work through all 999.
  EXPECT_LT(visited.load(), 999);
}

TEST(ParallelFor, ThrowOnOneWorkerPropagates) {
  int visited = 0;
  EXPECT_THROW(parallel_for(10, 1,
                            [&](std::size_t i, std::size_t) {
                              ++visited;
                              if (i == 2) throw std::runtime_error("body failed");
                            }),
               std::runtime_error);
  EXPECT_EQ(visited, 3);
}

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(resolve_threads(4), 4u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_GE(resolve_threads(0), 1u);
}

}  // namespace
}  // namespace btpub
