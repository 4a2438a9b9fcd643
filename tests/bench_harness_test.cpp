// bench/harness: results cross the fork intact, the child's own peak RSS
// comes back, and a failed child is an error rather than a zero record.
#include "harness.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <stdexcept>

namespace btpub::bench {
namespace {

struct Pod {
  double seconds;
  std::uint64_t items;
  char tag[8];
};

TEST(BenchHarness, PodResultRoundTrips) {
  const Forked<Pod> forked = run_forked("pod", [] {
    return Pod{1.25, 0x0123456789abcdefull, {'d', 'i', 'g', 'e', 's', 't'}};
  });
  EXPECT_EQ(forked.value.seconds, 1.25);
  EXPECT_EQ(forked.value.items, 0x0123456789abcdefull);
  EXPECT_STREQ(forked.value.tag, "digest");
  EXPECT_GT(forked.peak_rss_kb, 0);
}

constexpr std::size_t kBlockBytes = 64u << 20;

/// Allocates 64 MiB and touches every page, so all of it is resident.
int touch_block() {
  volatile char* block = static_cast<char*>(std::malloc(kBlockBytes));
  for (std::size_t i = 0; i < kBlockBytes; i += 4096) block[i] = 1;
  const int last = block[kBlockBytes - 4096];
  std::free(const_cast<char*>(block));
  return last;
}

TEST(BenchHarness, ChildAllocationShowsInItsPeakRss) {
  const long idle = run_forked("idle", [] { return 0; }).peak_rss_kb;
  const long big = run_forked("alloc", touch_block).peak_rss_kb;
  EXPECT_GE(big - idle, 60 * 1024) << "idle " << idle << " kB, alloc " << big;
}

TEST(BenchHarness, FailedChildIsReportedNotReadAsZeros) {
  EXPECT_THROW(run_forked("abort",
                          []() -> int {
                            const rlimit no_core{0, 0};  // no core file
                            setrlimit(RLIMIT_CORE, &no_core);
                            std::abort();
                          }),
               std::runtime_error);
  EXPECT_THROW(run_forked("exit", []() -> int { _exit(7); }),
               std::runtime_error);
  EXPECT_THROW(run_forked("throw",
                          []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // Exits cleanly but never sends its result: a short write.
  EXPECT_THROW(run_forked("short", []() -> int { _exit(0); }),
               std::runtime_error);
}

void exit_cleanly(int) { _exit(0); }

TEST(BenchHarness, SpawnHandsBackAValueAndStopReaps) {
  const Spawned<int> child = spawn<int>("server", [](auto&& ready) {
    std::signal(SIGTERM, exit_cleanly);
    ready(4242);
    for (;;) pause();
  });
  EXPECT_EQ(child.value, 4242);
  EXPECT_GT(stop("server", child.pid), 0);
}

}  // namespace
}  // namespace btpub::bench
