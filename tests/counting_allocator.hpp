// counting_allocator.hpp — global operator new/delete replacements that
// count every heap allocation the test binary makes, for the tests that
// bound a parser's or a fast path's allocations.
//
// The replacements are ordinary (non-inline) definitions, as the standard
// requires, so include this header from exactly one source file of a test
// binary. gtest and the fixtures allocate freely; a test reads a counter's
// delta across the section it measures, or stores 0 into it first.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

/// Allocations, bytes allocated, and the largest single block.
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_max{0};

void note_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  std::uint64_t prev = g_alloc_max.load(std::memory_order_relaxed);
  while (size > prev &&
         !g_alloc_max.compare_exchange_weak(prev, size, std::memory_order_relaxed)) {
  }
}

}  // namespace

// Every operator-new form funnels through note_alloc. Every form is out of
// line, so GCC's -Wmismatched-new-delete never sees a malloc() or free()
// inlined next to a call it cannot tell is this file's matching one.
[[gnu::noinline]] void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  note_alloc(size);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                        std::align_val_t align) {
  return ::operator new(size, align);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}
