// harness.hpp — the plumbing every *_perf bench shares: fork-per-case
// isolation, one flag parser, and one writer for the BENCH file envelope.
// Peak RSS is monotone per process, so back-to-back cases in one process
// would all report the largest predecessor's footprint; a forked case
// reports its own, read from wait4() when the child exits.
#pragma once

#include <sys/types.h>

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace btpub::bench {

namespace detail {
/// Forks. The child runs `body(write_fd)`, then `_exit`s 0 (3 if it
/// threw); the parent reads exactly `size` bytes into `out` and returns the
/// child's pid, or reaps a child that sent fewer and throws.
pid_t fork_child(const char* what, void* out, std::size_t size,
                 const std::function<void(int)>& body);
/// Writes all of `size` bytes or `_exit`s 3 (child side only).
void send(int fd, const void* data, std::size_t size);
/// Waits for `pid` and returns its peak RSS in kB; throws
/// std::runtime_error unless it exited with status 0.
long reap(const char* what, pid_t pid);
}  // namespace detail

template <typename T>
struct Forked {
  T value;
  long peak_rss_kb = 0;
};

/// Runs `body` in a forked child and returns what it computed, with the
/// child's peak RSS. A child that exits non-zero, dies on a signal or sends
/// a short result throws std::runtime_error; it is never read as zeros.
template <typename Body, typename T = std::invoke_result_t<Body&>>
  requires std::is_trivially_copyable_v<T>
Forked<T> run_forked(const char* what, Body&& body) {
  Forked<T> result{};
  const pid_t pid = detail::fork_child(
      what, &result.value, sizeof(T), [&](int fd) {
        const T value = body();
        detail::send(fd, &value, sizeof value);
      });
  result.peak_rss_kb = detail::reap(what, pid);
  return result;
}

template <typename T>
struct Spawned {
  pid_t pid = -1;
  T value;  // what the child handed to ready()
};

/// Forks a long-lived child (net_perf's serving daemon). The child runs
/// `body(ready)` and calls `ready(value)` once, e.g. with its bound ports;
/// spawn() returns when that value arrives.
template <typename T, typename Body>
  requires std::is_trivially_copyable_v<T>
Spawned<T> spawn(const char* what, Body&& body) {
  Spawned<T> child{};
  child.pid = detail::fork_child(what, &child.value, sizeof(T), [&](int fd) {
    body([fd](const T& value) { detail::send(fd, &value, sizeof value); });
  });
  return child;
}

/// Sends SIGTERM to a spawned child, then reaps it: returns its peak RSS in
/// kB and throws unless it exited with status 0.
long stop(const char* what, pid_t pid);

/// One command-line flag and where its value goes. Callbacks take no value
/// (they run in argv order, so a later flag can override a `--quick`
/// preset). Counts parse with parse_uint; a list is comma-separated
/// non-zero counts (`--sessions N[,N...]`); doubles must be non-negative.
struct Flag {
  std::string_view name;
  std::variant<std::function<void()>, std::uint64_t*, double*, std::string*,
               std::vector<std::uint64_t>*>
      target;
};

/// Parses argv against `flags`. An unknown flag or a missing or malformed
/// value prints `usage: PROGRAM USAGE` to stderr and exits 2.
void parse_flags(int argc, char** argv, std::string_view usage,
                 std::initializer_list<Flag> flags);

/// One JSON object on one line, keys in insertion order: a BENCH file's
/// config block or one of its result rows.
class JsonObject {
 public:
  JsonObject& text(std::string_view key, std::string_view value);
  JsonObject& integer(std::string_view key, std::integral auto value) {
    return raw(key, std::to_string(value));
  }
  /// Fixed-point with `decimals` digits, as printf's "%.*f".
  JsonObject& fixed(std::string_view key, double value, int decimals);
  /// Shortest natural form, as printf's "%g" (2.0 prints as 2).
  JsonObject& real(std::string_view key, double value);

  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(std::string_view key, std::string_view json);
  std::string body_;
};

/// Writes {"benchmark", "machine": {"cores"}, "config", "results": [...]}
/// to `path` and prints "wrote PATH"; does nothing when `path` is empty (no
/// --json given).
void write_bench_json(const std::string& path, std::string_view benchmark,
                      const JsonObject& config,
                      const std::vector<JsonObject>& results);

/// Runs a bench's `run`, turning an escaped exception (a failed forked
/// case, an unwritable --json path) into "PROGRAM: message" and exit 2.
int guarded_main(int argc, char** argv, int (*run)(int, char**));

}  // namespace btpub::bench
