#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "util/strings.hpp"

namespace btpub::bench {

namespace {

[[noreturn]] void fail(const char* what, const std::string& why) {
  throw std::runtime_error(std::string(what) + ": " + why);
}

}  // namespace

namespace detail {

void send(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n <= 0) _exit(3);
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

pid_t fork_child(const char* what, void* out, std::size_t size,
                 const std::function<void(int)>& body) {
  int fd[2];
  if (pipe(fd) != 0) fail(what, "pipe failed");
  std::fflush(nullptr);  // or the child's exit path would repeat our output
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    fail(what, "fork failed");
  }
  if (pid == 0) {
    close(fd[0]);
    int status = 0;
    try {
      body(fd[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", what, e.what());
      status = 3;
    }
    _exit(status);
  }
  close(fd[1]);
  auto* p = static_cast<char*>(out);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = read(fd[0], p + got, size - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fd[0]);
  if (got < size) {
    reap(what, pid);  // throws if the child failed, which explains the gap
    fail(what, "child sent " + std::to_string(got) + " of " +
                   std::to_string(size) + " result bytes");
  }
  return pid;
}

long reap(const char* what, pid_t pid) {
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) fail(what, "wait4 failed");
  if (WIFSIGNALED(status)) {
    fail(what, "child killed by signal " + std::to_string(WTERMSIG(status)));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fail(what, "child exited with status " +
                   std::to_string(WEXITSTATUS(status)));
  }
  return usage.ru_maxrss;  // kilobytes on Linux
}

}  // namespace detail

long stop(const char* what, pid_t pid) {
  kill(pid, SIGTERM);
  return detail::reap(what, pid);
}

void parse_flags(int argc, char** argv, std::string_view usage,
                 std::initializer_list<Flag> flags) {
  const auto die = [&](const char* why, std::string_view arg) {
    if (why != nullptr) {
      std::fprintf(stderr, "%s: %s %.*s\n", argv[0], why,
                   static_cast<int>(arg.size()), arg.data());
    }
    std::fprintf(stderr, "usage: %s %.*s\n", argv[0],
                 static_cast<int>(usage.size()), usage.data());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (f.name == arg) flag = &f;
    }
    if (flag == nullptr) die(nullptr, arg);
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) die("missing value for", arg);
      return argv[++i];
    };
    const auto count = [&](std::string_view text) {
      const std::optional<std::uint64_t> n = parse_uint(text);
      if (!n) die("bad value for", arg);
      return *n;
    };
    std::visit(
        [&](auto target) {
          using Target = decltype(target);
          if constexpr (std::is_same_v<Target, std::function<void()>>) {
            target();
          } else if constexpr (std::is_same_v<Target, std::uint64_t*>) {
            *target = count(value());
          } else if constexpr (std::is_same_v<Target, double*>) {
            const std::string_view text = value();
            double v = 0.0;
            const char* end = text.data() + text.size();
            const auto [ptr, ec] = std::from_chars(text.data(), end, v);
            if (text.empty() || ec != std::errc() || ptr != end ||
                !(v >= 0.0)) {
              die("bad value for", arg);
            }
            *target = v;
          } else if constexpr (std::is_same_v<Target, std::string*>) {
            *target = value();
          } else {
            target->clear();
            for (const std::string_view field : split_views(value(), ',')) {
              const std::uint64_t n = count(field);
              if (n == 0) die("bad value for", arg);
              target->push_back(n);
            }
          }
        },
        flag->target);
  }
}

JsonObject& JsonObject::raw(std::string_view key, std::string_view json) {
  if (!body_.empty()) body_ += ", ";
  body_.append("\"").append(key).append("\": ").append(json);
  return *this;
}

JsonObject& JsonObject::text(std::string_view key, std::string_view value) {
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return raw(key, quoted + '"');
}

JsonObject& JsonObject::fixed(std::string_view key, double value,
                              int decimals) {
  return raw(key, format_double(value, decimals));
}

JsonObject& JsonObject::real(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", value);
  return raw(key, buf);
}

void write_bench_json(const std::string& path, std::string_view benchmark,
                      const JsonObject& config,
                      const std::vector<JsonObject>& results) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"benchmark\": \"" << benchmark << "\",\n"
      << "  \"machine\": {\"cores\": " << std::thread::hardware_concurrency()
      << "},\n"
      << "  \"config\": " << config.str() << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "    " << results[i].str()
        << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  out.close();
  if (!out) fail("write_bench_json", "cannot write " + path);
  std::printf("wrote %s\n", path.c_str());
}

int guarded_main(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}

}  // namespace btpub::bench
