// common.hpp — shared pieces of the perfbench binary: clocks, process
// CPU and peak-RSS probes, the result digest, the in-memory span tracer
// and the one-line JSON report every perfbench process prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();
/// User+system CPU of the whole process, in seconds.
double process_cpu_s();
/// CPU of the calling thread, in seconds.
double thread_cpu_s();

/// Returns freed heap memory to the kernel and resets its peak-RSS mark
/// for this process (clear_refs 5), so peak_rss_mb() afterwards covers
/// only what is live now and what ran since. Returns false when the
/// kernel refuses; the peak then covers the whole process.
bool reset_peak_rss();
/// VmHWM of this process, in MiB.
double peak_rss_mb();

/// FNV-1a over result structures. Order-independent folds go through
/// unordered() so digests never depend on hash-table iteration order.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v);
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  template <typename Set, typename Fn>
  void unordered(const Set& set, Fn&& element_hash) {
    std::uint64_t x = 0;
    for (const auto& e : set) x += element_hash(e);
    u64(set.size());
    u64(x);
  }
};
std::uint64_t hash_str(std::string_view s);

/// Spans recorded in memory around each call into a btpub layer. Disabled
/// tracers record nothing, so untraced runs pay one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  bool enabled() const noexcept { return enabled_; }
  /// Opens a span that closes when the returned scope ends; nested scopes
  /// become its children.
  [[nodiscard]] Scope span(const char* name) { return Scope(this, name); }
  /// A count recorded at a layer boundary (kept even when disabled, so
  /// the digest and the gates can read it).
  void count(const std::string& name, double value) { counts_[name] = value; }
  const std::map<std::string, double>& counts() const noexcept { return counts_; }

  /// Per span name: summed self time (duration minus the union of its
  /// children's intervals), in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Writes every span (name, start, end, parent) and count as JSON.
  void write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  bool enabled_;
  int open_ = -1;
  std::vector<Record> spans_;
  std::map<std::string, double> counts_;
};

/// What one perfbench process reports (one JSON line on stdout).
struct Report {
  double setup_s = 0;
  double job_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  double announce_p50_us = 0;
  double server_cpu_us_per_req = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layers;

  /// Records a correctness gate: one attempted operation, failed when
  /// `ok` is false.
  void gate(bool ok, const std::string& what);
  std::string to_json() const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  /// Scratch directory inside the checkout (snapshots, trace files).
  std::string dir;
};

/// Copies the tracer's self times (as "<span>_s") and counts into the
/// report's per-layer map and writes the span file next to the workload's
/// other outputs.
void export_trace(const Tracer& tracer, const Options& options, Report& report);

Report run_simulate_quick(const Options& options);
Report run_analysis_1m(const Options& options);
Report run_dht_spoofed(const Options& options);
Report run_serve_udp(const Options& options);

}  // namespace perfbench
