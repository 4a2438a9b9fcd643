// loadgen.hpp — multi-threaded announce load generator (`btpub loadgen`).
//
// Each worker owns one connected UDP socket (or one keep-alive HTTP
// connection), performs the BEP 15 connect handshake, then drives a
// deterministic request stream: worker w's stream is a pure function of
// derive_seed(seed, tag, w), so two runs against the same server issue the
// same announces in the same order. Rate control is open-loop when `rate`
// is set (requests are scheduled on a token clock and lateness is never
// allowed to shrink the offered load — the standard coordinated-omission
// fix) and closed-loop otherwise (`window` outstanding requests).
//
// Latencies are recorded into log-bucketed histograms (~12.5% resolution,
// 8 sub-buckets per octave) and merged across workers for the report.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/time.hpp"

namespace btpub::netio {

/// Log-bucketed latency histogram: exact below 8 ns, then 8 sub-buckets
/// per power of two (worst-case ~12.5% relative error on percentiles).
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) noexcept {
    ++counts_[bucket_of(ns)];
    ++total_;
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }

  std::uint64_t total() const noexcept { return total_; }

  /// The lower bound of the bucket holding the p-quantile (p in [0, 1]).
  std::uint64_t percentile_ns(double p) const noexcept {
    if (total_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(total_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > target) return bucket_floor(i);
    }
    return bucket_floor(counts_.size() - 1);
  }

 private:
  static std::size_t bucket_of(std::uint64_t ns) noexcept {
    if (ns < 8) return static_cast<std::size_t>(ns);
    int exp = 63;
    while ((ns >> exp) == 0) --exp;  // exp = floor(log2 ns), >= 3
    const std::uint64_t sub = (ns >> (exp - 3)) & 7u;
    return 8 + static_cast<std::size_t>(exp - 3) * 8 + sub;
  }

  static std::uint64_t bucket_floor(std::size_t index) noexcept {
    if (index < 8) return index;
    const std::size_t exp = (index - 8) / 8 + 3;
    const std::uint64_t sub = (index - 8) % 8;
    return (8ull + sub) << (exp - 3);
  }

  std::array<std::uint64_t, 8 + 61 * 8> counts_{};
  std::uint64_t total_ = 0;
};

struct LoadgenConfig {
  std::string target_ip = "127.0.0.1";
  std::uint16_t udp_port = 0;
  std::size_t threads = 1;
  double duration_seconds = 2.0;
  /// Per-worker announce cap; 0 = bounded by duration only.
  std::uint64_t max_requests = 0;
  /// Open-loop offered load per worker in announces/sec; 0 = closed loop.
  double rate = 0.0;
  /// Closed-loop outstanding-request window.
  std::size_t window = 32;
  std::uint64_t seed = 42;
  /// Number of swarms in the server's world (infohashes are derived from
  /// `seed` exactly as the daemon derives them).
  std::size_t swarms = 64;
  std::uint32_t numwant = 50;
  /// Drive GET /announce over a keep-alive pipelined HTTP connection
  /// instead of UDP.
  bool use_http = false;
  std::uint16_t http_port = 0;
};

struct LoadgenReport {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t errors = 0;      // BEP 15 error replies / non-200 statuses
  std::uint64_t timeouts = 0;    // overwritten or never-answered slots
  std::uint64_t reconnects = 0;  // connection-id refresh round-trips
  double elapsed_seconds = 0.0;  // slowest worker's wall time
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
  LatencyHistogram histogram;

  double throughput() const noexcept {
    return elapsed_seconds > 0.0
               ? static_cast<double>(received) / elapsed_seconds
               : 0.0;
  }
};

/// Runs `threads` workers to completion and returns the merged report.
/// Throws std::system_error when a socket cannot be created/connected.
LoadgenReport run_loadgen(const LoadgenConfig& config);

}  // namespace btpub::netio
