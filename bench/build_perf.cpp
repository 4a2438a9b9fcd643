// build_perf — machine-readable perf baseline for ecosystem construction
// and DHT-overlay scheduling. Times Ecosystem::build() at several thread
// counts plus build_dht_overlay() (typed lazy cursors), and writes wall
// time, peak RSS and the event-queue counters to a JSON file so CI can
// archive a perf trajectory across PRs.
//
// Every case runs in a fork()ed child so its peak RSS is its own: RSS is
// monotone per process, so back-to-back cases in one process would all
// report the largest predecessor's footprint. The child ships a POD result
// record back over a pipe.
//
// The overlay case also replays the scheduled life through the window:
// `dispatched` is then the number of occurrences an eager scheduler would
// have heap-allocated closures for up front, while `pending_after_build`
// is what the lazy typed cursors actually kept in memory — the
// O(sessions x window/30min) vs O(sessions) headline.
//
// --snapshot switches to the dataset snapshot suite (emits
// BENCH_snapshot.json by default): synthetic million-session worlds are
// built deterministically, then each persistence phase — pointer-heavy
// Dataset build, CompactDataset conversion, snapshot save, open, query
// and inflate — runs fork-isolated for wall time and honest peak RSS.
// Open and open-plus-inflate report the fastest of five runs.
// The query case opens the snapshot AND scans every downloader entry
// (distinct-IP count over the view), so its timing includes faulting the
// data in, not just the mmap() call.
//
// Usage: build_perf [--json PATH] [--threads N] [--scenario NAME]
//                   [--seed N] [--quick]
//                   [--snapshot] [--sessions N[,N...]] [--dir PATH]
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/ecosystem.hpp"
#include "crawler/compact_dataset.hpp"
#include "crawler/dataset_mmap.hpp"
#include "synth_world.hpp"
#include "util/rng.hpp"

namespace btpub {
namespace {

using bench::dataset_sessions;
using bench::synth_dataset;

struct Options {
  std::string json_path;  // defaulted per mode in run()
  std::string scenario = "quick";
  std::uint64_t seed = 42;
  /// The parallel case's worker count (the "N" in 1-vs-N).
  std::size_t threads = 4;
  bool quick = false;
  bool snapshot = false;
  /// Session counts for the snapshot suite (downloader entries per world).
  std::vector<std::uint64_t> sessions = {1'000'000, 10'000'000};
  /// Scratch directory for the snapshot suite's cache files.
  std::string dir = "/tmp";
};

ScenarioConfig scenario_by_name(const Options& opt) {
  ScenarioConfig config;
  if (opt.scenario == "pb10") {
    config = ScenarioConfig::pb10(opt.seed);
  } else if (opt.scenario == "pb09") {
    config = ScenarioConfig::pb09(opt.seed);
  } else if (opt.scenario == "mn08") {
    config = ScenarioConfig::mn08(opt.seed);
  } else if (opt.scenario == "signature") {
    config = ScenarioConfig::signature(opt.seed);
  } else if (opt.scenario == "spoofed") {
    config = ScenarioConfig::spoofed(opt.seed);
  } else {
    config = ScenarioConfig::quick(opt.seed);
  }
  if (opt.quick) {
    // CI smoke: a third of the reference population, half the window.
    config.window = days(4);
    config.population.regular_publishers /= 3;
  }
  return config;
}

/// POD shipped child -> parent over the pipe.
struct CaseResult {
  double seconds = 0.0;
  long peak_rss_kb = 0;
  std::uint64_t torrents = 0;
  std::uint64_t publication_events = 0;
  std::uint64_t pending_after_build = 0;
  std::uint64_t typed_scheduled = 0;
  std::uint64_t callbacks_scheduled = 0;
  std::uint64_t dispatched = 0;
  /// BuildStats per-phase wall seconds (the Amdahl breakdown); only the
  /// ecosystem_build cases fill these.
  double seconds_population = 0.0;
  double seconds_backfill = 0.0;
  double seconds_draw = 0.0;
  double seconds_prepare = 0.0;
  double seconds_commit = 0.0;
};

long peak_rss_kb_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

/// phase: "ecosystem_build" times Ecosystem::build() alone;
/// "dht_overlay" builds first, then times overlay construction and replays
/// the scheduled life through the crawl horizon.
CaseResult run_case(const std::string& phase, std::size_t threads,
                    const Options& opt) {
  ScenarioConfig config = scenario_by_name(opt);
  config.threads = threads;
  CaseResult result;
  Ecosystem ecosystem(config);

  if (phase == "ecosystem_build") {
    const auto t0 = std::chrono::steady_clock::now();
    ecosystem.build();
    const auto t1 = std::chrono::steady_clock::now();
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    const BuildStats& stats = ecosystem.build_stats();
    result.seconds_population = stats.seconds_population;
    result.seconds_backfill = stats.seconds_backfill;
    result.seconds_draw = stats.seconds_draw;
    result.seconds_prepare = stats.seconds_prepare;
    result.seconds_commit = stats.seconds_commit;
  } else {
    ecosystem.build();
    const SimTime horizon = config.window + config.dht_crawler.grace;
    const auto t0 = std::chrono::steady_clock::now();
    const auto overlay = ecosystem.build_dht_overlay(horizon);
    const auto t1 = std::chrono::steady_clock::now();
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    result.pending_after_build = overlay->events().pending();
    result.typed_scheduled = overlay->events().typed_scheduled();
    result.callbacks_scheduled = overlay->events().callbacks_scheduled();
    overlay->advance_to(horizon);  // replay: every join/announce/leave fires
    result.dispatched = overlay->events().dispatched();
  }
  result.peak_rss_kb = peak_rss_kb_self();
  result.torrents = ecosystem.torrent_count();
  result.publication_events = ecosystem.build_stats().publication_events;
  return result;
}

/// Runs one case in a forked child so peak RSS is per-case.
CaseResult run_case_forked(const std::string& phase, std::size_t threads,
                           const Options& opt) {
  int fd[2];
  if (pipe(fd) != 0) {
    std::perror("build_perf: pipe");
    std::exit(2);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("build_perf: fork");
    std::exit(2);
  }
  if (pid == 0) {
    close(fd[0]);
    const CaseResult result = run_case(phase, threads, opt);
    ssize_t wrote = write(fd[1], &result, sizeof result);
    _exit(wrote == static_cast<ssize_t>(sizeof result) ? 0 : 3);
  }
  close(fd[1]);
  CaseResult result;
  const ssize_t got = read(fd[0], &result, sizeof result);
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof result) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "build_perf: %s@%zu child failed\n", phase.c_str(),
                 threads);
    std::exit(2);
  }
  return result;
}

struct Row {
  std::string phase;
  std::size_t threads;
  CaseResult r;
};

// ---------------------------------------------------------------------------
// Snapshot suite (--snapshot): synthetic worlds + persistence phases.
// ---------------------------------------------------------------------------

/// POD shipped child -> parent for one snapshot phase.
struct SnapResult {
  double seconds = 0.0;
  long peak_rss_kb = 0;
  std::uint64_t torrents = 0;
  std::uint64_t sessions = 0;      // downloader entries actually produced
  std::uint64_t bytes = 0;         // in-memory bytes (build phases)
  std::uint64_t distinct_ips = 0;  // cross-phase sanity value
};

// The synthetic worlds come from bench/synth_world.hpp, shared with
// analysis_perf so both suites measure the same bytes.

/// Rough heap footprint of the pointer-heavy form (for the bytes column).
std::uint64_t dataset_bytes_estimate(const Dataset& d) {
  std::uint64_t bytes = sizeof(Dataset);
  for (const TorrentRecord& r : d.torrents) {
    bytes += sizeof r + r.title.size() + r.username.size() + r.textbox.size();
    for (const std::string& f : r.payload_filenames) bytes += sizeof f + f.size();
  }
  for (const auto& ips : d.downloaders) bytes += sizeof ips + 4 * ips.size();
  for (const auto& s : d.publisher_sightings) bytes += sizeof s + 8 * s.size();
  for (const auto& [name, page] : d.user_pages) {
    bytes += 2 * name.size() + sizeof page + 8 * page.publish_times.size();
  }
  return bytes;
}

/// Runs `body` in a forked child (honest per-phase RSS), ships SnapResult
/// back over a pipe.
SnapResult run_snap_forked(const char* phase,
                           const std::function<SnapResult()>& body) {
  int fd[2];
  if (pipe(fd) != 0) {
    std::perror("build_perf: pipe");
    std::exit(2);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("build_perf: fork");
    std::exit(2);
  }
  if (pid == 0) {
    close(fd[0]);
    const SnapResult result = body();
    ssize_t wrote = write(fd[1], &result, sizeof result);
    _exit(wrote == static_cast<ssize_t>(sizeof result) ? 0 : 3);
  }
  close(fd[1]);
  SnapResult result;
  const ssize_t got = read(fd[0], &result, sizeof result);
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof result) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "build_perf: snapshot phase %s failed\n", phase);
    std::exit(2);
  }
  return result;
}

struct SnapRow {
  std::string phase;
  std::uint64_t sessions_target = 0;
  SnapResult r;
  std::uint64_t file_bytes = 0;  // on-disk size, filled by the parent
};

/// One world's worth of phases. The snapshot file persists between phases
/// (written by the save phase, read by the load phases).
void run_snapshot_world(std::uint64_t sessions, const Options& opt,
                        std::vector<SnapRow>& rows) {
  namespace fs = std::filesystem;
  char name[64];
  std::snprintf(name, sizeof name, "btpub_snapshot_%llu.mmap",
                static_cast<unsigned long long>(sessions));
  const std::string mmap_path = (fs::path(opt.dir) / name).string();
  const std::uint64_t seed = opt.seed;

  auto timed = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  auto finish = [](SnapResult& r, const Dataset& d) {
    r.torrents = d.torrents.size();
    r.sessions = dataset_sessions(d);
    r.peak_rss_kb = peak_rss_kb_self();
  };
  auto push = [&](const char* phase, const std::function<SnapResult()>& body) {
    std::fprintf(stderr, "build_perf: snapshot %s @%llu sessions...\n", phase,
                 static_cast<unsigned long long>(sessions));
    rows.push_back(SnapRow{phase, sessions, run_snap_forked(phase, body), 0});
  };

  push("dataset_build", [&] {
    SnapResult r;
    Dataset d;
    r.seconds = timed([&] { d = synth_dataset(sessions, seed); });
    r.bytes = dataset_bytes_estimate(d);
    r.distinct_ips = d.distinct_ips_global();
    finish(r, d);
    return r;
  });
  push("compact_build", [&] {
    SnapResult r;
    const Dataset d = synth_dataset(sessions, seed);
    CompactDataset c;
    r.seconds = timed([&] { c = compact_dataset(d); });
    r.bytes = c.byte_size();
    r.distinct_ips = c.view().distinct_ips_global();
    finish(r, d);
    return r;
  });
  push("save_mmap", [&] {
    SnapResult r;
    const Dataset d = synth_dataset(sessions, seed);
    const CompactDataset c = compact_dataset(d);
    r.seconds = timed([&] { save_mmap_snapshot(c, mmap_path); });
    r.bytes = c.byte_size();
    finish(r, d);
    return r;
  });
  // The CI gate divides load_mmap by load_mmap_inflate, so both report the
  // fastest of kGatedReps runs: a single ~1 ms open swings by 2x with
  // scheduling and page-fault noise, the minimum much less. `run` returns
  // what it built, so tearing that down stays outside the timing.
  constexpr int kGatedReps = 5;
  auto fastest = [](auto&& run) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kGatedReps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto built = run();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  // Load = time-to-ready (open + O(sections) fixup + the O(n) validate()
  // pass). Query = time-to-answer for the distinct-downloader-IP count,
  // paying the full data touch — faulting every peer-blob page in.
  push("load_mmap", [&] {
    SnapResult r;
    r.seconds = fastest([&] { return MappedDataset(mmap_path); });
    const MappedDataset mapped(mmap_path);
    r.distinct_ips = mapped.view().distinct_ips_global();
    r.torrents = mapped.view().torrent_count();
    r.sessions = mapped.view().peer_blob.size() / 6;
    r.bytes = mapped.mapped_bytes();
    r.peak_rss_kb = peak_rss_kb_self();
    return r;
  });
  push("query_mmap", [&] {
    SnapResult r;
    std::uint64_t distinct = 0;
    std::uint64_t torrents = 0, sessions = 0, bytes = 0;
    r.seconds = timed([&] {
      MappedDataset mapped(mmap_path);
      distinct = mapped.view().distinct_ips_global();
      torrents = mapped.view().torrent_count();
      sessions = mapped.view().peer_blob.size() / 6;
      bytes = mapped.mapped_bytes();
    });
    r.distinct_ips = distinct;
    r.torrents = torrents;
    r.sessions = sessions;
    r.bytes = bytes;
    r.peak_rss_kb = peak_rss_kb_self();
    return r;
  });
  push("load_mmap_inflate", [&] {
    SnapResult r;
    r.seconds = fastest([&] { return MappedDataset(mmap_path).to_dataset(); });
    const Dataset d = MappedDataset(mmap_path).to_dataset();
    r.distinct_ips = d.distinct_ips_global();
    finish(r, d);
    return r;
  });

  // Attach on-disk sizes, then sanity-check every phase agrees on the
  // distinct-IP count (a wrong snapshot must fail the bench, not publish
  // fast-but-broken numbers).
  std::uint64_t expected = 0;
  for (SnapRow& row : rows) {
    if (row.sessions_target != sessions) continue;
    if (row.phase.rfind("save_mmap", 0) == 0 ||
        row.phase.rfind("load_mmap", 0) == 0 || row.phase == "query_mmap") {
      row.file_bytes = fs::file_size(mmap_path);
    }
    if (row.r.distinct_ips != 0) {
      if (expected == 0) expected = row.r.distinct_ips;
      if (row.r.distinct_ips != expected) {
        std::fprintf(stderr,
                     "build_perf: phase %s distinct_ips mismatch "
                     "(%llu vs %llu)\n",
                     row.phase.c_str(),
                     static_cast<unsigned long long>(row.r.distinct_ips),
                     static_cast<unsigned long long>(expected));
        std::exit(2);
      }
    }
  }
  fs::remove(mmap_path);
}

void write_snapshot_json(const Options& opt, const std::vector<SnapRow>& rows) {
  std::ofstream out(opt.json_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "build_perf: cannot open %s\n", opt.json_path.c_str());
    std::exit(1);
  }
  auto find = [&](std::uint64_t sessions,
                  std::string_view phase) -> const SnapRow* {
    for (const SnapRow& row : rows) {
      if (row.sessions_target == sessions && row.phase == phase) return &row;
    }
    return nullptr;
  };
  out << "{\n  \"benchmark\": \"dataset_snapshot\",\n";
  out << "  \"config\": {\"seed\": " << opt.seed << ", \"format_version\": "
      << mmap_format_version() << "},\n";
  char line[512];
  out << "  \"headline\": [\n";
  for (std::size_t i = 0; i < opt.sessions.size(); ++i) {
    const std::uint64_t n = opt.sessions[i];
    const SnapRow* qmapped = find(n, "query_mmap");
    const SnapRow* build = find(n, "dataset_build");
    std::snprintf(
        line, sizeof line,
        "    {\"sessions\": %llu, \"mmap_query_rss_kb\": %ld, "
        "\"dataset_build_rss_kb\": %ld}%s\n",
        static_cast<unsigned long long>(n), qmapped->r.peak_rss_kb,
        build->r.peak_rss_kb, i + 1 < opt.sessions.size() ? "," : "");
    out << line;
  }
  out << "  ],\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SnapRow& row = rows[i];
    std::snprintf(
        line, sizeof line,
        "    {\"phase\": \"%s\", \"sessions\": %llu, \"seconds\": %.6f, "
        "\"peak_rss_kb\": %ld, \"torrents\": %llu, \"bytes\": %llu, "
        "\"file_bytes\": %llu, \"distinct_ips\": %llu}%s\n",
        row.phase.c_str(), static_cast<unsigned long long>(row.r.sessions),
        row.r.seconds, row.r.peak_rss_kb,
        static_cast<unsigned long long>(row.r.torrents),
        static_cast<unsigned long long>(row.r.bytes),
        static_cast<unsigned long long>(row.file_bytes),
        static_cast<unsigned long long>(row.r.distinct_ips),
        i + 1 < rows.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
}

int run_snapshot(const Options& opt) {
  std::vector<SnapRow> rows;
  for (const std::uint64_t sessions : opt.sessions) {
    run_snapshot_world(sessions, opt, rows);
  }
  write_snapshot_json(opt, rows);
  for (const std::uint64_t n : opt.sessions) {
    const SnapRow* mapped = nullptr;
    const SnapRow* inflated = nullptr;
    const SnapRow* qmapped = nullptr;
    for (const SnapRow& row : rows) {
      if (row.sessions_target != n) continue;
      if (row.phase == "load_mmap") mapped = &row;
      if (row.phase == "load_mmap_inflate") inflated = &row;
      if (row.phase == "query_mmap") qmapped = &row;
    }
    std::printf(
        "%llu sessions: open %.6fs, open+inflate %.4fs, distinct-IP query "
        "%.3fs, query RSS %ld KB\n",
        static_cast<unsigned long long>(n), mapped->r.seconds,
        inflated->r.seconds, qmapped->r.seconds, qmapped->r.peak_rss_kb);
  }
  std::printf("wrote %s\n", opt.json_path.c_str());
  return 0;
}

void write_json(const Options& opt, const ScenarioConfig& config,
                const std::vector<Row>& rows, double speedup) {
  std::ofstream out(opt.json_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "build_perf: cannot open %s\n", opt.json_path.c_str());
    std::exit(1);
  }
  out << "{\n  \"benchmark\": \"ecosystem_build\",\n";
  out << "  \"config\": {\"scenario\": \"" << config.name << "\", \"seed\": "
      << config.seed << ", \"window_days\": " << (config.window / kDay)
      << ", \"quick\": " << (opt.quick ? "true" : "false") << "},\n";
  char line[512];
  std::snprintf(line, sizeof line, "  \"build_speedup_%zu_threads\": %.2f,\n",
                opt.threads, speedup);
  out << line;
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::snprintf(
        line, sizeof line,
        "    {\"phase\": \"%s\", \"threads\": %zu, \"seconds\": %.4f, "
        "\"peak_rss_kb\": %ld, \"torrents\": %llu, "
        "\"pending_after_build\": %llu, \"typed_scheduled\": %llu, "
        "\"callbacks_scheduled\": %llu, \"dispatched\": %llu, "
        "\"seconds_population\": %.4f, \"seconds_backfill\": %.4f, "
        "\"seconds_draw\": %.4f, \"seconds_prepare\": %.4f, "
        "\"seconds_commit\": %.4f}%s\n",
        row.phase.c_str(), row.threads, row.r.seconds, row.r.peak_rss_kb,
        static_cast<unsigned long long>(row.r.torrents),
        static_cast<unsigned long long>(row.r.pending_after_build),
        static_cast<unsigned long long>(row.r.typed_scheduled),
        static_cast<unsigned long long>(row.r.callbacks_scheduled),
        static_cast<unsigned long long>(row.r.dispatched),
        row.r.seconds_population, row.r.seconds_backfill, row.r.seconds_draw,
        row.r.seconds_prepare, row.r.seconds_commit,
        i + 1 < rows.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "build_perf: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      opt.json_path = next();
    } else if (arg == "--threads") {
      opt.threads = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--scenario") {
      opt.scenario = next();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--snapshot") {
      opt.snapshot = true;
    } else if (arg == "--dir") {
      opt.dir = next();
    } else if (arg == "--sessions") {
      opt.sessions.clear();
      const char* p = next();
      while (*p != '\0') {
        char* end = nullptr;
        const std::uint64_t n = std::strtoull(p, &end, 10);
        if (end == p || n == 0) {
          std::fprintf(stderr, "build_perf: bad --sessions list\n");
          return 2;
        }
        opt.sessions.push_back(n);
        p = *end == ',' ? end + 1 : end;
      }
      if (opt.sessions.empty()) {
        std::fprintf(stderr, "build_perf: --sessions needs at least one count\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: build_perf [--json PATH] [--threads N] "
                   "[--scenario NAME] [--seed N] [--quick] "
                   "[--snapshot] [--sessions N[,N...]] [--dir PATH]\n");
      return 2;
    }
  }
  if (opt.json_path.empty()) {
    opt.json_path = opt.snapshot ? "BENCH_snapshot.json" : "BENCH_build.json";
  }
  if (opt.snapshot) return run_snapshot(opt);
  if (opt.threads < 2) opt.threads = 2;

  std::vector<Row> rows;
  for (const std::size_t threads : {std::size_t{1}, opt.threads}) {
    std::fprintf(stderr, "build_perf: ecosystem_build @%zu thread(s)...\n",
                 threads);
    rows.push_back(Row{"ecosystem_build", threads,
                       run_case_forked("ecosystem_build", threads, opt)});
  }
  std::fprintf(stderr, "build_perf: dht_overlay construction + replay...\n");
  rows.push_back(
      Row{"dht_overlay", 1, run_case_forked("dht_overlay", 1, opt)});

  const double speedup = rows[0].r.seconds / rows[1].r.seconds;
  const ScenarioConfig config = scenario_by_name(opt);
  write_json(opt, config, rows, speedup);

  std::printf("build: %.3fs @1 thread, %.3fs @%zu threads (%.2fx), %llu "
              "torrents\n",
              rows[0].r.seconds, rows[1].r.seconds, opt.threads, speedup,
              static_cast<unsigned long long>(rows[0].r.torrents));
  for (std::size_t i = 0; i < 2; ++i) {
    const CaseResult& r = rows[i].r;
    const double serial = r.seconds_population + r.seconds_backfill +
                          r.seconds_commit;
    std::printf(
        "  phases @%zu: population %.3fs, backfill %.3fs, draw %.3fs, "
        "prepare %.3fs, commit %.3fs (serial floor %.0f%%)\n",
        rows[i].threads, r.seconds_population, r.seconds_backfill,
        r.seconds_draw, r.seconds_prepare, r.seconds_commit,
        r.seconds > 0.0 ? 100.0 * serial / r.seconds : 0.0);
  }
  std::printf("overlay: %.3fs construct, %llu pending cursors, %llu closures, "
              "%llu occurrences replayed\n",
              rows[2].r.seconds,
              static_cast<unsigned long long>(rows[2].r.pending_after_build),
              static_cast<unsigned long long>(rows[2].r.callbacks_scheduled),
              static_cast<unsigned long long>(rows[2].r.dispatched));
  std::printf("wrote %s\n", opt.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace btpub

int main(int argc, char** argv) { return btpub::run(argc, argv); }
