// build_perf — machine-readable perf baseline for ecosystem construction
// and DHT-overlay scheduling. Times Ecosystem::build() at several thread
// counts plus build_dht_overlay() (lazy event cursors); with --json, writes
// wall time, peak RSS and the event-queue counters (BENCH_build.json) so CI
// can archive a perf trajectory across PRs.
//
// Every case runs in a forked child (bench/harness run_forked) so its peak
// RSS is its own.
//
// The overlay case also replays the scheduled life through the window:
// `dispatched` is then the number of occurrences an eager scheduler would
// have queued up front, while `pending_after_build` is what the lazy
// cursors actually kept in memory — the
// O(sessions x window/30min) vs O(sessions) headline.
//
// --snapshot switches to the dataset snapshot suite (BENCH_snapshot.json
// in CI): synthetic million-session worlds are built deterministically,
// then each persistence phase — pointer-heavy Dataset build, CompactDataset
// conversion, snapshot save, open and query — runs fork-isolated for wall
// time and honest peak RSS.
// Conversion and open report the fastest of five runs.
// The query case opens the snapshot AND scans every downloader entry
// (distinct-IP count over the view), so its timing includes faulting the
// data in, not just the mmap() call.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/ecosystem.hpp"
#include "crawler/compact_dataset.hpp"
#include "crawler/dataset_mmap.hpp"
#include "harness.hpp"
#include "synth_world.hpp"
#include "util/rng.hpp"

namespace btpub {
namespace {

using bench::dataset_sessions;
using bench::synth_dataset;

struct Options {
  std::string json_path;
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

/// The scenario to build; throws on an unknown --scenario name.
ScenarioConfig scenario_for(const Options& opt) {
  ScenarioConfig config = ScenarioConfig::by_name(opt.scenario, opt.seed);
  if (opt.quick) {
    // CI smoke: a third of the reference population, half the window.
    config.window = days(4);
    config.population.regular_publishers /= 3;
  }
  return config;
}

/// What a forked case ships back to the parent.
struct CaseResult {
  double seconds = 0.0;
  std::uint64_t torrents = 0;
  std::uint64_t publication_events = 0;
  std::uint64_t pending_after_build = 0;
  std::uint64_t typed_scheduled = 0;
  std::uint64_t dispatched = 0;
  /// BuildStats per-phase wall seconds (the Amdahl breakdown); only the
  /// ecosystem_build cases fill these.
  double seconds_population = 0.0;
  double seconds_backfill = 0.0;
  double seconds_draw = 0.0;
  double seconds_prepare = 0.0;
  double seconds_commit = 0.0;
};

/// phase: "ecosystem_build" times Ecosystem::build() alone;
/// "dht_overlay" builds first, then times overlay construction and replays
/// the scheduled life through the crawl horizon.
CaseResult run_case(const std::string& phase, std::size_t threads,
                    const Options& opt) {
  ScenarioConfig config = scenario_for(opt);
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
    result.typed_scheduled = overlay->events().scheduled();
    overlay->advance_to(horizon);  // replay: every join/announce/leave fires
    result.dispatched = overlay->events().dispatched();
  }
  result.torrents = ecosystem.torrent_count();
  result.publication_events = ecosystem.build_stats().publication_events;
  return result;
}

// ---------------------------------------------------------------------------
// Snapshot suite (--snapshot): synthetic worlds + persistence phases.
// ---------------------------------------------------------------------------

/// What a forked snapshot phase ships back to the parent.
struct SnapResult {
  double seconds = 0.0;
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

struct SnapRow {
  std::string phase;
  SnapResult r;
  long peak_rss_kb = 0;
};

/// One world's worth of phases, appending a results row per phase. The
/// snapshot file persists between phases (written by the save phase, read
/// by the load phases).
void run_snapshot_world(std::uint64_t sessions, const Options& opt,
                        std::vector<bench::JsonObject>& json_rows) {
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
  };
  std::vector<SnapRow> rows;
  auto push = [&](const char* phase, auto&& body) {
    std::fprintf(stderr, "build_perf: snapshot %s @%llu sessions...\n", phase,
                 static_cast<unsigned long long>(sessions));
    const auto [r, peak_rss_kb] = bench::run_forked(phase, body);
    rows.push_back(SnapRow{phase, r, peak_rss_kb});
  };

  push("dataset_build", [&] {
    SnapResult r;
    Dataset d;
    r.seconds = timed([&] { d = synth_dataset(sessions, seed); });
    r.bytes = dataset_bytes_estimate(d);
    finish(r, d);
    return r;
  });
  // The CI gate divides load_mmap by compact_build, so both report the
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
  push("compact_build", [&] {
    SnapResult r;
    const Dataset d = synth_dataset(sessions, seed);
    r.seconds = fastest([&] { return compact_dataset(d); });
    const CompactDataset c = compact_dataset(d);
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
    return r;
  });
  // Every phase must agree on the distinct-IP count (a wrong snapshot must
  // fail the bench, not publish fast-but-broken numbers).
  std::uint64_t expected = 0;
  for (const SnapRow& row : rows) {
    if (row.r.distinct_ips == 0) continue;
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
  const auto phase = [&](std::string_view name) -> const SnapRow& {
    return *std::find_if(rows.begin(), rows.end(),
                         [&](const SnapRow& row) { return row.phase == name; });
  };
  std::printf(
      "%llu sessions: open %.6fs, compact build %.4fs, distinct-IP query "
      "%.3fs, query RSS %ld KB\n",
      static_cast<unsigned long long>(sessions), phase("load_mmap").r.seconds,
      phase("compact_build").r.seconds, phase("query_mmap").r.seconds,
      phase("query_mmap").peak_rss_kb);

  const std::uint64_t file_bytes = fs::file_size(mmap_path);
  for (const SnapRow& row : rows) {
    const bool on_disk = row.phase != "dataset_build" &&
                         row.phase != "compact_build";
    json_rows.push_back(bench::JsonObject()
                            .text("phase", row.phase)
                            .integer("sessions", row.r.sessions)
                            .fixed("seconds", row.r.seconds, 6)
                            .integer("peak_rss_kb", row.peak_rss_kb)
                            .integer("torrents", row.r.torrents)
                            .integer("bytes", row.r.bytes)
                            .integer("file_bytes", on_disk ? file_bytes : 0)
                            .integer("distinct_ips", row.r.distinct_ips));
  }
  fs::remove(mmap_path);
}

int run_snapshot(const Options& opt) {
  std::vector<bench::JsonObject> rows;
  for (const std::uint64_t sessions : opt.sessions) {
    run_snapshot_world(sessions, opt, rows);
  }
  bench::write_bench_json(opt.json_path, "dataset_snapshot",
                          bench::JsonObject()
                              .integer("seed", opt.seed)
                              .integer("format_version", mmap_format_version()),
                          rows);
  return 0;
}

int run(int argc, char** argv) {
  Options opt;
  bench::parse_flags(argc, argv,
                     "[--json PATH] [--threads N] [--scenario NAME] "
                     "[--seed N] [--quick] [--snapshot] [--sessions N[,N...]] "
                     "[--dir PATH]",
                     {{"--json", &opt.json_path},
                      {"--threads", &opt.threads},
                      {"--scenario", &opt.scenario},
                      {"--seed", &opt.seed},
                      {"--quick", &opt.quick},
                      {"--snapshot", &opt.snapshot},
                      {"--sessions", &opt.sessions},
                      {"--dir", &opt.dir}});
  if (opt.snapshot) return run_snapshot(opt);
  if (opt.threads < 2) opt.threads = 2;
  const ScenarioConfig config = scenario_for(opt);

  std::vector<bench::JsonObject> rows;
  auto measure = [&](const char* phase, std::size_t threads) {
    std::fprintf(stderr, "build_perf: %s @%zu thread(s)...\n", phase, threads);
    const auto [r, peak_rss_kb] = bench::run_forked(
        phase, [&] { return run_case(phase, threads, opt); });
    rows.push_back(bench::JsonObject()
                       .text("phase", phase)
                       .integer("threads", threads)
                       .fixed("seconds", r.seconds, 4)
                       .integer("peak_rss_kb", peak_rss_kb)
                       .integer("torrents", r.torrents)
                       .integer("pending_after_build", r.pending_after_build)
                       .integer("typed_scheduled", r.typed_scheduled)
                       .integer("dispatched", r.dispatched)
                       .fixed("seconds_population", r.seconds_population, 4)
                       .fixed("seconds_backfill", r.seconds_backfill, 4)
                       .fixed("seconds_draw", r.seconds_draw, 4)
                       .fixed("seconds_prepare", r.seconds_prepare, 4)
                       .fixed("seconds_commit", r.seconds_commit, 4));
    return r;
  };
  const CaseResult serial = measure("ecosystem_build", 1);
  const CaseResult parallel = measure("ecosystem_build", opt.threads);
  const CaseResult overlay = measure("dht_overlay", 1);

  std::printf("build: %.3fs @1 thread, %.3fs @%zu threads (%s), %llu "
              "torrents\n",
              serial.seconds, parallel.seconds, opt.threads,
              bench::speedup_text(serial.seconds, parallel.seconds, opt.threads)
                  .c_str(),
              static_cast<unsigned long long>(serial.torrents));
  for (const auto& [threads, r] :
       {std::pair{std::size_t{1}, serial}, std::pair{opt.threads, parallel}}) {
    const double floor = r.seconds_population + r.seconds_backfill +
                         r.seconds_draw + r.seconds_commit;
    std::printf(
        "  phases @%zu: population %.3fs, backfill %.3fs, draw %.3fs, "
        "prepare %.3fs, commit %.3fs (serial floor %.0f%%)\n",
        threads, r.seconds_population, r.seconds_backfill, r.seconds_draw,
        r.seconds_prepare, r.seconds_commit,
        r.seconds > 0.0 ? 100.0 * floor / r.seconds : 0.0);
  }
  std::printf("overlay: %.3fs construct, %llu pending cursors, "
              "%llu occurrences replayed\n",
              overlay.seconds,
              static_cast<unsigned long long>(overlay.pending_after_build),
              static_cast<unsigned long long>(overlay.dispatched));
  bench::write_bench_json(opt.json_path, "ecosystem_build",
                          bench::JsonObject()
                              .text("scenario", config.name)
                              .integer("seed", config.seed)
                              .integer("window_days", config.window / kDay)
                              .flag("quick", opt.quick),
                          rows);
  return 0;
}

}  // namespace
}  // namespace btpub

int main(int argc, char** argv) {
  return btpub::bench::guarded_main(argc, argv, btpub::run);
}
