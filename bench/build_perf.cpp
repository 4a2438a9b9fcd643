// build_perf — machine-readable perf baseline for the dataset snapshot
// (BENCH_snapshot.json in CI, written with --json). Synthetic
// million-session worlds are built deterministically, then each
// persistence phase — pointer-heavy Dataset build, CompactDataset
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

#include "crawler/compact_dataset.hpp"
#include "crawler/dataset_mmap.hpp"
#include "harness.hpp"
#include "synth_world.hpp"

namespace btpub {
namespace {

using bench::dataset_sessions;
using bench::synth_dataset;

struct Options {
  std::string json_path;
  std::uint64_t seed = 42;
  /// Session counts (downloader entries per world).
  std::vector<std::uint64_t> sessions = {1'000'000, 10'000'000};
  /// Scratch directory for the snapshot files.
  std::string dir = "/tmp";
};

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

int run(int argc, char** argv) {
  Options opt;
  bench::parse_flags(argc, argv,
                     "[--json PATH] [--seed N] [--sessions N[,N...]] "
                     "[--dir PATH]",
                     {{"--json", &opt.json_path},
                      {"--seed", &opt.seed},
                      {"--sessions", &opt.sessions},
                      {"--dir", &opt.dir}});
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

}  // namespace
}  // namespace btpub

int main(int argc, char** argv) {
  return btpub::bench::guarded_main(argc, argv, btpub::run);
}
