// analysis_perf — machine-readable perf baseline for the batch analysis
// passes (emits BENCH_analysis.json). Builds a deterministic synthetic
// world (bench/synth_world.hpp, shared with build_perf's snapshot suite),
// persists it once as an mmap snapshot, then runs each analysis pass over
// the mapped view:
//
//   identity       IdentityAnalysis table build           (1 thread)
//   classify       business classification of every publisher (1 thread)
//   sessions       Figure-4 seeding panel                 (1 thread)
//   demographics   distinct-IP dedup + geo lookups over all sessions
//                                                         (1 vs N threads)
//   consumption    top-publisher IP scan over every downloader entry
//                                                         (1 thread)
//
// Demographics is the only threaded pass: the others measured below ~1.3x
// on 4 real cores and run serially (DESIGN.md §4.8).
//
// Every case runs in a fork()ed child (honest per-case peak RSS; the POD
// result ships back over a pipe) and digests its full result structure
// with FNV-1a. The parent REFUSES to write numbers when the demographics
// 1-thread and N-thread digests differ — the pass's contract is
// byte-identical results at every thread count, so a mismatch exits
// non-zero instead of publishing fast-but-wrong timings. `cores` is
// recorded so the regression gate can normalise away machines with fewer
// cores than threads (a single-core container legitimately measures ~1x).
//
// Usage: analysis_perf [--json PATH] [--threads N] [--seed N]
//                      [--sessions N[,N...]] [--dir PATH] [--quick]
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/streaming/sketch.hpp"
#include "analysis/contribution.hpp"
#include "analysis/demographics.hpp"
#include "analysis/groups.hpp"
#include "analysis/session.hpp"
#include "crawler/dataset_mmap.hpp"
#include "geo/isp_catalog.hpp"
#include "synth_world.hpp"
#include "websim/website.hpp"

namespace btpub {
namespace {

using bench::dataset_sessions;
using bench::synth_dataset;

struct Options {
  std::string json_path = "BENCH_analysis.json";
  std::uint64_t seed = 42;
  /// The demographics parallel case's worker count (the "N" in 1-vs-N).
  std::size_t threads = 4;
  std::vector<std::uint64_t> sessions = {1'000'000, 10'000'000};
  /// Scratch directory for the mmap snapshot files.
  std::string dir = "/tmp";
};

/// FNV-1a over the result structures. Unordered sets fold through an
/// order-independent XOR so the digest doesn't depend on bucket layout.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  template <typename Set, typename Fn>
  void unordered(const Set& set, Fn&& element_hash) {
    std::uint64_t x = 0;
    for (const auto& e : set) x ^= element_hash(e);
    u64(set.size());
    u64(x);
  }
};

std::uint64_t str_hash(std::string_view s) {
  Digest d;
  d.str(s);
  return d.h;
}

void digest_identity(Digest& d, const IdentityAnalysis& identity) {
  d.u64(identity.usernames().size());
  for (const UsernameStats& u : identity.usernames()) {
    d.str(u.username);
    d.u64(u.content_count);
    d.u64(u.download_count);
    d.u64(u.banned ? 1 : 0);
    d.u64(u.torrents.size());
    for (std::size_t t : u.torrents) d.u64(t);
    d.u64(u.ips.size());
    for (IpAddress ip : u.ips) d.u64(ip.value());
  }
  d.u64(identity.ips().size());
  for (const IpStats& s : identity.ips()) {
    d.u64(s.ip.value());
    d.u64(s.content_count);
    d.u64(s.banned_usernames);
    d.u64(s.torrents.size());
    for (std::size_t t : s.torrents) d.u64(t);
    d.u64(s.usernames.size());
    for (const std::string& n : s.usernames) d.str(n);
  }
  for (const std::string& n : identity.top()) d.str(n);
  d.u64(identity.compromised_in_top());
  d.unordered(identity.fake_usernames(), str_hash);
  d.unordered(identity.fake_ips(),
              [](IpAddress ip) { return mix64(ip.value()); });
  d.unordered(identity.top_hp(), str_hash);
  d.unordered(identity.top_ci(), str_hash);
  for (TargetGroup g : {TargetGroup::All, TargetGroup::Fake, TargetGroup::Top,
                        TargetGroup::TopHP, TargetGroup::TopCI}) {
    const auto share = identity.share_of(g);
    d.f64(share.content);
    d.f64(share.downloads);
  }
  const auto breakdown = identity.top_ip_breakdown();
  d.u64(breakdown.considered);
  d.u64(breakdown.single_username);
  d.u64(breakdown.multi_username);
  d.u64(identity.total_content());
  d.u64(identity.total_downloads());
}

/// POD shipped child -> parent over the pipe.
struct CaseResult {
  double seconds = 0.0;  // per rep
  long peak_rss_kb = 0;
  std::uint64_t digest = 0;
  std::uint64_t items = 0;
  std::uint64_t reps = 0;
};

long peak_rss_kb_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

/// Runs one analysis pass `reps` times over the mapped view and digests
/// the final run's full result. The short passes repeat so the measured
/// wall time stays well clear of timer noise; results are identical
/// across reps by construction (fixed per-rep RNG seeds).
CaseResult run_case(const std::string& name, std::size_t threads,
                    const std::string& mmap_path, std::uint64_t seed) {
  const MappedDataset mapped(mmap_path);
  const CompactDatasetView view = mapped.view();
  const IspCatalog catalog = IspCatalog::standard();
  const GeoDb& geo = catalog.db();

  CaseResult result;
  result.reps = name == "demographics" || name == "consumption" ? 1 : 3;

  auto timed = [&](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t rep = 0; rep < result.reps; ++rep) body(rep);
    const auto t1 = std::chrono::steady_clock::now();
    result.seconds = std::chrono::duration<double>(t1 - t0).count() /
                     static_cast<double>(result.reps);
  };

  if (name == "identity") {
    timed([&](std::uint64_t) {
      const IdentityAnalysis identity(view, geo, 100);
      Digest d;
      digest_identity(d, identity);
      result.digest = d.h;
      result.items = identity.usernames().size() + identity.ips().size();
    });
  } else if (name == "classify") {
    // Promote every username into the top cut so the classifier scans the
    // whole world's promotion channels, not the paper's 100-publisher cut.
    const IdentityAnalysis identity(view, geo, view.torrent_count());
    const WebsiteDirectory websites;  // empty: every URL resolves off-site
    timed([&](std::uint64_t rep) {
      Rng rng(derive_seed(seed, 0xc1a5, rep));
      const ClassificationResult classified =
          classify_top_publishers(view, identity, websites, 0, rng);
      Digest d;
      d.u64(classified.profiles.size());
      for (const PublisherProfile& p : classified.profiles) {
        d.str(p.username);
        d.u64(static_cast<std::uint64_t>(p.cls));
        d.str(p.domain);
        d.u64((p.in_textbox ? 1 : 0) | (p.in_filename ? 2 : 0) |
              (p.in_payload ? 4 : 0) | (p.ads ? 8 : 0) |
              (p.donations ? 16 : 0) | (p.vip ? 32 : 0) |
              (p.signup ? 64 : 0) | (p.private_tracker ? 128 : 0));
        for (const std::string& n : p.ad_networks) d.str(n);
        d.u64(p.content_count);
        d.u64(p.download_count);
        d.u64(p.dominant_language
                  ? 1 + static_cast<std::uint64_t>(*p.dominant_language)
                  : 0);
      }
      for (const auto& share :
           classified.shares(identity.total_content(),
                             identity.total_downloads())) {
        d.u64(share.publishers);
        d.f64(share.content);
        d.f64(share.downloads);
      }
      result.digest = d.h;
      result.items = classified.profiles.size();
    });
  } else if (name == "sessions") {
    const IdentityAnalysis identity(view, geo, 100);
    timed([&](std::uint64_t rep) {
      Rng rng(derive_seed(seed, 0x5e55, rep));
      const std::vector<SeedingBox> panel =
          seeding_panel(view, identity, 400, rng, hours(4));
      Digest d;
      d.u64(panel.size());
      for (const SeedingBox& box : panel) {
        d.u64(static_cast<std::uint64_t>(box.group));
        d.u64(box.publishers);
        for (const BoxStats* stats :
             {&box.seeding_time_hours, &box.parallel_torrents,
              &box.aggregated_session_hours}) {
          d.f64(stats->min);
          d.f64(stats->p25);
          d.f64(stats->median);
          d.f64(stats->p75);
          d.f64(stats->max);
          d.u64(stats->count);
        }
      }
      result.digest = d.h;
      result.items = panel.size();
    });
  } else if (name == "demographics") {
    timed([&](std::uint64_t) {
      const DownloaderDemographics demo =
          downloader_demographics(view, geo, 10, threads);
      Digest d;
      d.u64(demo.total_distinct_ips);
      d.u64(demo.located_ips);
      for (const auto* rows : {&demo.by_country, &demo.by_isp}) {
        d.u64(rows->size());
        for (const DemographicRow& row : *rows) {
          d.str(row.label);
          d.u64(row.downloaders);
          d.f64(row.share);
        }
      }
      result.digest = d.h;
      result.items = demo.total_distinct_ips;
    });
  } else if (name == "consumption") {
    const IdentityAnalysis identity(view, geo, 100);
    timed([&](std::uint64_t) {
      const TopConsumptionStats stats =
          top_publisher_consumption(view, identity, 100);
      Digest d;
      d.u64(stats.considered);
      d.u64(stats.zero_downloads);
      d.u64(stats.under_five_downloads);
      result.digest = d.h;
      result.items = stats.considered;
    });
  } else {
    std::fprintf(stderr, "analysis_perf: unknown case %s\n", name.c_str());
    std::exit(2);
  }
  result.peak_rss_kb = peak_rss_kb_self();
  return result;
}

/// Runs `body` in a forked child so peak RSS is per-case.
CaseResult run_forked(const char* what,
                      const std::function<CaseResult()>& body) {
  int fd[2];
  if (pipe(fd) != 0) {
    std::perror("analysis_perf: pipe");
    std::exit(2);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("analysis_perf: fork");
    std::exit(2);
  }
  if (pid == 0) {
    close(fd[0]);
    const CaseResult result = body();
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
    std::fprintf(stderr, "analysis_perf: %s child failed\n", what);
    std::exit(2);
  }
  return result;
}

struct Row {
  std::string name;
  std::uint64_t sessions = 0;
  std::size_t threads = 0;
  CaseResult r;
};

constexpr const char* kCases[] = {"identity", "classify", "sessions",
                                  "demographics", "consumption"};
/// The one case measured at 1 vs N threads; the others run at 1.
constexpr std::string_view kThreadedCase = "demographics";

void run_world(std::uint64_t sessions, const Options& opt,
               std::vector<Row>& rows) {
  namespace fs = std::filesystem;
  char name[64];
  std::snprintf(name, sizeof name, "btpub_analysis_%llu.mmap",
                static_cast<unsigned long long>(sessions));
  const std::string mmap_path = (fs::path(opt.dir) / name).string();

  std::fprintf(stderr, "analysis_perf: building %llu-session snapshot...\n",
               static_cast<unsigned long long>(sessions));
  run_forked("snapshot build", [&] {
    const Dataset d = synth_dataset(sessions, opt.seed);
    save_mmap_snapshot(d, mmap_path);
    CaseResult r;
    r.items = dataset_sessions(d);
    r.peak_rss_kb = peak_rss_kb_self();
    return r;
  });

  for (const char* c : kCases) {
    const bool threaded = c == kThreadedCase;
    std::vector<std::size_t> thread_counts = {1};
    if (threaded) thread_counts.push_back(opt.threads);
    for (const std::size_t threads : thread_counts) {
      std::fprintf(stderr, "analysis_perf: %s @%zu thread(s)...\n", c,
                   threads);
      rows.push_back(Row{c, sessions, threads,
                         run_forked(c, [&] {
                           return run_case(c, threads, mmap_path, opt.seed);
                         })});
      const Row& row = rows.back();
      std::fprintf(stderr,
                   "analysis_perf:   %.4fs/rep, digest %016llx, %llu items\n",
                   row.r.seconds,
                   static_cast<unsigned long long>(row.r.digest),
                   static_cast<unsigned long long>(row.r.items));
    }
    if (!threaded) continue;
    // The determinism gate: refuse to publish timings whose results
    // differ between thread counts.
    const Row& serial = rows[rows.size() - 2];
    const Row& parallel = rows[rows.size() - 1];
    if (serial.r.digest != parallel.r.digest) {
      std::fprintf(stderr,
                   "analysis_perf: %s digest mismatch @%llu sessions "
                   "(1 thread %016llx vs %zu threads %016llx)\n",
                   c, static_cast<unsigned long long>(sessions),
                   static_cast<unsigned long long>(serial.r.digest),
                   opt.threads,
                   static_cast<unsigned long long>(parallel.r.digest));
      std::exit(2);
    }
  }
  fs::remove(mmap_path);
}

const Row* find_row(const std::vector<Row>& rows, std::uint64_t sessions,
                    std::string_view name, std::size_t threads) {
  for (const Row& row : rows) {
    if (row.sessions == sessions && row.name == name &&
        row.threads == threads) {
      return &row;
    }
  }
  return nullptr;
}

void write_json(const Options& opt, const std::vector<Row>& rows) {
  std::ofstream out(opt.json_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "analysis_perf: cannot open %s\n",
                 opt.json_path.c_str());
    std::exit(1);
  }
  const unsigned cores = std::thread::hardware_concurrency();
  out << "{\n  \"benchmark\": \"analysis_parallel\",\n";
  char line[512];
  std::snprintf(line, sizeof line,
                "  \"config\": {\"seed\": %llu, \"threads\": %zu, "
                "\"cores\": %u, \"format_version\": %d},\n",
                static_cast<unsigned long long>(opt.seed), opt.threads, cores,
                mmap_format_version());
  out << line;
  out << "  \"headline\": [\n";
  for (std::size_t i = 0; i < opt.sessions.size(); ++i) {
    const std::uint64_t n = opt.sessions[i];
    const Row* serial = find_row(rows, n, kThreadedCase, 1);
    const Row* parallel = find_row(rows, n, kThreadedCase, opt.threads);
    std::snprintf(line, sizeof line,
                  "    {\"sessions\": %llu, \"demographics_speedup\": %.2f, "
                  "\"demographics_rss_kb\": %ld}%s\n",
                  static_cast<unsigned long long>(n),
                  serial->r.seconds / parallel->r.seconds,
                  parallel->r.peak_rss_kb,
                  i + 1 < opt.sessions.size() ? "," : "");
    out << line;
  }
  out << "  ],\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::snprintf(
        line, sizeof line,
        "    {\"case\": \"%s\", \"sessions\": %llu, \"threads\": %zu, "
        "\"reps\": %llu, \"seconds\": %.6f, \"peak_rss_kb\": %ld, "
        "\"items\": %llu, \"digest\": \"%016llx\"}%s\n",
        row.name.c_str(), static_cast<unsigned long long>(row.sessions),
        row.threads, static_cast<unsigned long long>(row.r.reps),
        row.r.seconds, row.r.peak_rss_kb,
        static_cast<unsigned long long>(row.r.items),
        static_cast<unsigned long long>(row.r.digest),
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
        std::fprintf(stderr, "analysis_perf: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      opt.json_path = next();
    } else if (arg == "--threads") {
      opt.threads =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--dir") {
      opt.dir = next();
    } else if (arg == "--quick") {
      opt.sessions = {1'000'000};
    } else if (arg == "--sessions") {
      opt.sessions.clear();
      const char* p = next();
      while (*p != '\0') {
        char* end = nullptr;
        const std::uint64_t n = std::strtoull(p, &end, 10);
        if (end == p || n == 0) {
          std::fprintf(stderr, "analysis_perf: bad --sessions list\n");
          return 2;
        }
        opt.sessions.push_back(n);
        p = *end == ',' ? end + 1 : end;
      }
      if (opt.sessions.empty()) {
        std::fprintf(stderr,
                     "analysis_perf: --sessions needs at least one count\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: analysis_perf [--json PATH] [--threads N] "
                   "[--seed N] [--sessions N[,N...]] [--dir PATH] "
                   "[--quick]\n");
      return 2;
    }
  }
  if (opt.threads < 2) opt.threads = 2;

  std::vector<Row> rows;
  for (const std::uint64_t sessions : opt.sessions) {
    run_world(sessions, opt, rows);
  }
  write_json(opt, rows);

  for (const std::uint64_t n : opt.sessions) {
    std::printf("%llu sessions:\n", static_cast<unsigned long long>(n));
    for (const char* c : kCases) {
      const Row* serial = find_row(rows, n, c, 1);
      if (c != kThreadedCase) {
        std::printf("  %-13s %.4fs @1 thread, digest %016llx\n", c,
                    serial->r.seconds,
                    static_cast<unsigned long long>(serial->r.digest));
        continue;
      }
      const Row* parallel = find_row(rows, n, c, opt.threads);
      std::printf("  %-13s %.4fs @1 vs %.4fs @%zu threads (%.2fx), "
                  "digest %016llx matches\n",
                  c, serial->r.seconds, parallel->r.seconds, opt.threads,
                  serial->r.seconds / parallel->r.seconds,
                  static_cast<unsigned long long>(serial->r.digest));
    }
  }
  std::printf("cores: %u\nwrote %s\n", std::thread::hardware_concurrency(),
              opt.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace btpub

int main(int argc, char** argv) { return btpub::run(argc, argv); }
