// analysis_perf — machine-readable perf baseline for the batch analysis
// passes (BENCH_analysis.json in CI, written with --json). Builds a
// deterministic synthetic world (bench/synth_world.hpp, shared with
// build_perf), persists it once as an mmap snapshot, then runs each
// analysis pass over the mapped view:
//
//   scan           control: decodes every downloader entry once
//   identity       IdentityAnalysis table build
//   classify       business classification of every publisher
//   sessions       Figure-4 seeding panel
//   demographics   sorted distinct-IP list + one geo lookup per IP
//   consumption    top-publisher IP scan over every downloader entry
//
// Every pass is serial (DESIGN.md §4.8). Every case runs in forked
// children (bench/harness run_forked: honest per-case peak RSS) and
// digests its full result structure with FNV-1a. The regression gate
// (tools/check_bench.py) holds each case's digest and item count to the
// committed baseline's, and its seconds, divided by the same run's `scan`
// seconds, to a bound above the baseline's ratio — so the gate compares
// machines by how fast they read the mapped view, not by raw seconds.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/streaming/sketch.hpp"
#include "analysis/contribution.hpp"
#include "analysis/demographics.hpp"
#include "analysis/groups.hpp"
#include "analysis/session.hpp"
#include "crawler/dataset_mmap.hpp"
#include "geo/isp_catalog.hpp"
#include "harness.hpp"
#include "synth_world.hpp"
#include "websim/website.hpp"

namespace btpub {
namespace {

using bench::dataset_sessions;
using bench::synth_dataset;

struct Options {
  std::string json_path;
  std::uint64_t seed = 42;
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

/// What a forked case ships back to the parent.
struct CaseResult {
  double seconds = 0.0;  // fastest rep
  std::uint64_t digest = 0;
  std::uint64_t items = 0;
  std::uint64_t reps = 0;
};

/// Every case reports its fastest rep over kRounds forked children, run
/// round-robin across the cases, with kPassReps reps in each child (the
/// control, about a millisecond per million entries, repeats kScanReps
/// times). On a shared 4-core box a whole child can land on a core that
/// runs the control or a pass up to 2x slower than another: over 30 runs
/// of one child per case, a case's ratio to the control spread up to 2.1x
/// from fastest to slowest run, and with five children at most 1.6x.
constexpr std::uint64_t kRounds = 5;
constexpr std::uint64_t kPassReps = 3;
constexpr std::uint64_t kScanReps = 100;

/// Runs one analysis pass `reps` times over the mapped view and digests
/// the final rep's full result. Classify and sessions seed their RNG per
/// rep, so the digest pins the final rep's seed: changing kPassReps moves
/// the committed sessions digest.
CaseResult run_case(const std::string& name, const std::string& mmap_path,
                    std::uint64_t seed) {
  const MappedDataset mapped(mmap_path);
  const CompactDatasetView view = mapped.view();
  const IspCatalog catalog = IspCatalog::standard();
  const GeoDb& geo = catalog.db();

  CaseResult result;
  result.reps = name == "scan" ? kScanReps : kPassReps;
  result.seconds = std::numeric_limits<double>::infinity();

  auto timed = [&](auto&& body) {
    for (std::uint64_t rep = 0; rep < result.reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      body(rep);
      const auto t1 = std::chrono::steady_clock::now();
      result.seconds = std::min(
          result.seconds, std::chrono::duration<double>(t1 - t0).count());
    }
  };

  if (name == "scan") {
    timed([&](std::uint64_t) {
      std::uint64_t sum = 0;
      for (const TorrentRecordPod& pod : view.torrents) {
        for (std::uint32_t i = 0; i < pod.downloaders.size(); ++i) {
          sum += view.downloader_ip(pod, i).value();
        }
      }
      Digest d;
      d.u64(sum);
      result.digest = d.h;
      result.items = view.ip_observations_total();
    });
  } else if (name == "identity") {
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
          seeding_panel(view, identity, 400, rng);
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
          downloader_demographics(view, geo, 10);
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
    throw std::logic_error("unknown case " + name);
  }
  return result;
}

constexpr const char* kCases[] = {"scan",     "identity",     "classify",
                                  "sessions", "demographics", "consumption"};

/// Runs every case over one world, appending a results row per case.
void run_world(std::uint64_t sessions, const Options& opt,
               std::vector<bench::JsonObject>& rows) {
  namespace fs = std::filesystem;
  char name[64];
  std::snprintf(name, sizeof name, "btpub_analysis_%llu.mmap",
                static_cast<unsigned long long>(sessions));
  const std::string mmap_path = (fs::path(opt.dir) / name).string();

  std::fprintf(stderr, "analysis_perf: building %llu-session snapshot...\n",
               static_cast<unsigned long long>(sessions));
  bench::run_forked("snapshot build", [&] {
    const Dataset d = synth_dataset(sessions, opt.seed);
    save_mmap_snapshot(compact_dataset(d), mmap_path);
    CaseResult r;
    r.items = dataset_sessions(d);
    return r;
  });

  std::vector<CaseResult> best(std::size(kCases));
  std::vector<long> peak_rss_kb(std::size(kCases), 0);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < std::size(kCases); ++i) {
      const char* c = kCases[i];
      std::fprintf(stderr, "analysis_perf: %s (round %llu)...\n", c,
                   static_cast<unsigned long long>(round + 1));
      const auto [r, rss_kb] = bench::run_forked(
          c, [&] { return run_case(c, mmap_path, opt.seed); });
      if (round > 0 &&
          (r.digest != best[i].digest || r.items != best[i].items)) {
        throw std::runtime_error(std::string(c) +
                                 " result differs between rounds");
      }
      if (round == 0 || r.seconds < best[i].seconds) best[i] = r;
      peak_rss_kb[i] = std::max(peak_rss_kb[i], rss_kb);
    }
  }

  std::printf("%llu sessions:\n", static_cast<unsigned long long>(sessions));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const CaseResult& r = best[i];
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.digest));
    rows.push_back(bench::JsonObject()
                       .text("case", kCases[i])
                       .integer("sessions", sessions)
                       .integer("reps", r.reps * kRounds)
                       .fixed("seconds", r.seconds, 6)
                       .integer("peak_rss_kb", peak_rss_kb[i])
                       .integer("items", r.items)
                       .text("digest", digest));
    std::printf("  %-13s %.4fs, %.1f MiB peak, digest %s\n", kCases[i],
                r.seconds, static_cast<double>(peak_rss_kb[i]) / 1024.0,
                digest);
  }
  fs::remove(mmap_path);
}

int run(int argc, char** argv) {
  Options opt;
  bench::parse_flags(argc, argv,
                     "[--json PATH] [--seed N] "
                     "[--sessions N[,N...]] [--dir PATH] [--quick]",
                     {{"--json", &opt.json_path},
                      {"--seed", &opt.seed},
                      {"--dir", &opt.dir},
                      {"--quick", [&] { opt.sessions = {1'000'000}; }},
                      {"--sessions", &opt.sessions}});
  std::vector<bench::JsonObject> rows;
  for (const std::uint64_t sessions : opt.sessions) {
    run_world(sessions, opt, rows);
  }
  bench::write_bench_json(opt.json_path, "analysis_passes",
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
