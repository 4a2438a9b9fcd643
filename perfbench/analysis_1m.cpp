// analysis_1m — the paper's passes over a million-session snapshot.
//
// Set-up: generates a seeded world of ~1M downloader sessions over 50K
// torrents straight into the compact form and saves it as an mmap
// snapshot. Downloader IPs come from the catalog's eyeball pools, as in a
// simulated crawl, so GeoDb lookups take their hit path.
//
// Job: opens the snapshot and runs every view-native pass once at its
// default thread count.
#include <algorithm>
#include <cstdio>

#include "crawler/dataset_mmap.hpp"
#include "geo/isp_catalog.hpp"
#include "passes.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace btpub;

namespace {

constexpr std::uint64_t kTorrents = 50'000;
constexpr std::uint64_t kUsernames = 10'000;
/// Fake farms: each IP publishes under kFarmUsernames banned usernames.
constexpr std::uint64_t kFarms = 12;
constexpr std::uint64_t kFarmUsernames = 5;
/// Returning consumers: a share of each swarm is drawn from this pool, so
/// downloaders repeat across torrents as in a real crawl.
constexpr std::uint64_t kReturningConsumers = 300'000;
constexpr double kReturningShare = 0.6;

constexpr std::uint64_t kTagUser = 0x70b0a5e1;
constexpr std::uint64_t kTagConsumer = 0x70b0c0a5;
constexpr std::uint64_t kTagTorrent = 0x70b07044;
constexpr std::uint64_t kTagFarm = 0x70b0fa4a;

std::string snapshot_path(const Options& options) {
  return options.dir + "/analysis_1m-" + std::to_string(options.seed) + ".mmap";
}

CompactDataset generate_world(std::uint64_t seed, const IspCatalog& catalog) {
  std::vector<const IpPool*> eyeballs;
  for (const std::string& name : catalog.eyeball_names()) {
    eyeballs.push_back(&catalog.pool(name));
  }
  std::vector<const IpPool*> hosting;
  for (const std::string& name : catalog.hosting_names()) {
    hosting.push_back(&catalog.pool(name));
  }
  auto residential = [&](Rng& rng) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(eyeballs.size()) - 1));
    return eyeballs[pick]->random_residential(rng);
  };

  std::vector<IpAddress> consumers;
  consumers.reserve(kReturningConsumers);
  for (std::uint64_t k = 0; k < kReturningConsumers; ++k) {
    Rng rng(derive_seed(seed, kTagConsumer, k));
    consumers.push_back(residential(rng));
  }

  // Usernames [0, kUsernames) are regular publishers with one home IP each
  // (a third in hosting providers); the last kFarms * kFarmUsernames are
  // fake-farm accounts sharing kFarms IPs.
  const std::uint64_t fake_base = kUsernames - kFarms * kFarmUsernames;
  std::vector<IpAddress> home(kUsernames);
  for (std::uint64_t u = 0; u < kUsernames; ++u) {
    if (u >= fake_base) {
      Rng rng(derive_seed(seed, kTagFarm, (u - fake_base) / kFarmUsernames));
      home[u] = hosting[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(hosting.size()) - 1))]
                    ->random_residential(rng);
      continue;
    }
    Rng rng(derive_seed(seed, kTagUser, u));
    if (rng.uniform() < 0.33) {
      home[u] = hosting[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(hosting.size()) - 1))]
                    ->random_residential(rng);
    } else {
      home[u] = residential(rng);
    }
  }
  auto username = [](std::uint64_t u) { return "user" + std::to_string(u); };

  CompactDatasetBuilder builder;
  builder.set_header("analysis_1m", DatasetStyle::Pb10, 0, days(30));
  std::vector<std::vector<SimTime>> publish_times(kUsernames);
  std::vector<IpAddress> ips;
  std::vector<SimTime> sightings;
  char buf[96];
  for (std::uint64_t i = 0; i < kTorrents; ++i) {
    Rng rng(derive_seed(seed, kTagTorrent, i));
    TorrentRecord r;
    r.portal_id = static_cast<TorrentId>(i);
    for (auto& byte : r.infohash.bytes) byte = static_cast<std::uint8_t>(rng() >> 56);
    // Heavy-headed contribution: a few usernames publish most content;
    // fake farms take 8% of all listings.
    std::uint64_t u = 0;
    if (rng.uniform() < 0.08) {
      u = fake_base + static_cast<std::uint64_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(kFarms * kFarmUsernames) - 1));
    } else {
      const double x = rng.uniform();
      u = static_cast<std::uint64_t>(static_cast<double>(fake_base) * x * x * x * x);
    }
    r.username = username(u);
    std::snprintf(buf, sizeof buf, "Title.%llu.720p.x264",
                  static_cast<unsigned long long>(i));
    r.title = buf;
    r.category = static_cast<ContentCategory>(rng.uniform_int(0, 5));
    r.language = static_cast<Language>(rng.uniform_int(0, 3));
    r.size_bytes = rng.uniform_int(1 << 20, std::int64_t{1} << 33);
    r.published_at = rng.uniform_int(0, days(30));
    r.first_seen = r.published_at + rng.uniform_int(0, minutes(5));
    if (u < 300 && rng.uniform() < 0.4) {
      std::snprintf(buf, sizeof buf, "Visit http://www.site%llu.com for more",
                    static_cast<unsigned long long>(u));
      r.textbox = buf;
    }
    const int files = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < files; ++f) {
      std::snprintf(buf, sizeof buf, "payload.%llu.part%d.rar",
                    static_cast<unsigned long long>(i), f);
      r.payload_filenames.emplace_back(buf);
    }
    r.piece_count = static_cast<std::size_t>(rng.uniform_int(16, 4096));
    r.initial_seeders = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    r.initial_peers = static_cast<std::uint32_t>(rng.uniform_int(0, 19));
    r.query_count = static_cast<std::uint32_t>(rng.uniform_int(10, 400));
    if (rng.uniform() < 0.7) r.publisher_ip = home[u];

    ips.clear();
    const auto quota = static_cast<std::size_t>(rng.uniform_int(5, 35));
    while (ips.size() < quota) {
      const IpAddress ip =
          rng.uniform() < kReturningShare
              ? consumers[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(kReturningConsumers) - 1))]
              : residential(rng);
      if (std::find(ips.begin(), ips.end(), ip) == ips.end()) ips.push_back(ip);
    }
    r.max_concurrent = static_cast<std::uint32_t>(quota / 2 + 1);
    sightings.clear();
    if (r.publisher_ip) {
      const int n = static_cast<int>(rng.uniform_int(1, 12));
      for (int s = 0; s < n; ++s) {
        sightings.push_back(r.published_at + rng.uniform_int(0, hours(72)));
      }
      std::sort(sightings.begin(), sightings.end());
    }
    publish_times[u].push_back(r.published_at);
    builder.add_torrent(r, ips, sightings);
  }
  for (std::uint64_t u = 0; u < kUsernames; ++u) {
    if (publish_times[u].empty()) continue;
    UserPage page;
    page.username = username(u);
    page.publish_times = std::move(publish_times[u]);
    std::sort(page.publish_times.begin(), page.publish_times.end());
    Rng rng(derive_seed(seed, kTagUser, u, 1));
    page.banned = u >= fake_base || rng.uniform() < 0.03;
    builder.add_user_page(page);
  }
  return builder.finish();
}

}  // namespace

Report run_analysis_1m(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  const WebsiteDirectory websites;  // no site resolves: promotions stay off-site
  const std::int64_t t_setup = now_ns();
  const IspCatalog catalog = IspCatalog::standard();
  save_mmap_snapshot(generate_world(options.seed, catalog), snapshot_path(options));
  report.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  const bool rss_reset = reset_peak_rss();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  std::unique_ptr<MappedDataset> mapped;
  PassResults results;
  {
    auto job = tracer.span("job");
    {
      auto span = tracer.span("crawler.snapshot_open");
      mapped = std::make_unique<MappedDataset>(snapshot_path(options));
    }
    results = run_paper_passes(mapped->view(), catalog.db(), websites,
                               options.seed, tracer);
  }
  report.job_s = static_cast<double>(now_ns() - t0) * 1e-9;
  report.cpu_s = process_cpu_s() - cpu0;
  report.peak_rss_mb = peak_rss_mb();

  // The job's requests are the downloader sessions it analyses.
  const double sessions =
      static_cast<double>(mapped->view().ip_observations_total());
  report.announce_p50_us = report.job_s * 1e6 / sessions;
  report.server_cpu_us_per_req = report.cpu_s * 1e6 / sessions;

  report.gate(rss_reset, "peak-RSS reset refused by the kernel");
  report.gate(sessions > 900'000, "snapshot holds fewer sessions than generated");
  report.gate(!results.identity->fake_usernames().empty() &&
                  !results.identity->top().empty() &&
                  !results.classification.profiles.empty(),
              "identity found no fakes or no top publishers");
  report.gate(results.demographics.located_ips * 100 >=
                  results.demographics.total_distinct_ips * 99,
              "fewer than 99% of downloader IPs located");

  const CompactDatasetView& view = mapped->view();
  Digest d;
  d.bytes(view.torrents.data(), view.torrents.size_bytes());
  d.str(view.text);
  d.str(view.peer_blob);
  d.bytes(view.sightings.data(), view.sightings.size_bytes());
  d.bytes(view.user_pages.data(), view.user_pages.size_bytes());
  digest_passes(d, results);
  for (const auto& [name, value] : tracer.counts()) {
    d.str(name);
    d.f64(value);
  }
  report.digest = d.h;
  export_trace(tracer, options, report);
  return report;
}

}  // namespace perfbench
