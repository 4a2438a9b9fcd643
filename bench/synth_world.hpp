// synth_world.hpp — deterministic synthetic crawl worlds for the perf
// benches. Shared by build_perf and analysis_perf so both measure the same
// world byte-for-byte: ~`sessions` downloader entries spread over
// sessions/20 torrents, usernames drawn from a 10K pool
// (interning realism: heavy cross-torrent sharing), titles and filenames
// unique per torrent (arena growth realism). Every torrent draws from its
// own derive_seed substream, so the world is a pure function of
// (sessions, seed).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "crawler/dataset.hpp"
#include "util/rng.hpp"

namespace btpub::bench {

inline Dataset synth_dataset(std::uint64_t sessions, std::uint64_t seed) {
  Dataset d;
  d.name = "synthetic-snapshot";
  d.style = DatasetStyle::Pb10;
  d.window_start = 0;
  d.window_end = days(44);

  const std::uint64_t torrents = std::max<std::uint64_t>(1, sessions / 20);
  const std::uint64_t user_pool =
      std::min<std::uint64_t>(10'000, std::max<std::uint64_t>(1, torrents / 4));
  d.torrents.reserve(torrents);
  d.downloaders.reserve(torrents);
  d.publisher_sightings.reserve(torrents);

  char buf[64];
  for (std::uint64_t i = 0; i < torrents; ++i) {
    Rng rng(derive_seed(seed, 0xda7a, i));
    TorrentRecord r;
    r.portal_id = static_cast<TorrentId>(i);
    for (std::size_t k = 0; k < r.infohash.bytes.size(); ++k) {
      r.infohash.bytes[k] = static_cast<std::uint8_t>(rng() >> 56);
    }
    std::snprintf(buf, sizeof buf, "Title.%llu.x264",
                  static_cast<unsigned long long>(i));
    r.title = buf;
    r.category = static_cast<ContentCategory>(rng.uniform_int(0, 5));
    r.language = static_cast<Language>(rng.uniform_int(0, 3));
    r.size_bytes = rng.uniform_int(1 << 20, std::int64_t{1} << 33);
    std::snprintf(buf, sizeof buf, "user%llu",
                  static_cast<unsigned long long>(rng.uniform_int(
                      0, static_cast<std::int64_t>(user_pool) - 1)));
    r.username = buf;
    if (rng.uniform() < 0.6) {
      r.publisher_ip = IpAddress(static_cast<std::uint32_t>(rng()));
    }
    r.published_at = rng.uniform_int(0, d.window_end);
    r.first_seen = r.published_at;
    if (rng.uniform() < 0.1) r.textbox = "visit http://promo.example/now";
    const int n_files = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < n_files; ++f) {
      std::snprintf(buf, sizeof buf, "payload.%llu.part%d.rar",
                    static_cast<unsigned long long>(i), f);
      r.payload_filenames.emplace_back(buf);
    }
    r.piece_count = static_cast<std::size_t>(rng.uniform_int(16, 4096));
    r.initial_seeders = static_cast<std::uint32_t>(rng.uniform_int(0, 50));
    r.initial_peers = static_cast<std::uint32_t>(rng.uniform_int(0, 200));
    r.query_count = static_cast<std::uint32_t>(rng.uniform_int(1, 40));

    // Spread the session budget: torrent i gets the base share, the first
    // `sessions % torrents` torrents one extra.
    std::uint64_t quota = sessions / torrents + (i < sessions % torrents ? 1 : 0);
    std::vector<IpAddress> ips;
    ips.reserve(quota);
    for (std::uint64_t s = 0; s < quota; ++s) {
      ips.emplace_back(static_cast<std::uint32_t>(rng()));
    }
    r.max_concurrent = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        quota, 1 + static_cast<std::uint64_t>(rng.uniform_int(1, 64))));
    std::vector<SimTime> sightings;
    if (r.publisher_ip) {
      const int n = static_cast<int>(rng.uniform_int(1, 3));
      for (int s = 0; s < n; ++s) {
        sightings.push_back(rng.uniform_int(r.published_at, d.window_end));
      }
    }
    d.torrents.push_back(std::move(r));
    d.downloaders.push_back(std::move(ips));
    d.publisher_sightings.push_back(std::move(sightings));
  }
  for (std::uint64_t u = 0; u < user_pool; ++u) {
    Rng rng(derive_seed(seed, 0x05e4, u));
    UserPage page;
    std::snprintf(buf, sizeof buf, "user%llu",
                  static_cast<unsigned long long>(u));
    page.username = buf;
    page.banned = rng.uniform() < 0.05;
    const int n = static_cast<int>(rng.uniform_int(0, 8));
    for (int s = 0; s < n; ++s) {
      page.publish_times.push_back(rng.uniform_int(0, d.window_end));
    }
    d.user_pages.emplace(page.username, std::move(page));
  }
  return d;
}

inline std::uint64_t dataset_sessions(const Dataset& d) {
  std::uint64_t n = 0;
  for (const auto& ips : d.downloaders) n += ips.size();
  return n;
}

}  // namespace btpub::bench
