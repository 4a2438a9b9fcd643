#include "passes.hpp"

#include <array>

#include "util/rng.hpp"

namespace perfbench {

using namespace btpub;

namespace {

// derive_seed tags of the benchmark's own random draws.
constexpr std::uint64_t kTagClassify = 0x70b0c1a5;
constexpr std::uint64_t kTagSeeding = 0x70b05eed;
constexpr std::uint64_t kTagPopularity = 0x70b0909;

constexpr std::array<double, 6> kTopPercents = {1, 5, 10, 20, 50, 100};

void digest_box(Digest& d, const BoxStats& box) {
  d.f64(box.min);
  d.f64(box.p25);
  d.f64(box.median);
  d.f64(box.p75);
  d.f64(box.max);
  d.u64(box.count);
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
  d.unordered(identity.fake_usernames(), hash_str);
  d.unordered(identity.fake_ips(), [](IpAddress ip) {
    Digest x;
    x.u64(ip.value());
    return x.h;
  });
  d.unordered(identity.top_hp(), hash_str);
  d.unordered(identity.top_ci(), hash_str);
  d.u64(identity.total_content());
  d.u64(identity.total_downloads());
}

}  // namespace

PassResults run_paper_passes(const CompactDatasetView& view, const GeoDb& geo,
                             const WebsiteDirectory& websites,
                             std::uint64_t seed, Tracer& tracer) {
  PassResults r;
  {
    auto span = tracer.span("analysis.identity");
    r.identity = std::make_unique<IdentityAnalysis>(view, geo);
  }
  const IdentityAnalysis& identity = *r.identity;
  {
    auto span = tracer.span("analysis.classify");
    Rng rng(derive_seed(seed, kTagClassify));
    r.classification = classify_top_publishers(view, identity, websites, 0, rng);
  }
  {
    auto span = tracer.span("analysis.sessions");
    Rng rng(derive_seed(seed, kTagSeeding));
    r.seeding = seeding_panel(view, identity, 400, rng);
  }
  {
    auto span = tracer.span("analysis.demographics");
    r.demographics = downloader_demographics(view, geo);
  }
  {
    auto span = tracer.span("analysis.consumption");
    r.consumption = top_publisher_consumption(view, identity);
  }
  {
    auto span = tracer.span("analysis.tables");
    r.contribution = contribution_curve(identity, kTopPercents);
    Rng rng(derive_seed(seed, kTagPopularity));
    r.popularity = popularity_panel(identity, 400, rng);
  }
  const double distinct = static_cast<double>(r.demographics.total_distinct_ips);
  tracer.count("analysis.distinct_ips", distinct);
  // downloader_demographics maps each distinct downloader IP once.
  tracer.count("geo.lookups", distinct);
  tracer.count("geo.located_ratio",
               distinct > 0 ? static_cast<double>(r.demographics.located_ips) / distinct
                            : 0.0);
  return r;
}

void digest_passes(Digest& d, const PassResults& r) {
  digest_identity(d, *r.identity);
  d.u64(r.classification.profiles.size());
  for (const PublisherProfile& p : r.classification.profiles) {
    d.str(p.username);
    d.u64(static_cast<std::uint64_t>(p.cls));
    d.str(p.domain);
    d.u64((p.in_textbox ? 1 : 0) | (p.in_filename ? 2 : 0) |
          (p.in_payload ? 4 : 0) | (p.ads ? 8 : 0) | (p.donations ? 16 : 0) |
          (p.vip ? 32 : 0) | (p.signup ? 64 : 0) | (p.private_tracker ? 128 : 0));
    for (const std::string& n : p.ad_networks) d.str(n);
    d.u64(p.content_count);
    d.u64(p.download_count);
    d.u64(p.dominant_language ? 1 + static_cast<std::uint64_t>(*p.dominant_language)
                              : 0);
  }
  d.u64(r.seeding.size());
  for (const SeedingBox& box : r.seeding) {
    d.u64(static_cast<std::uint64_t>(box.group));
    d.u64(box.publishers);
    digest_box(d, box.seeding_time_hours);
    digest_box(d, box.parallel_torrents);
    digest_box(d, box.aggregated_session_hours);
  }
  d.u64(r.demographics.total_distinct_ips);
  d.u64(r.demographics.located_ips);
  for (const auto* rows : {&r.demographics.by_country, &r.demographics.by_isp}) {
    d.u64(rows->size());
    for (const DemographicRow& row : *rows) {
      d.str(row.label);
      d.u64(row.downloaders);
      d.f64(row.share);
    }
  }
  d.u64(r.consumption.considered);
  d.u64(r.consumption.zero_downloads);
  d.u64(r.consumption.under_five_downloads);
  d.u64(r.contribution.publishers);
  d.u64(r.contribution.contents);
  d.f64(r.contribution.gini);
  for (const LorenzPoint& p : r.contribution.points) {
    d.f64(p.top_percent);
    d.f64(p.content_percent);
  }
  d.u64(r.popularity.size());
  for (const PopularityBox& box : r.popularity) {
    d.u64(static_cast<std::uint64_t>(box.group));
    digest_box(d, box.box);
  }
}

}  // namespace perfbench
