#include "publisher/population.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <unordered_set>

#include "publisher/names.hpp"

namespace btpub {
namespace {

struct WeightedIsp {
  const char* name;
  double weight;
};

// Hosting providers serving top publishers (OVH-heavy, as in Tables 2/3).
constexpr WeightedIsp kTopHosting[] = {
    {"OVH", 0.55},         {"SoftLayer Tech.", 0.10}, {"LeaseWeb", 0.12},
    {"Keyweb", 0.07},      {"NetDirect", 0.08},
    {"NetWork Operations Center", 0.08},
};

// Hosting providers running fake farms: tzulo / FDCservers / 4RWEB carry
// the largest share (§3.3), the rest spreads over ordinary hosters.
constexpr WeightedIsp kFakeHosting[] = {
    {"tzulo", 0.14},        {"FDCservers", 0.14},      {"4RWEB", 0.12},
    {"OVH", 0.20},          {"SoftLayer Tech.", 0.12}, {"LeaseWeb", 0.10},
    {"Keyweb", 0.06},       {"NetDirect", 0.06},
    {"NetWork Operations Center", 0.06},
};

// Commercial ISPs for home publishers (regular users and CI-located tops).
constexpr WeightedIsp kCommercial[] = {
    {"Comcast", 0.090},      {"Road Runner", 0.070},  {"Virgin Media", 0.050},
    {"SBC", 0.050},          {"Verizon", 0.060},      {"Telefonica", 0.070},
    {"Jazz Telecom.", 0.045}, {"Open Computer Network", 0.110},
    {"Telecom Italia", 0.050}, {"Romania DS", 0.040},  {"MTT Network", 0.035},
    {"NIB", 0.030},          {"Cosema", 0.070},       {"Comcor-TV", 0.040},
    // remaining mass goes to the generic eyeball long tail (handled below)
};

constexpr double kCommercialNamedMass = 0.81;  // sum of the table above

constexpr const char* kAdNetworks[] = {
    "adserve-one.example", "clickbarn.example", "trafficx.example",
    "bannerhive.example",  "popundernet.example"};

std::string pick_weighted_isp(std::span<const WeightedIsp> table, Rng& rng) {
  double total = 0.0;
  for (const auto& e : table) total += e.weight;
  double target = rng.uniform() * total;
  for (const auto& e : table) {
    if (target < e.weight) return e.name;
    target -= e.weight;
  }
  return table.back().name;
}

std::string pick_commercial_isp(const IspCatalog& catalog, Rng& rng) {
  if (rng.uniform() < kCommercialNamedMass) {
    return pick_weighted_isp(kCommercial, rng);
  }
  const auto& names = catalog.eyeball_names();
  return names[rng.index(names.size())];
}

std::uint16_t server_port(Rng& rng) {
  return static_cast<std::uint16_t>(rng.uniform_int(6881, 6999));
}
std::uint16_t home_port(Rng& rng) {
  return static_cast<std::uint16_t>(rng.uniform_int(10000, 60000));
}

/// Draws the distinct username for a publisher, retrying on collision.
std::string unique_username(std::unordered_set<std::string>& taken,
                            const std::function<std::string(Rng&)>& gen, Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::string name = gen(rng);
    if (taken.insert(name).second) return name;
  }
  // Pathological collision streak: make it unique by suffixing.
  std::string name = gen(rng) + "_" + std::to_string(taken.size());
  taken.insert(name);
  return name;
}

Language draw_language(PublisherClass cls, Rng& rng) {
  // §5.1: 40% of portal-class publishers are language-specific and 66% of
  // those publish Spanish content.
  if (cls == PublisherClass::TopPortalOwner) {
    if (rng.chance(0.40)) {
      const double u = rng.uniform();
      if (u < 0.66) return Language::Spanish;
      if (u < 0.78) return Language::Italian;
      if (u < 0.90) return Language::Dutch;
      return Language::Swedish;
    }
    return Language::English;
  }
  if (rng.chance(0.10)) {
    const double u = rng.uniform();
    if (u < 0.5) return Language::Spanish;
    if (u < 0.7) return Language::Italian;
    return Language::Other;
  }
  return Language::English;
}

/// Draws (value, income, visits) for a promoting site from correlated
/// log-normals calibrated against Table 5's min/median/avg/max rows.
void draw_site_economics(BusinessType type, Rng& rng, Website& site) {
  const bool portal = type == BusinessType::PrivateBtPortal;
  const double value_median = portal ? 33e3 : 22e3;
  const double value_sigma = portal ? 2.0 : 1.9;
  const double z = rng.normal();
  const double jitter1 = rng.normal(0.0, 0.35);
  const double jitter2 = rng.normal(0.0, 0.35);
  site.value_usd = value_median * std::exp(value_sigma * z);
  const double income_median = portal ? 55.0 : 51.0;
  const double income_sigma = portal ? 1.95 : 1.6;
  site.daily_income_usd = income_median * std::exp(income_sigma * (0.9 * z) + jitter1);
  const double visits_per_dollar = 400.0;
  site.daily_visits =
      site.daily_income_usd * visits_per_dollar * std::exp(jitter2);
}

Website make_website(PublisherClass cls, const std::string& domain, Rng& rng) {
  Website site;
  site.domain = domain;
  if (cls == PublisherClass::TopPortalOwner) {
    site.type = BusinessType::PrivateBtPortal;
    site.has_private_tracker = rng.chance(0.6);
    site.requires_registration = site.has_private_tracker || rng.chance(0.3);
    site.has_ads = rng.chance(0.9);
    site.seeks_donations = rng.chance(0.5);
    site.offers_vip = rng.chance(0.4);
  } else {
    const double u = rng.uniform();
    site.type = u < 0.65   ? BusinessType::ImageHosting
                : u < 0.90 ? BusinessType::Forum
                           : BusinessType::ReligiousSite;
    site.has_ads = true;  // §5.1: "the income of the portals within this
                          // class is based on advertisement"
    site.seeks_donations = rng.chance(0.15);
  }
  draw_site_economics(site.type, rng, site);
  if (site.has_ads) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 3));
    std::vector<std::size_t> picks = rng.sample_indices(std::size(kAdNetworks), n);
    for (std::size_t i : picks) site.ad_networks.emplace_back(kAdNetworks[i]);
  }
  return site;
}

PromoChannel draw_channels(PublisherClass cls, Rng& rng) {
  PromoChannel channels = PromoChannel::None;
  if (cls == PublisherClass::TopPortalOwner) {
    if (rng.chance(0.67)) channels = channels | PromoChannel::Textbox;
    if (rng.chance(0.15)) channels = channels | PromoChannel::FilenameSuffix;
    if (rng.chance(0.15)) channels = channels | PromoChannel::PayloadTextFile;
    if (channels == PromoChannel::None) channels = PromoChannel::Textbox;
  } else if (cls == PublisherClass::TopOtherWeb) {
    channels = PromoChannel::Textbox;  // "all use the textbox"
    if (rng.chance(0.10)) channels = channels | PromoChannel::FilenameSuffix;
    if (rng.chance(0.10)) channels = channels | PromoChannel::PayloadTextFile;
  }
  return channels;
}

IpStrategy draw_top_strategy(PublisherClass cls, Rng& rng, bool& hosted) {
  double w_hosting_multi, w_single, w_dynamic, w_multi, single_hosted_prob;
  switch (cls) {
    case PublisherClass::TopPortalOwner:
      w_hosting_multi = 0.55; w_single = 0.25; w_dynamic = 0.10; w_multi = 0.10;
      single_hosted_prob = 0.7;
      break;
    case PublisherClass::TopOtherWeb:
      w_hosting_multi = 0.40; w_single = 0.30; w_dynamic = 0.15; w_multi = 0.15;
      single_hosted_prob = 0.6;
      break;
    default:  // TopAltruistic
      w_hosting_multi = 0.10; w_single = 0.25; w_dynamic = 0.45; w_multi = 0.20;
      single_hosted_prob = 0.25;
      break;
  }
  const double u = rng.uniform() * (w_hosting_multi + w_single + w_dynamic + w_multi);
  if (u < w_hosting_multi) {
    hosted = true;
    return IpStrategy::HostingMulti;
  }
  if (u < w_hosting_multi + w_single) {
    hosted = rng.chance(single_hosted_prob);
    return IpStrategy::SingleIp;
  }
  if (u < w_hosting_multi + w_single + w_dynamic) {
    hosted = false;
    return IpStrategy::DynamicCommercial;
  }
  hosted = false;
  return IpStrategy::MultiIsp;
}

}  // namespace

Population build_population(const PopulationConfig& config, IspCatalog& catalog,
                            Rng& rng) {
  Population pop;
  std::unordered_set<std::string> taken_usernames;
  std::unordered_set<std::string> taken_domains;

  auto register_usernames = [&pop](const Publisher& p) {
    for (const std::string& name : p.usernames) {
      pop.owner_of_username.emplace(name, p.id);
    }
  };

  auto allocate_endpoints = [&](Publisher& p, Rng& prng) {
    switch (p.strategy) {
      case IpStrategy::SingleIp: {
        if (p.hosted) {
          const std::string isp = pick_weighted_isp(kTopHosting, prng);
          p.primary_isp = isp;
          p.endpoints.push_back(
              Endpoint{catalog.pool(isp).allocate_server(), server_port(prng)});
        } else {
          const std::string isp = pick_commercial_isp(catalog, prng);
          p.primary_isp = isp;
          p.endpoints.push_back(Endpoint{
              catalog.pool(isp).random_residential(prng), home_port(prng)});
        }
        break;
      }
      case IpStrategy::HostingMulti: {
        const std::string isp = pick_weighted_isp(kTopHosting, prng);
        p.primary_isp = isp;
        // §3.3: 5.7 hosting servers on average.
        const auto n = static_cast<std::size_t>(prng.uniform_int(3, 9));
        for (std::size_t i = 0; i < n; ++i) {
          p.endpoints.push_back(
              Endpoint{catalog.pool(isp).allocate_server(), server_port(prng)});
        }
        break;
      }
      case IpStrategy::DynamicCommercial: {
        const std::string isp = pick_commercial_isp(catalog, prng);
        p.primary_isp = isp;
        // §3.3: 13.8 addresses on average from one ISP's churn.
        const auto n = static_cast<std::size_t>(prng.uniform_int(10, 18));
        const std::uint16_t port = home_port(prng);
        for (std::size_t i = 0; i < n; ++i) {
          p.endpoints.push_back(
              Endpoint{catalog.pool(isp).random_residential(prng), port});
        }
        break;
      }
      case IpStrategy::MultiIsp: {
        // §3.3: 7.7 addresses across several commercial ISPs (home + work).
        const auto n_isps = static_cast<std::size_t>(prng.uniform_int(2, 4));
        const auto n = static_cast<std::size_t>(prng.uniform_int(5, 10));
        std::vector<std::string> isps;
        for (std::size_t i = 0; i < n_isps; ++i) {
          isps.push_back(pick_commercial_isp(catalog, prng));
        }
        p.primary_isp = isps.front();
        for (std::size_t i = 0; i < n; ++i) {
          const auto& isp = isps[i % isps.size()];
          p.endpoints.push_back(Endpoint{
              catalog.pool(isp).random_residential(prng), home_port(prng)});
        }
        break;
      }
      case IpStrategy::FakeFarm: {
        const std::string isp = pick_weighted_isp(kFakeHosting, prng);
        p.primary_isp = isp;
        const auto n = static_cast<std::size_t>(prng.uniform_int(1, 3));
        for (std::size_t i = 0; i < n; ++i) {
          p.endpoints.push_back(
              Endpoint{catalog.pool(isp).allocate_server(), server_port(prng)});
        }
        break;
      }
    }
  };

  auto next_id = [&pop]() { return static_cast<PublisherId>(pop.publishers.size()); };

  // ---- Top publishers (three classes). -------------------------------
  struct TopSpec {
    PublisherClass cls;
    std::size_t count;
  };
  const TopSpec top_specs[] = {
      {PublisherClass::TopPortalOwner, config.portal_owners},
      {PublisherClass::TopOtherWeb, config.other_web},
      {PublisherClass::TopAltruistic, config.top_altruistic},
  };
  for (const TopSpec& spec : top_specs) {
    for (std::size_t i = 0; i < spec.count; ++i) {
      Publisher p;
      p.id = next_id();
      p.cls = spec.cls;
      const ClassProfile& profile = class_profile(spec.cls);
      p.strategy = draw_top_strategy(spec.cls, rng, p.hosted);
      allocate_endpoints(p, rng);
      p.nat = !p.hosted && rng.chance(profile.nat_probability);
      p.language = draw_language(spec.cls, rng);

      // Username, promoting domain (correlated for ~40% of profit-driven).
      if (is_profit_driven(spec.cls)) {
        std::string brand;
        if (rng.chance(0.4)) {
          brand = make_brand(rng);
          std::string uname = brand;
          if (!taken_usernames.insert(uname).second) {
            uname += std::to_string(i);
            taken_usernames.insert(uname);
          }
          p.usernames.push_back(uname);
        } else {
          p.usernames.push_back(
              unique_username(taken_usernames, make_top_username, rng));
        }
        std::string domain = make_domain(brand, rng);
        while (!taken_domains.insert(domain).second) {
          domain = make_domain("", rng);
        }
        p.promo_domain = domain;
        p.promo_channels = draw_channels(spec.cls, rng);
        pop.websites.add(make_website(spec.cls, domain, rng));
      } else {
        p.usernames.push_back(
            unique_username(taken_usernames, make_top_username, rng));
      }

      p.historical_rate = rng.lognormal_median(profile.rate_median, profile.rate_sigma);
      p.window_rate = p.historical_rate * config.rate_scale;
      p.lifetime_days = std::clamp(
          rng.lognormal_median(spec.cls == PublisherClass::TopAltruistic ? 300.0 : 380.0,
                               spec.cls == PublisherClass::TopAltruistic ? 1.0 : 0.9),
          spec.cls == PublisherClass::TopAltruistic ? 10.0 : 60.0, 1850.0);
      const double pop_adjust = p.hosted ? 1.15 : 0.9;
      p.popularity_median =
          profile.popularity_median * pop_adjust * config.popularity_scale;
      p.popularity_sigma = profile.popularity_sigma;
      p.seeding = profile.seeding;
      if (!p.hosted) {
        // Commercial-ISP top publishers cannot keep an always-on box.
        p.seeding.daily_online_hours = rng.uniform(10.0, 16.0);
        p.seeding.min_seed_time = std::min<SimDuration>(
            p.seeding.min_seed_time, hours(2));
      }
      p.cross_post_probability = profile.cross_post_probability;
      p.online_start = 0;
      register_usernames(p);
      pop.publishers.push_back(std::move(p));
    }
  }

  // ---- Fake farms. ----------------------------------------------------
  // Pre-generate the shared throwaway username pool and the compromised
  // accounts, then distribute them across the farms.
  std::vector<std::string> throwaways;
  throwaways.reserve(config.fake_usernames);
  for (std::size_t i = 0; i < config.fake_usernames; ++i) {
    throwaways.push_back(
        unique_username(taken_usernames, make_hacked_username, rng));
  }
  std::vector<std::string> compromised;
  for (std::size_t i = 0; i < config.compromised_usernames; ++i) {
    // Hijacked accounts look like ordinary (even reputable) usernames.
    compromised.push_back(
        unique_username(taken_usernames, make_top_username, rng));
  }
  for (std::size_t i = 0; i < config.fake_farms; ++i) {
    Publisher p;
    p.id = next_id();
    p.cls = rng.chance(0.55) ? PublisherClass::FakeAntipiracy
                             : PublisherClass::FakeMalware;
    const ClassProfile& profile = class_profile(p.cls);
    p.strategy = IpStrategy::FakeFarm;
    p.hosted = true;
    allocate_endpoints(p, rng);
    if (i < compromised.size()) {
      p.usernames.push_back(compromised[i]);
      p.has_compromised_username = true;
    }
    // Slice the throwaway pool round-robin across farms.
    for (std::size_t j = i; j < throwaways.size(); j += config.fake_farms) {
      p.usernames.push_back(throwaways[j]);
    }
    if (p.usernames.empty()) {
      p.usernames.push_back(unique_username(taken_usernames, make_hacked_username, rng));
    }
    p.historical_rate = rng.lognormal_median(8.0, 0.45);
    p.window_rate = p.historical_rate * config.rate_scale;
    p.lifetime_days = rng.uniform(30.0, 200.0);
    p.popularity_median = profile.popularity_median * config.popularity_scale;
    p.popularity_sigma = profile.popularity_sigma;
    p.seeding = profile.seeding;
    p.cross_post_probability = profile.cross_post_probability;
    register_usernames(p);
    pop.publishers.push_back(std::move(p));
  }

  // ---- Regular publishers. ---------------------------------------------
  for (std::size_t i = 0; i < config.regular_publishers; ++i) {
    Publisher p;
    p.id = next_id();
    p.cls = PublisherClass::Regular;
    const ClassProfile& profile = class_profile(p.cls);
    p.strategy = rng.chance(0.85) ? IpStrategy::SingleIp : IpStrategy::MultiIsp;
    p.hosted = false;
    allocate_endpoints(p, rng);
    p.nat = rng.chance(profile.nat_probability);
    p.language = draw_language(p.cls, rng);
    p.usernames.push_back(
        unique_username(taken_usernames, make_regular_username, rng));
    p.historical_rate = rng.lognormal_median(profile.rate_median, profile.rate_sigma);
    p.window_rate = p.historical_rate;  // regular users are not rate-scaled
    p.lifetime_days = rng.uniform(5.0, 700.0);
    p.popularity_median = profile.popularity_median * config.popularity_scale;
    p.popularity_sigma = profile.popularity_sigma;
    p.seeding = profile.seeding;
    p.seeding.daily_online_hours = rng.uniform(6.0, 14.0);
    p.cross_post_probability = profile.cross_post_probability;
    register_usernames(p);
    pop.publishers.push_back(std::move(p));
  }

  // ---- Sticky consumers. ------------------------------------------------
  for (const Publisher& p : pop.publishers) {
    if (p.cls == PublisherClass::Regular) {
      pop.sticky_consumers.emplace_back(p.endpoints.front(), 1.0);
    } else if (is_top(p.cls) && !p.hosted && rng.chance(0.6)) {
      // §3.1: most top publishers download little or nothing, and hosted
      // ones consume nothing at all (nobody torrents from a rented rack;
      // the paper observed no OVH addresses among consumers).
      pop.sticky_consumers.emplace_back(p.endpoints.front(), 0.7);
    }
  }

  return pop;
}

}  // namespace btpub
