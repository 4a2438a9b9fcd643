#include "publisher/profile.hpp"

#include <cassert>
#include <span>

namespace btpub {
namespace {

// Category order: Movies, TvShows, Porn, Music, Audiobooks, Games,
//                 Software, Ebooks, Other.

ClassProfile make_regular() {
  ClassProfile p;
  p.cls = PublisherClass::Regular;
  // Regular users publish about one file during a month-long window.
  p.rate_median = 0.018;  // roughly one file every couple of months
  p.rate_sigma = 0.5;
  p.popularity_median = 15.0;
  p.popularity_sigma = 1.6;
  p.nat_probability = 0.6;
  p.cross_post_probability = 0.2;
  p.category_weights = {0.18, 0.15, 0.12, 0.17, 0.03, 0.07, 0.10, 0.08, 0.10};
  p.seeding.leave_after_other_seeders = 1;
  p.seeding.min_seed_time = minutes(30);
  p.seeding.max_seed_time = hours(5);
  p.seeding.mean_extra_seed = hours(1);
  p.seeding.daily_online_hours = 10.0;
  return p;
}

ClassProfile make_top_altruistic() {
  ClassProfile p;
  p.cls = PublisherClass::TopAltruistic;
  // Table 4: avg 3.8 contents/day, min 0.10, max 23.67.
  p.rate_median = 2.0;
  p.rate_sigma = 1.05;
  p.popularity_median = 40.0;
  p.popularity_sigma = 1.1;
  p.nat_probability = 0.35;
  p.cross_post_probability = 0.3;
  // Many publish music and e-books: light files, low seeding cost (§5.1).
  p.category_weights = {0.08, 0.08, 0.04, 0.30, 0.05, 0.03, 0.05, 0.30, 0.07};
  p.seeding.leave_after_other_seeders = 2;
  p.seeding.min_seed_time = hours(1);
  p.seeding.max_seed_time = hours(24);
  p.seeding.mean_extra_seed = hours(1);
  p.seeding.daily_online_hours = 14.0;
  return p;
}

ClassProfile make_portal_owner() {
  ClassProfile p;
  p.cls = PublisherClass::TopPortalOwner;
  // Table 4: avg 11.43/day, max 79.91.
  p.rate_median = 5.2;
  p.rate_sigma = 1.0;
  p.popularity_median = 55.0;
  p.popularity_sigma = 1.2;
  p.nat_probability = 0.1;
  p.cross_post_probability = 0.3;
  p.category_weights = {0.25, 0.22, 0.08, 0.12, 0.03, 0.08, 0.12, 0.05, 0.05};
  p.seeding.leave_after_other_seeders = 4;
  p.seeding.min_seed_time = hours(4);
  p.seeding.max_seed_time = hours(48);
  p.seeding.mean_extra_seed = hours(3);
  p.seeding.daily_online_hours = 24.0;  // clipped later for CI-hosted ones
  return p;
}

ClassProfile make_other_web() {
  ClassProfile p;
  p.cls = PublisherClass::TopOtherWeb;
  // Table 4: avg 4.31/day, max 18.98.
  p.rate_median = 2.9;
  p.rate_sigma = 0.9;
  p.popularity_median = 52.0;
  p.popularity_sigma = 1.1;
  p.nat_probability = 0.15;
  p.cross_post_probability = 0.3;
  // 70% publish porn only (image-hosting promoters, §5.1).
  p.category_weights = {0.06, 0.04, 0.70, 0.05, 0.01, 0.02, 0.05, 0.02, 0.05};
  p.seeding.leave_after_other_seeders = 3;
  p.seeding.min_seed_time = hours(3);
  p.seeding.max_seed_time = hours(40);
  p.seeding.mean_extra_seed = hours(2);
  p.seeding.daily_online_hours = 24.0;
  return p;
}

ClassProfile make_fake(PublisherClass cls) {
  ClassProfile p;
  p.cls = cls;
  // Per fake *machine* (farm), not per username.
  p.rate_median = 0.9;
  p.rate_sigma = 0.5;
  // Low median, very heavy tail: most decoys attract almost nobody, a few
  // catchy ones catch millions before removal (Fig. 3 / §3.3).
  p.popularity_median = 4.2;
  p.popularity_sigma = 2.3;
  p.nat_probability = 0.0;  // rented servers
  p.cross_post_probability = 0.05;
  if (cls == PublisherClass::FakeAntipiracy) {
    // Decoys named after the movies/shows they protect.
    p.category_weights = {0.45, 0.25, 0.05, 0.08, 0.0, 0.05, 0.10, 0.0, 0.02};
  } else {
    // Malware spreaders lean on software and catchy video (§4.1).
    p.category_weights = {0.30, 0.10, 0.08, 0.05, 0.0, 0.10, 0.35, 0.0, 0.02};
  }
  p.seeding.delayed_start_prob = 0.03;
  p.seeding.seed_until_removed = true;
  p.seeding.mean_post_removal_linger = hours(6);
  p.seeding.min_seed_time = hours(2);
  p.seeding.max_seed_time = days(6);
  p.seeding.daily_online_hours = 24.0;
  return p;
}

}  // namespace

const ClassProfile& class_profile(PublisherClass c) {
  static const ClassProfile regular = make_regular();
  static const ClassProfile altruistic = make_top_altruistic();
  static const ClassProfile portal_owner = make_portal_owner();
  static const ClassProfile other_web = make_other_web();
  static const ClassProfile fake_ap = make_fake(PublisherClass::FakeAntipiracy);
  static const ClassProfile fake_mw = make_fake(PublisherClass::FakeMalware);
  switch (c) {
    case PublisherClass::Regular:
      return regular;
    case PublisherClass::TopAltruistic:
      return altruistic;
    case PublisherClass::TopPortalOwner:
      return portal_owner;
    case PublisherClass::TopOtherWeb:
      return other_web;
    case PublisherClass::FakeAntipiracy:
      return fake_ap;
    case PublisherClass::FakeMalware:
      return fake_mw;
  }
  return regular;
}

ContentCategory draw_category(const ClassProfile& profile, Rng& rng) {
  const std::size_t i = rng.weighted_index(
      std::span<const double>(profile.category_weights.data(),
                              profile.category_weights.size()));
  assert(i < kAllCategories.size());
  return kAllCategories[i];
}

}  // namespace btpub
