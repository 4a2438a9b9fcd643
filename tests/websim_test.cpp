// Website directory, page views, HTTP third-party detection, appraisal.
#include <gtest/gtest.h>

#include "websim/appraisal.hpp"
#include "websim/website.hpp"

namespace btpub {
namespace {

Website portal_site() {
  Website site;
  site.domain = "ultratorrents.com";
  site.type = BusinessType::PrivateBtPortal;
  site.value_usd = 33000;
  site.daily_income_usd = 55;
  site.daily_visits = 21000;
  site.has_ads = true;
  site.seeks_donations = true;
  site.offers_vip = true;
  site.requires_registration = true;
  site.has_private_tracker = true;
  site.ad_networks = {"adserve-one.example", "clickbarn.example"};
  return site;
}

Website image_site() {
  Website site;
  site.domain = "pixsor.com";
  site.type = BusinessType::ImageHosting;
  site.value_usd = 22000;
  site.daily_income_usd = 51;
  site.daily_visits = 22000;
  site.has_ads = true;
  site.ad_networks = {"trafficx.example"};
  return site;
}

TEST(WebsiteDirectory, AddFindVisit) {
  WebsiteDirectory dir;
  dir.add(portal_site());
  dir.add(image_site());
  EXPECT_EQ(dir.size(), 2u);
  ASSERT_NE(dir.find("ultratorrents.com"), nullptr);
  EXPECT_EQ(dir.find("nope.com"), nullptr);

  const auto view = dir.visit("ultratorrents.com");
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->torrent_index);
  EXPECT_TRUE(view->signup_form);
  EXPECT_TRUE(view->tracker_links);
  EXPECT_TRUE(view->ad_banners);
  EXPECT_TRUE(view->donation_button);
  EXPECT_TRUE(view->vip_offer);
  EXPECT_FALSE(view->image_galleries);

  const auto gallery = dir.visit("pixsor.com");
  ASSERT_TRUE(gallery.has_value());
  EXPECT_FALSE(gallery->torrent_index);
  EXPECT_TRUE(gallery->image_galleries);
}

TEST(WebsiteDirectory, VisitUnknownDomain) {
  WebsiteDirectory dir;
  EXPECT_FALSE(dir.visit("ghost.example").has_value());
}

TEST(WebsiteDirectory, RejectsDuplicatesAndEmpty) {
  WebsiteDirectory dir;
  dir.add(portal_site());
  EXPECT_THROW(dir.add(portal_site()), std::invalid_argument);
  Website empty;
  EXPECT_THROW(dir.add(empty), std::invalid_argument);
}

TEST(WebsiteDirectory, HttpExchangeRevealsAdNetworks) {
  WebsiteDirectory dir;
  dir.add(portal_site());
  const auto headers = dir.http_exchange("ultratorrents.com");
  ASSERT_GE(headers.size(), 3u);
  EXPECT_EQ(headers[0].name, "Status");
  EXPECT_EQ(headers[0].value, "200 OK");
  bool saw_ad = false;
  for (const HttpHeader& h : headers) {
    if (h.name == "X-Third-Party-Request" &&
        h.value.find("adserve-one.example") != std::string::npos) {
      saw_ad = true;
    }
  }
  EXPECT_TRUE(saw_ad);
  EXPECT_EQ(dir.third_parties("ultratorrents.com").size(), 2u);
}

TEST(WebsiteDirectory, HttpExchange404ForUnknown) {
  WebsiteDirectory dir;
  const auto headers = dir.http_exchange("ghost.example");
  ASSERT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers[0].value, "404 Not Found");
  EXPECT_TRUE(dir.third_parties("ghost.example").empty());
}

TEST(Appraisal, EstimatesAreDeterministic) {
  const AppraisalService service("svc", 1.0, 0.3);
  const Website site = portal_site();
  const SiteEstimate a = service.estimate(site);
  const SiteEstimate b = service.estimate(site);
  EXPECT_DOUBLE_EQ(a.value_usd, b.value_usd);
  EXPECT_DOUBLE_EQ(a.daily_income_usd, b.daily_income_usd);
  EXPECT_DOUBLE_EQ(a.daily_visits, b.daily_visits);
}

TEST(Appraisal, DifferentServicesDisagree) {
  const AppraisalPanel panel = AppraisalPanel::standard();
  ASSERT_EQ(panel.size(), 6u);
  const auto estimates = panel.all_estimates(portal_site());
  ASSERT_EQ(estimates.size(), 6u);
  bool any_difference = false;
  for (std::size_t i = 1; i < estimates.size(); ++i) {
    if (estimates[i].value_usd != estimates[0].value_usd) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Appraisal, PanelAverageTracksTruthWithinNoise) {
  const AppraisalPanel panel = AppraisalPanel::standard();
  // Average over many sites: the panel mean should track truth within the
  // configured bias/noise envelope (roughly a factor of two).
  double ratio_sum = 0;
  int sites = 0;
  for (int i = 0; i < 60; ++i) {
    Website site = portal_site();
    site.domain = "site" + std::to_string(i) + ".com";
    const SiteEstimate avg = panel.average(site);
    ratio_sum += avg.value_usd / site.value_usd;
    ++sites;
  }
  const double mean_ratio = ratio_sum / sites;
  EXPECT_GT(mean_ratio, 0.6);
  EXPECT_LT(mean_ratio, 1.8);
}

TEST(Appraisal, ZeroTruthStaysZero) {
  Website site = portal_site();
  site.daily_income_usd = 0.0;
  const SiteEstimate avg = AppraisalPanel::standard().average(site);
  EXPECT_EQ(avg.daily_income_usd, 0.0);
  EXPECT_GT(avg.value_usd, 0.0);
}

TEST(Appraisal, DirectoryLookupVariant) {
  WebsiteDirectory dir;
  dir.add(portal_site());
  const AppraisalPanel panel = AppraisalPanel::standard();
  EXPECT_TRUE(panel.average(dir, "ultratorrents.com").has_value());
  EXPECT_FALSE(panel.average(dir, "ghost.example").has_value());
}

}  // namespace
}  // namespace btpub
