// Business classification: URL extraction channels and class assignment.
#include "analysis/classify.hpp"
#include "dataset_fixture.hpp"

#include <gtest/gtest.h>

namespace btpub {
namespace {

TEST(DomainFromTextbox, FindsUrl) {
  EXPECT_EQ(domain_from_textbox("Visit http://www.divxatope.com/ for more"),
            "divxatope.com");
  EXPECT_EQ(domain_from_textbox("x http://www.my-site.net rest"), "my-site.net");
}

TEST(DomainFromTextbox, FindsHttpsUrl) {
  // Regression: the original matcher anchored on the literal "http://www."
  // prefix, so https promotions were silently classified altruistic.
  EXPECT_EQ(domain_from_textbox("https://www.skipped.com/"), "skipped.com");
  EXPECT_EQ(domain_from_textbox("now at https://zona.to forever"), "zona.to");
}

TEST(DomainFromTextbox, FindsBareSchemeUrl) {
  // Regression: same bug, second form — no "www." presentation prefix.
  EXPECT_EQ(domain_from_textbox("seed http://divxatope.com/ thx"),
            "divxatope.com");
  EXPECT_EQ(domain_from_textbox("http://my-site.net"), "my-site.net");
}

TEST(DomainFromTextbox, SkipsBogusMatchUntilValidUrl) {
  // A non-allowlisted TLD first, a valid promotion later: the scan must not
  // stop at the first scheme occurrence.
  EXPECT_EQ(domain_from_textbox("http://bad.example then http://good.org"),
            "good.org");
  // "https" text without "://" is not a URL.
  EXPECT_EQ(domain_from_textbox("https everywhere, also http://real.com"),
            "real.com");
}

TEST(DomainFromTextbox, RejectsAbsentOrBogus) {
  EXPECT_FALSE(domain_from_textbox("no urls here").has_value());
  EXPECT_FALSE(domain_from_textbox("http://www.").has_value());
  EXPECT_FALSE(domain_from_textbox("https://www.").has_value());
  EXPECT_FALSE(domain_from_textbox("http://www.nodots/").has_value());
  EXPECT_FALSE(domain_from_textbox("https://nodots/").has_value());
  EXPECT_FALSE(domain_from_textbox("http:/missing.com").has_value());
  EXPECT_FALSE(domain_from_textbox("ftp://files.com/").has_value());
}

TEST(DomainFromTitle, FindsSuffix) {
  EXPECT_EQ(domain_from_title("Some.Movie.2010.DVDRip-divxatope.com"),
            "divxatope.com");
  EXPECT_EQ(domain_from_title("Album.FLAC-zona.to"), "zona.to");
}

TEST(DomainFromTitle, RejectsPlainTitles) {
  EXPECT_FALSE(domain_from_title("Some.Movie.2010.DVDRip.XviD-CRoWN").has_value());
  EXPECT_FALSE(domain_from_title("NoTldHere-part2").has_value());
  EXPECT_FALSE(domain_from_title("nodash.com").has_value());
}

TEST(FindPromotion, PayloadFindsTextFile) {
  TorrentRecord record;
  record.title = "Movie.2010";
  record.payload_filenames = {"Movie.avi", "Movie.nfo",
                              "Visit-www-pixsor-com.txt"};
  const auto finding = find_promotion(record);
  ASSERT_TRUE(finding.has_value());
  EXPECT_EQ(finding->domain, "pixsor.com");
  EXPECT_FALSE(finding->in_textbox);
  EXPECT_FALSE(finding->in_filename);
  EXPECT_TRUE(finding->in_payload);
}

TEST(FindPromotion, PayloadRejectsOtherTextFiles) {
  TorrentRecord record;
  record.title = "Movie.2010";
  record.payload_filenames = {"Movie.avi", "readme.txt", "Visit-www-incomplete"};
  EXPECT_FALSE(find_promotion(record).has_value());
  record.payload_filenames.clear();
  EXPECT_FALSE(find_promotion(record).has_value());
}

/// find_promotion over the record and over its compact row.
void expect_overloads_agree(const TorrentRecord& record) {
  CompactDatasetBuilder builder;
  builder.add_torrent(record, {}, {});
  const CompactDataset compact = builder.finish();
  const CompactDatasetView view = compact.view();
  const auto from_record = find_promotion(record);
  const auto from_view = find_promotion(view, view.torrents[0]);
  ASSERT_EQ(from_record.has_value(), from_view.has_value());
  if (!from_record) return;
  EXPECT_EQ(from_record->domain, from_view->domain);
  EXPECT_EQ(from_record->in_textbox, from_view->in_textbox);
  EXPECT_EQ(from_record->in_filename, from_view->in_filename);
  EXPECT_EQ(from_record->in_payload, from_view->in_payload);
}

TEST(FindPromotion, FirstChannelNamesTheDomain) {
  // Textbox before title before payload; every channel still sets its flag,
  // and the view overload reads the same row the same way.
  TorrentRecord record;
  record.title = "Film.2010-zona.to";
  record.payload_filenames = {"Visit-www-pixsor-com.txt",
                              "Visit-www-megaseed-com.txt"};
  auto finding = find_promotion(record);
  ASSERT_TRUE(finding.has_value());
  EXPECT_EQ(finding->domain, "zona.to");
  EXPECT_TRUE(finding->in_filename);
  EXPECT_TRUE(finding->in_payload);
  expect_overloads_agree(record);
  record.title = "Film.2010";
  finding = find_promotion(record);
  ASSERT_TRUE(finding.has_value());
  EXPECT_EQ(finding->domain, "pixsor.com");  // the first payload file wins
  expect_overloads_agree(record);
  record.textbox = "at http://www.divxatope.com/";
  finding = find_promotion(record);
  ASSERT_TRUE(finding.has_value());
  EXPECT_EQ(finding->domain, "divxatope.com");
  EXPECT_TRUE(finding->in_textbox);
  expect_overloads_agree(record);
  record = TorrentRecord{};
  expect_overloads_agree(record);
}

TEST(FindPromotion, MergesChannels) {
  TorrentRecord record;
  record.title = "Film.2010-divxatope.com";
  record.textbox = "Download more at http://www.divxatope.com/ !";
  record.payload_filenames = {"Film.avi", "Visit-www-divxatope-com.txt"};
  const auto finding = find_promotion(record);
  ASSERT_TRUE(finding.has_value());
  EXPECT_EQ(finding->domain, "divxatope.com");
  EXPECT_TRUE(finding->in_textbox);
  EXPECT_TRUE(finding->in_filename);
  EXPECT_TRUE(finding->in_payload);
}

TEST(FindPromotion, NoneForCleanTorrent) {
  TorrentRecord record;
  record.title = "Clean.Release.2010";
  record.textbox = "Great quality, please seed";
  record.payload_filenames = {"Clean.Release.2010.avi"};
  EXPECT_FALSE(find_promotion(record).has_value());
}

class ClassifyTest : public DatasetFixture {
 protected:
  ClassifyTest() {
    const IspId isp = geo_.add_isp("Net", IspType::CommercialIsp, "US");
    geo_.add_block(CidrBlock(IpAddress(20, 0, 0, 0), 8), isp, "City");

    Website portal;
    portal.domain = "megaseed.com";
    portal.type = BusinessType::PrivateBtPortal;
    portal.requires_registration = true;
    portal.has_private_tracker = true;
    portal.has_ads = true;
    portal.ad_networks = {"adserve-one.example"};
    websites_.add(portal);

    Website gallery;
    gallery.domain = "pixsor.com";
    gallery.type = BusinessType::ImageHosting;
    gallery.has_ads = true;
    websites_.add(gallery);

    dataset_.style = DatasetStyle::Pb10;
  }

  /// Adds `n` torrents for `username`, optionally promoting `domain`.
  void add_torrents(const std::string& username, std::size_t n,
                    const std::string& domain, Language language = Language::English) {
    for (std::size_t i = 0; i < n; ++i) {
      TorrentRecord record;
      record.portal_id = static_cast<TorrentId>(dataset_.torrents.size());
      record.username = username;
      record.publisher_ip = IpAddress(20, 0, 0, 1);
      record.language = language;
      record.title = username + std::to_string(i);
      if (!domain.empty()) {
        record.textbox = "Get it at http://www." + domain + "/ now";
      }
      dataset_.torrents.push_back(std::move(record));
      dataset_.downloaders.push_back(
          std::vector<IpAddress>{IpAddress(0x31000000u + static_cast<std::uint32_t>(
                                                             dataset_.torrents.size()))});
      dataset_.publisher_sightings.emplace_back();
    }
  }

  GeoDb geo_;
  WebsiteDirectory websites_;
};

TEST_F(ClassifyTest, ThreeWayClassification) {
  add_torrents("portaluser", 8, "megaseed.com");
  add_torrents("galleryuser", 7, "pixsor.com");
  add_torrents("goodguy", 6, "");
  const IdentityAnalysis identity(view(), geo_, 3);
  Rng rng(1);
  const auto result =
      classify_top_publishers(view(), identity, websites_, 5, rng);
  ASSERT_EQ(result.profiles.size(), 3u);
  std::size_t bt = 0, other = 0, altruistic = 0;
  for (const PublisherProfile& p : result.profiles) {
    switch (p.cls) {
      case BusinessClass::BtPortal:
        ++bt;
        EXPECT_EQ(p.domain, "megaseed.com");
        EXPECT_TRUE(p.signup);
        EXPECT_TRUE(p.private_tracker);
        EXPECT_TRUE(p.ads);
        EXPECT_EQ(p.ad_networks.size(), 1u);
        break;
      case BusinessClass::OtherWeb:
        ++other;
        EXPECT_EQ(p.domain, "pixsor.com");
        break;
      case BusinessClass::Altruistic:
        ++altruistic;
        EXPECT_TRUE(p.domain.empty());
        break;
    }
    EXPECT_TRUE(p.in_textbox || p.domain.empty());
  }
  EXPECT_EQ(bt, 1u);
  EXPECT_EQ(other, 1u);
  EXPECT_EQ(altruistic, 1u);
}

TEST_F(ClassifyTest, UnknownDomainDefaultsToOtherWeb) {
  add_torrents("mystery", 5, "gone.example.com");
  const IdentityAnalysis identity(view(), geo_, 1);
  Rng rng(2);
  const auto result =
      classify_top_publishers(view(), identity, websites_, 5, rng);
  ASSERT_EQ(result.profiles.size(), 1u);
  EXPECT_EQ(result.profiles[0].cls, BusinessClass::OtherWeb);
}

TEST_F(ClassifyTest, SamplingStillFindsConsistentPromoter) {
  add_torrents("bigpromo", 40, "megaseed.com");
  const IdentityAnalysis identity(view(), geo_, 1);
  Rng rng(3);
  const auto result =
      classify_top_publishers(view(), identity, websites_, 3, rng);
  ASSERT_EQ(result.profiles.size(), 1u);
  EXPECT_EQ(result.profiles[0].cls, BusinessClass::BtPortal);
  EXPECT_EQ(result.profiles[0].content_count, 40u);
}

TEST_F(ClassifyTest, DominantLanguageDetected) {
  add_torrents("esuser", 8, "megaseed.com", Language::Spanish);
  add_torrents("enuser", 8, "pixsor.com", Language::English);
  const IdentityAnalysis identity(view(), geo_, 2);
  Rng rng(4);
  const auto result =
      classify_top_publishers(view(), identity, websites_, 5, rng);
  for (const PublisherProfile& p : result.profiles) {
    if (p.username == "esuser") {
      ASSERT_TRUE(p.dominant_language.has_value());
      EXPECT_EQ(*p.dominant_language, Language::Spanish);
    } else {
      EXPECT_FALSE(p.dominant_language.has_value());  // English is default
    }
  }
}

TEST_F(ClassifyTest, SharesAgainstTotals) {
  add_torrents("portaluser", 10, "megaseed.com");
  add_torrents("goodguy", 5, "");
  const IdentityAnalysis identity(view(), geo_, 2);
  Rng rng(5);
  const auto result =
      classify_top_publishers(view(), identity, websites_, 5, rng);
  const auto shares = result.shares(identity.total_content(),
                                    identity.total_downloads());
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_EQ(shares[0].cls, BusinessClass::BtPortal);
  EXPECT_NEAR(shares[0].content, 10.0 / 15.0, 1e-9);
  EXPECT_EQ(shares[2].cls, BusinessClass::Altruistic);
  EXPECT_NEAR(shares[2].content, 5.0 / 15.0, 1e-9);
}

TEST(BusinessClassNames, Rendering) {
  EXPECT_EQ(to_string(BusinessClass::BtPortal), "BT Portals");
  EXPECT_EQ(to_string(BusinessClass::Altruistic), "Altruistic");
}

}  // namespace
}  // namespace btpub
