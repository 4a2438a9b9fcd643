// classify.hpp — business classification of top publishers (paper §5).
//
// For each top publisher the pipeline emulates a downloader's experience
// over a sample of its torrents: scan the content-page textbox, the release
// filename and the payload file listing for a promoting URL; visit the URL
// and characterise the business (private BT portal vs other web site); and
// inspect the HTTP header exchange for third-party ad networks. Publishers
// with no promoting URL anywhere are classified altruistic.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/groups.hpp"
#include "util/rng.hpp"
#include "websim/appraisal.hpp"
#include "websim/website.hpp"

namespace btpub {

/// §5.1's three classes of top publishers.
enum class BusinessClass : std::uint8_t { BtPortal, OtherWeb, Altruistic };
std::string_view to_string(BusinessClass c);

/// Where a promoting URL was found for one torrent.
struct PromoFinding {
  std::string domain;
  bool in_textbox = false;
  bool in_filename = false;
  bool in_payload = false;
};

/// URL extraction primitives (exposed for tests).
std::optional<std::string> domain_from_textbox(std::string_view textbox);
std::optional<std::string> domain_from_title(std::string_view title);
std::optional<std::string> domain_from_payload(
    std::span<const std::string> filenames);

/// Scans one crawled torrent for a promoting URL in any channel. The
/// record overload serves the live classifier during the crawl; the view
/// overload reads title/textbox/payload filenames from the text arena.
std::optional<PromoFinding> find_promotion(const TorrentRecord& record);
std::optional<PromoFinding> find_promotion(const CompactDatasetView& view,
                                           const TorrentRecordPod& pod);

/// The assembled profile of one top publisher.
struct PublisherProfile {
  std::string username;
  BusinessClass cls = BusinessClass::Altruistic;
  std::string domain;  // empty for altruistic publishers
  // Channels observed across the sampled torrents.
  bool in_textbox = false;
  bool in_filename = false;
  bool in_payload = false;
  // Business observations from visiting the site.
  bool ads = false;
  bool donations = false;
  bool vip = false;
  bool signup = false;
  bool private_tracker = false;
  std::vector<std::string> ad_networks;
  // Contribution within the dataset.
  std::size_t content_count = 0;
  std::size_t download_count = 0;
  /// Dominant content language across this publisher's torrents, when a
  /// single language covers at least half of them.
  std::optional<Language> dominant_language;
};

struct ClassificationResult {
  std::vector<PublisherProfile> profiles;  // one per top publisher

  std::vector<const PublisherProfile*> of_class(BusinessClass c) const;
  /// Content/download share of one class against dataset totals.
  struct ClassShare {
    BusinessClass cls = BusinessClass::Altruistic;
    std::size_t publishers = 0;
    double content = 0.0;
    double downloads = 0.0;
  };
  std::vector<ClassShare> shares(std::size_t total_content,
                                 std::size_t total_downloads) const;
};

/// Classifies every member of the Top group, sampling up to
/// `sample_per_publisher` torrents each (the paper examined "a few"; 0 =
/// every torrent). Samples are drawn from `rng` in top() order.
ClassificationResult classify_top_publishers(const CompactDatasetView& view,
                                             const IdentityAnalysis& identity,
                                             const WebsiteDirectory& websites,
                                             std::size_t sample_per_publisher,
                                             Rng& rng);

}  // namespace btpub
