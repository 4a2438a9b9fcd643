// website.hpp — the web estate of profit-driven publishers.
//
// Each promoting URL the classifier discovers resolves, through this
// directory, to a page whose *content* is observable (signup forms, galler-
// ies, ad banners, donation buttons, VIP offers) and whose true economics
// (value, daily income, daily visits) are ground truth that only the
// appraisal services (appraisal.hpp) estimate — mirroring how the authors
// characterised business profiles by visiting sites and estimated incomes
// via six third-party monitoring services.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace btpub {

/// Business profile behind a promoting URL (§5.1's classification).
enum class BusinessType : std::uint8_t {
  PrivateBtPortal,  // own BitTorrent index, often with a private tracker
  ImageHosting,     // adult picture hosting promoted through porn torrents
  Forum,
  ReligiousSite,
  None,             // no site / purely altruistic publisher
};

/// A registered website with ground-truth economics.
struct Website {
  std::string domain;
  BusinessType type = BusinessType::None;
  // Ground truth (USD, visits/day) — only estimable via AppraisalPanel.
  double value_usd = 0.0;
  double daily_income_usd = 0.0;
  double daily_visits = 0.0;
  // Observable page features.
  bool has_ads = false;
  bool seeks_donations = false;
  bool offers_vip = false;
  bool requires_registration = false;  // private-tracker seeding-ratio model
  bool has_private_tracker = false;
  std::vector<std::string> ad_networks;  // third parties in the HTTP exchange
};

/// What a visit renders (no economics, only page features).
struct PageView {
  std::string domain;
  BusinessType apparent_type = BusinessType::None;
  bool signup_form = false;
  bool tracker_links = false;
  bool torrent_index = false;  // the page lists .torrent files
  bool image_galleries = false;
  bool ad_banners = false;
  bool donation_button = false;
  bool vip_offer = false;
};

/// One HTTP response header line.
struct HttpHeader {
  std::string name;
  std::string value;
};

/// Domain -> website registry plus the visit/HTTP surface.
class WebsiteDirectory {
 public:
  /// Registers a site; throws std::invalid_argument on duplicate domain.
  void add(Website site);

  const Website* find(std::string_view domain) const;
  std::size_t size() const noexcept { return sites_.size(); }

  /// Renders the page a visitor sees; nullopt for unknown domains.
  std::optional<PageView> visit(std::string_view domain) const;

  /// The response headers a browser exchange would show, including
  /// Set-Cookie redirections to third-party ad networks (the detection
  /// technique of Krishnamurthy & Wills the paper borrows).
  std::vector<HttpHeader> http_exchange(std::string_view domain) const;

  /// Third-party hosts contacted when loading the page (ads networks).
  std::vector<std::string> third_parties(std::string_view domain) const;

 private:
  std::unordered_map<std::string, Website> sites_;
};

}  // namespace btpub
