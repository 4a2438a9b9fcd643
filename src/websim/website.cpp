#include "websim/website.hpp"

#include <algorithm>
#include <stdexcept>

namespace btpub {

void WebsiteDirectory::add(Website site) {
  if (site.domain.empty()) {
    throw std::invalid_argument("WebsiteDirectory: empty domain");
  }
  const auto [it, inserted] = sites_.emplace(site.domain, std::move(site));
  if (!inserted) {
    throw std::invalid_argument("WebsiteDirectory: duplicate domain '" +
                                it->first + "'");
  }
}

const Website* WebsiteDirectory::find(std::string_view domain) const {
  const auto it = sites_.find(std::string(domain));
  return it == sites_.end() ? nullptr : &it->second;
}

std::optional<PageView> WebsiteDirectory::visit(std::string_view domain) const {
  const Website* site = find(domain);
  if (site == nullptr) return std::nullopt;
  PageView view;
  view.domain = site->domain;
  view.apparent_type = site->type;
  view.signup_form = site->requires_registration;
  view.tracker_links = site->has_private_tracker;
  view.torrent_index = site->type == BusinessType::PrivateBtPortal;
  view.image_galleries = site->type == BusinessType::ImageHosting;
  view.ad_banners = site->has_ads;
  view.donation_button = site->seeks_donations;
  view.vip_offer = site->offers_vip;
  return view;
}

std::vector<HttpHeader> WebsiteDirectory::http_exchange(
    std::string_view domain) const {
  std::vector<HttpHeader> headers;
  const Website* site = find(domain);
  if (site == nullptr) {
    headers.push_back({"Status", "404 Not Found"});
    return headers;
  }
  headers.push_back({"Status", "200 OK"});
  headers.push_back({"Server", "nginx/0.7.65"});
  headers.push_back({"Content-Type", "text/html; charset=utf-8"});
  for (const std::string& network : site->ad_networks) {
    // Third-party requests surface as Set-Cookie / Location pairs naming
    // the ad host, which is what header-level PII-leak analysis keys on.
    headers.push_back({"X-Third-Party-Request", "http://" + network + "/adserve"});
    headers.push_back({"Set-Cookie", "adtrk=1; Domain=." + network});
  }
  return headers;
}

std::vector<std::string> WebsiteDirectory::third_parties(
    std::string_view domain) const {
  const Website* site = find(domain);
  if (site == nullptr) return {};
  return site->ad_networks;
}

}  // namespace btpub
