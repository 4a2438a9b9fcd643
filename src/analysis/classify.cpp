#include "analysis/classify.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <functional>

#include "util/strings.hpp"

namespace btpub {
namespace {

constexpr std::array<std::string_view, 5> kTlds = {".com", ".net", ".org",
                                                   ".info", ".to"};

bool is_domain_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '-';
}

bool ends_with_tld(std::string_view s) {
  for (const std::string_view tld : kTlds) {
    if (ends_with(s, tld)) return true;
  }
  return false;
}

std::optional<std::string> payload_domain_from_name(std::string_view name) {
  static constexpr std::string_view kPrefix = "Visit-www-";
  static constexpr std::string_view kSuffix = ".txt";
  if (!starts_with(name, kPrefix) || !ends_with(name, kSuffix)) {
    return std::nullopt;
  }
  std::string flat(
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size()));
  std::replace(flat.begin(), flat.end(), '-', '.');
  if (ends_with_tld(flat)) return flat;
  return std::nullopt;
}

}  // namespace

std::string_view to_string(BusinessClass c) {
  switch (c) {
    case BusinessClass::BtPortal:
      return "BT Portals";
    case BusinessClass::OtherWeb:
      return "Other Web Sites";
    case BusinessClass::Altruistic:
      return "Altruistic";
  }
  return "?";
}

std::optional<std::string> domain_from_textbox(std::string_view textbox) {
  // Promoting URLs appear as http://www.domain.tld, https://www.domain.tld
  // or the bare http(s)://domain.tld form. The original matcher anchored on
  // the literal "http://www." prefix, so the other two forms were silently
  // never attributed and their publishers fell through to Altruistic. Scan
  // every scheme occurrence until one yields an allowlisted domain.
  static constexpr std::string_view kScheme = "http";
  for (std::size_t pos = textbox.find(kScheme); pos != std::string_view::npos;
       pos = textbox.find(kScheme, pos + 1)) {
    std::size_t begin = pos + kScheme.size();
    if (begin < textbox.size() && textbox[begin] == 's') ++begin;
    if (textbox.substr(begin, 3) != "://") continue;
    begin += 3;
    // "www." is a presentation prefix, not part of the promoted domain.
    if (textbox.substr(begin, 4) == "www.") begin += 4;
    std::size_t end = begin;
    while (end < textbox.size() && is_domain_char(textbox[end])) ++end;
    if (end == begin) continue;
    std::string domain(textbox.substr(begin, end - begin));
    if (ends_with_tld(domain)) return domain;
  }
  return std::nullopt;
}

std::optional<std::string> domain_from_title(std::string_view title) {
  if (!ends_with_tld(title)) return std::nullopt;
  // The promoting domain is appended as "...-domain.tld".
  const std::size_t dash = title.rfind('-');
  if (dash == std::string_view::npos || dash + 1 >= title.size()) {
    return std::nullopt;
  }
  std::string_view tail = title.substr(dash + 1);
  if (tail.find('.') == std::string_view::npos) return std::nullopt;
  for (char c : tail) {
    if (!is_domain_char(c)) return std::nullopt;
  }
  return std::string(tail);
}

namespace {

/// The one channel rule: textbox, then title, then the payload filenames
/// (read through `name_of`); the first domain found names the finding.
template <typename Filenames, typename NameOf>
std::optional<PromoFinding> promotion_in(std::string_view textbox,
                                         std::string_view title,
                                         const Filenames& filenames,
                                         NameOf name_of) {
  PromoFinding finding;
  if (const auto domain = domain_from_textbox(textbox)) {
    finding.domain = *domain;
    finding.in_textbox = true;
  }
  if (const auto domain = domain_from_title(title)) {
    if (finding.domain.empty()) finding.domain = *domain;
    finding.in_filename = true;
  }
  for (const auto& file : filenames) {
    if (auto domain = payload_domain_from_name(name_of(file))) {
      if (finding.domain.empty()) finding.domain = *domain;
      finding.in_payload = true;
      break;
    }
  }
  if (finding.domain.empty()) return std::nullopt;
  return finding;
}

}  // namespace

std::optional<PromoFinding> find_promotion(const TorrentRecord& record) {
  return promotion_in(record.textbox, record.title, record.payload_filenames,
                      std::identity{});
}

std::optional<PromoFinding> find_promotion(const CompactDatasetView& view,
                                           const TorrentRecordPod& pod) {
  return promotion_in(view.textbox(pod), view.title(pod),
                      view.filenames_of(pod),
                      [&view](StrRef ref) { return view.str(ref); });
}

std::vector<const PublisherProfile*> ClassificationResult::of_class(
    BusinessClass c) const {
  std::vector<const PublisherProfile*> out;
  for (const PublisherProfile& profile : profiles) {
    if (profile.cls == c) out.push_back(&profile);
  }
  return out;
}

std::vector<ClassificationResult::ClassShare> ClassificationResult::shares(
    std::size_t total_content, std::size_t total_downloads) const {
  std::vector<ClassShare> out;
  for (const BusinessClass c :
       {BusinessClass::BtPortal, BusinessClass::OtherWeb, BusinessClass::Altruistic}) {
    ClassShare share;
    share.cls = c;
    for (const PublisherProfile* p : of_class(c)) {
      ++share.publishers;
      share.content += static_cast<double>(p->content_count);
      share.downloads += static_cast<double>(p->download_count);
    }
    if (total_content > 0) share.content /= static_cast<double>(total_content);
    if (total_downloads > 0) {
      share.downloads /= static_cast<double>(total_downloads);
    }
    out.push_back(share);
  }
  return out;
}

ClassificationResult classify_top_publishers(const CompactDatasetView& view,
                                             const IdentityAnalysis& identity,
                                             const WebsiteDirectory& websites,
                                             std::size_t sample_per_publisher,
                                             Rng& rng) {
  ClassificationResult result;
  for (const std::string& username : identity.top()) {
    const UsernameStats* stats = identity.find_username(username);
    if (stats == nullptr) continue;
    PublisherProfile profile;
    profile.username = stats->username;
    profile.content_count = stats->content_count;
    profile.download_count = stats->download_count;

    // Emulate the downloader experience on a sample of this publisher's
    // torrents.
    std::vector<std::size_t> sample = stats->torrents;
    if (sample_per_publisher > 0 && sample.size() > sample_per_publisher) {
      std::vector<std::size_t> chosen;
      for (std::size_t i : rng.sample_indices(sample.size(), sample_per_publisher)) {
        chosen.push_back(sample[i]);
      }
      sample.swap(chosen);
    }
    for (const std::size_t index : sample) {
      const auto finding = find_promotion(view, view.torrents[index]);
      if (!finding) continue;
      if (profile.domain.empty()) profile.domain = finding->domain;
      profile.in_textbox |= finding->in_textbox;
      profile.in_filename |= finding->in_filename;
      profile.in_payload |= finding->in_payload;
    }

    // Dominant language over the full torrent list. A language byte
    // outside the enum (a hand-built view that skipped validate()) counts
    // as Other instead of indexing past the array.
    std::array<std::size_t, 6> lang_counts{};
    for (const std::size_t index : stats->torrents) {
      const std::size_t lang = view.torrents[index].language;
      ++lang_counts[std::min(lang, lang_counts.size() - 1)];
    }
    const auto max_it = std::max_element(lang_counts.begin(), lang_counts.end());
    if (*max_it * 2 >= stats->content_count &&
        static_cast<Language>(max_it - lang_counts.begin()) != Language::English) {
      profile.dominant_language =
          static_cast<Language>(max_it - lang_counts.begin());
    }

    if (profile.domain.empty()) {
      profile.cls = BusinessClass::Altruistic;
    } else if (const auto site = websites.visit(profile.domain)) {
      profile.signup = site->signup_form;
      profile.private_tracker = site->tracker_links;
      profile.ads = site->ad_banners;
      profile.donations = site->donation_button;
      profile.vip = site->vip_offer;
      profile.ad_networks = websites.third_parties(profile.domain);
      profile.cls = site->torrent_index ? BusinessClass::BtPortal
                                        : BusinessClass::OtherWeb;
    } else {
      // URL resolved nowhere (site gone): best effort, keep it OtherWeb.
      profile.cls = BusinessClass::OtherWeb;
    }
    result.profiles.push_back(std::move(profile));
  }
  return result;
}

}  // namespace btpub
