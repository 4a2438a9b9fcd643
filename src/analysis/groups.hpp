// groups.hpp — publisher identity analysis (paper §3.3).
//
// Aggregates the crawled dataset by username and by IP, detects fake
// publishers from the username↔IP mapping plus the portal's moderation
// signal (an IP that publishes under many usernames which keep getting
// banned is a fake farm), and forms the paper's target groups:
// All / Fake / Top / Top-HP / Top-CI.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crawler/compact_dataset.hpp"
#include "geo/geo_db.hpp"

namespace btpub {

/// Everything observed about one username.
struct UsernameStats {
  std::string username;
  std::vector<std::size_t> torrents;  // indices into the view's torrents
  std::size_t content_count = 0;
  std::size_t download_count = 0;  // total distinct downloader IPs
  std::vector<IpAddress> ips;      // identified publisher IPs (deduped)
  bool banned = false;
};

/// Everything observed about one publisher IP.
struct IpStats {
  IpAddress ip;
  std::vector<std::size_t> torrents;
  std::size_t content_count = 0;
  std::vector<std::string> usernames;  // deduped
  std::size_t banned_usernames = 0;
};

/// Thresholds for the fake-farm rule.
struct FakeDetectionConfig {
  /// An IP is a fake farm when it published under at least this many
  /// distinct usernames...
  std::size_t min_usernames_per_ip = 3;
  /// ...of which at least this fraction were banned by moderation.
  double min_banned_fraction = 0.5;
};

/// The target groups of §4.
enum class TargetGroup : std::uint8_t { All, Fake, Top, TopHP, TopCI };
std::string_view to_string(TargetGroup g);

/// Full identity analysis over one dataset.
class IdentityAnalysis {
 public:
  /// `top_n` is the size of the "top publishers" cut (the paper's 100).
  /// Per-torrent downloader counts and publisher IPs come straight from
  /// the view's flat spans; the view only needs to outlive the
  /// constructor.
  IdentityAnalysis(const CompactDatasetView& view, const GeoDb& geo,
                   std::size_t top_n = 100,
                   FakeDetectionConfig fake_config = {});

  /// Usernames sorted by content count, descending.
  const std::vector<UsernameStats>& usernames() const noexcept { return usernames_; }
  /// IPs sorted by content count, descending.
  const std::vector<IpStats>& ips() const noexcept { return ips_; }

  const UsernameStats* find_username(std::string_view name) const;

  /// Usernames attributed to fake farms.
  const std::unordered_set<std::string>& fake_usernames() const noexcept {
    return fake_usernames_;
  }
  const std::unordered_set<IpAddress>& fake_ips() const noexcept { return fake_ips_; }

  /// The Top group: top-N usernames minus detected fakes.
  const std::vector<std::string>& top() const noexcept { return top_; }
  /// Fake usernames that had cracked the top-N (the paper's 16).
  std::size_t compromised_in_top() const noexcept { return compromised_in_top_; }

  /// Top split by hosting location (majority ISP type of identified IPs).
  const std::unordered_set<std::string>& top_hp() const noexcept { return top_hp_; }
  const std::unordered_set<std::string>& top_ci() const noexcept { return top_ci_; }

  bool is_fake(std::string_view username) const;
  /// Group membership test ("All" is every username).
  bool in_group(std::string_view username, TargetGroup g) const;

  /// Stats pointers for every member of a group (All = everyone).
  std::vector<const UsernameStats*> members(TargetGroup g) const;

  /// §3.3 headline: of the top-N *IPs*, how many are multi-username farms?
  struct TopIpBreakdown {
    std::size_t considered = 0;       // min(top_n, #ips)
    std::size_t single_username = 0;
    std::size_t multi_username = 0;   // fake-farm pattern
  };
  TopIpBreakdown top_ip_breakdown() const;

  /// Content/download share of a set of usernames.
  struct Share {
    double content = 0.0;
    double downloads = 0.0;
  };
  Share share_of(TargetGroup g) const;

  std::size_t total_content() const noexcept { return total_content_; }
  std::size_t total_downloads() const noexcept { return total_downloads_; }

 private:
  /// The first-occurrence scan: usernames, IPs, torrent indices and
  /// deduped cross-references in torrent-index order, then per-IP banned
  /// counts, the content-count sort and the username re-key.
  void build_tables(const CompactDatasetView& view);
  void detect_fakes(const FakeDetectionConfig& config);
  void build_top(const GeoDb& geo, std::size_t top_n);

  const GeoDb* geo_;
  std::vector<UsernameStats> usernames_;
  std::unordered_map<std::string, std::size_t> username_index_;
  std::vector<IpStats> ips_;
  std::unordered_set<std::string> fake_usernames_;
  std::unordered_set<IpAddress> fake_ips_;
  std::vector<std::string> top_;
  std::unordered_set<std::string> top_set_;
  std::unordered_set<std::string> top_hp_;
  std::unordered_set<std::string> top_ci_;
  std::size_t compromised_in_top_ = 0;
  std::size_t total_content_ = 0;
  std::size_t total_downloads_ = 0;
  std::size_t top_n_ = 100;
};

}  // namespace btpub
