#include "analysis/streaming/streaming_classifier.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "analysis/session.hpp"
#include "crawler/compact_dataset.hpp"

namespace btpub {

StreamingClassifier::StreamingClassifier(const GeoDb& geo,
                                         const WebsiteDirectory& websites,
                                         StreamingConfig config)
    : geo_(&geo),
      websites_(&websites),
      config_(config),
      announce_rates_(kCmsWidth, kCmsDepth, kSketchSalt) {}

void StreamingClassifier::on_discover(const TorrentRecord& record, SimTime now) {
  TorrentSlot slot;
  slot.record = record;
  slot.discovered_at = now;
  slot.last_observation = now;
  const auto it = slots_.insert_or_assign(record.portal_id, std::move(slot)).first;
  cached_id_ = it->first;
  cached_slot_ = &it->second;
}

StreamingClassifier::TorrentSlot* StreamingClassifier::find_slot(
    TorrentId id) {
  if (cached_slot_ != nullptr && cached_id_ == id) return cached_slot_;
  const auto it = slots_.find(id);
  if (it == slots_.end()) return nullptr;
  cached_id_ = id;
  cached_slot_ = &it->second;
  return cached_slot_;
}

void StreamingClassifier::on_downloaders(TorrentId id,
                                         std::span<const IpAddress> ips,
                                         SimTime now) {
  TorrentSlot* slot = find_slot(id);
  if (slot == nullptr) return;
  for (const IpAddress& ip : ips) {
    slot->downloaders.add(ip.value());
    announce_rates_.add(ip.value());
  }
  slot->last_observation = std::max(slot->last_observation, now);
  updates_ += ips.size();
}

void StreamingClassifier::on_publisher_sighting(TorrentId id, SimTime now) {
  TorrentSlot* slot = find_slot(id);
  if (slot == nullptr) return;
  slot->sightings.push_back(now);
  if (slot->record.publisher_ip) {
    announce_rates_.add(slot->record.publisher_ip->value());
  }
  slot->last_observation = std::max(slot->last_observation, now);
  ++updates_;
}

void StreamingClassifier::on_removal(TorrentId id, SimTime now) {
  TorrentSlot* slot = find_slot(id);
  if (slot == nullptr) return;
  slot->removed = true;
  slot->last_observation = std::max(slot->last_observation, now);
}

void StreamingClassifier::on_user_page(const std::string& username,
                                       const UserPage& page) {
  user_banned_[username] = page.banned;
}

StreamingSnapshot StreamingClassifier::snapshot(SimTime now,
                                                bool provisional) const {
  StreamingSnapshot snap;
  snap.at = now;
  snap.torrents = slots_.size();

  // The observed crawl as a dataset: slots in portal-id order (view index
  // i is slots[i]), sightings as observed, no downloader lists (the HLLs
  // stand in for them). Distinct-IP estimates ride along.
  CompactDatasetBuilder builder;
  std::vector<const TorrentSlot*> slots;
  slots.reserve(slots_.size());
  snap.torrent_estimates.reserve(slots_.size());
  std::map<std::string_view, bool> removed;  // username -> any removal seen
  HyperLogLog global(kHllPrecision, kSketchSalt);
  for (const auto& [id, slot] : slots_) {
    builder.add_torrent(slot.record, {}, slot.sightings);
    slots.push_back(&slot);
    global.merge(slot.downloaders);
    snap.torrent_estimates.push_back(
        {id, slot.downloaders.empty() ? 0.0 : slot.downloaders.estimate()});
    if (!slot.record.username.empty()) {
      removed[slot.record.username] |= slot.removed;
    }
  }
  snap.est_distinct_ips_global = global.empty() ? 0.0 : global.estimate();
  snap.hll_relative_error = global.relative_error();
  snap.cms_epsilon = announce_rates_.epsilon();
  snap.announce_total = announce_rates_.total();

  // One user page per username: the confirmed ban, and in a provisional
  // round also any moderation removal observed so far (the user-page bans
  // only exist at crawl end).
  for (const auto& [username, any_removed] : removed) {
    const auto confirmed = user_banned_.find(username);
    UserPage page;
    page.username = std::string(username);
    page.banned = (confirmed != user_banned_.end() && confirmed->second) ||
                  (provisional && any_removed);
    builder.add_user_page(page);
  }
  const CompactDataset observed = builder.finish();
  const CompactDatasetView view = observed.view();

  const IdentityAnalysis identity(view, *geo_, config_.top_n);
  Rng unused;  // sample_per_publisher = 0 classifies every torrent
  const ClassificationResult classes =
      classify_top_publishers(view, identity, *websites_, 0, unused);
  // Profiles come in top() order, which is the ranking order below.
  auto profile = classes.profiles.begin();

  snap.publishers = identity.usernames().size();
  snap.verdicts.reserve(snap.publishers);
  for (const UsernameStats& stats : identity.usernames()) {
    PublisherVerdict verdict;
    verdict.username = stats.username;
    verdict.content_count = stats.content_count;
    verdict.fake = identity.is_fake(stats.username);
    verdict.provisional_fake = verdict.fake && provisional &&
                               !user_banned_.contains(stats.username) &&
                               removed.at(stats.username);
    verdict.top = identity.in_group(stats.username, TargetGroup::Top);
    if (verdict.top) {
      verdict.hosting_provider = identity.top_hp().contains(stats.username);
      verdict.cls = profile->cls;
      verdict.domain = profile->domain;
      verdict.in_textbox = profile->in_textbox;
      verdict.in_filename = profile->in_filename;
      verdict.in_payload = profile->in_payload;
      verdict.dominant_language = profile->dominant_language;
      ++profile;
    }
    const SeedingMetrics sessions = seeding_metrics(view, stats.torrents);
    verdict.seeding_hours = sessions.avg_seeding_hours;
    verdict.aggregated_hours = sessions.aggregated_session_hours;
    verdict.parallel_torrents = sessions.avg_parallel_torrents;

    // Streaming download estimate, and the announce-rate signal: busiest
    // identified publisher IP vs the alert threshold over this publisher's
    // monitoring span.
    SimTime span_start = slots[stats.torrents.front()]->discovered_at;
    SimTime span_end = slots[stats.torrents.front()]->last_observation;
    for (const std::size_t index : stats.torrents) {
      const TorrentSlot& slot = *slots[index];
      verdict.est_downloads +=
          snap.torrent_estimates[index].est_distinct_downloaders;
      span_start = std::min(span_start, slot.discovered_at);
      span_end = std::max(span_end, slot.last_observation);
    }
    for (const IpAddress& ip : stats.ips) {
      verdict.announce_observations = std::max(
          verdict.announce_observations, announce_rates_.count(ip.value()));
    }
    const double span_hours = std::max(1.0, to_hours(span_end - span_start));
    verdict.rate_flagged =
        static_cast<double>(verdict.announce_observations) / span_hours >
        kAnnounceRateAlert;
    snap.verdicts.push_back(std::move(verdict));
  }
  return snap;
}

std::vector<std::string> StreamingSnapshot::top() const {
  std::vector<std::string> out;
  for (const PublisherVerdict& v : verdicts) {
    if (v.top) out.push_back(v.username);
  }
  return out;
}

std::vector<std::string> StreamingSnapshot::fakes() const {
  std::vector<std::string> out;
  for (const PublisherVerdict& v : verdicts) {
    if (v.fake) out.push_back(v.username);
  }
  return out;
}

std::string StreamingSnapshot::to_text() const {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof line,
                "streaming snapshot @%lld: %zu torrents, %zu publishers, "
                "global distinct IPs ~%.1f (+/-%.2f%%), %llu announce obs "
                "(cms eps %.5f)\n",
                static_cast<long long>(at), torrents, publishers,
                est_distinct_ips_global, 100.0 * hll_relative_error,
                static_cast<unsigned long long>(announce_total), cms_epsilon);
  out += line;
  for (const PublisherVerdict& v : verdicts) {
    std::snprintf(
        line, sizeof line,
        "  %-16s content=%zu est_dl=%.1f %s%s%s cls=%s domain=%s "
        "seed_h=%.3f agg_h=%.3f par=%.3f obs=%llu%s\n",
        v.username.c_str(), v.content_count, v.est_downloads,
        v.fake ? (v.provisional_fake ? "FAKE?" : "FAKE") : "-",
        v.top ? " TOP" : "", v.top ? (v.hosting_provider ? "-HP" : "-CI") : "",
        v.top ? std::string(to_string(v.cls)).c_str() : "-",
        v.domain.empty() ? "-" : v.domain.c_str(), v.seeding_hours,
        v.aggregated_hours, v.parallel_torrents,
        static_cast<unsigned long long>(v.announce_observations),
        v.rate_flagged ? " RATE-FLAG" : "");
    out += line;
  }
  return out;
}

}  // namespace btpub
