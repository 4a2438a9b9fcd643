#include "analysis/streaming/streaming_classifier.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <unordered_set>

#include "analysis/session.hpp"

namespace btpub {

/// The batch rule's fake-farm thresholds.
constexpr FakeDetectionConfig kFakeRule{};

StreamingClassifier::StreamingClassifier(const GeoDb& geo,
                                         const WebsiteDirectory& websites,
                                         StreamingConfig config)
    : geo_(&geo),
      websites_(&websites),
      config_(config),
      announce_rates_(kCmsWidth, kCmsDepth, kSketchSalt) {}

void StreamingClassifier::on_discover(const TorrentRecord& record, SimTime now) {
  auto slot = std::make_unique<TorrentSlot>();
  slot->id = record.portal_id;
  slot->username = record.username;
  slot->language = record.language;
  slot->finding = find_promotion(record);
  slot->publisher_ip = record.publisher_ip;
  slot->discovered_at = now;
  slot->last_observation = now;
  slots_[record.portal_id] = std::move(slot);
}

StreamingClassifier::TorrentSlot* StreamingClassifier::find_slot(
    TorrentId id) const {
  const auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : it->second.get();
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
  slot->sessions.add_sighting(now);
  if (slot->publisher_ip) announce_rates_.add(slot->publisher_ip->value());
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

  // Stable view: slots in portal-id order.
  std::vector<const TorrentSlot*> slots;
  slots.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) slots.push_back(slot.get());
  std::sort(slots.begin(), slots.end(),
            [](const TorrentSlot* a, const TorrentSlot* b) {
              return a->id < b->id;
            });
  snap.torrents = slots.size();

  // Global distinct-IP estimate: register-wise merge of the per-slot HLLs.
  HyperLogLog global(kHllPrecision, kSketchSalt);
  snap.torrent_estimates.reserve(slots.size());
  for (const TorrentSlot* slot : slots) {
    global.merge(slot->downloaders);
    snap.torrent_estimates.push_back(
        {slot->id,
         slot->downloaders.empty() ? 0.0 : slot->downloaders.estimate()});
  }
  snap.est_distinct_ips_global = global.empty() ? 0.0 : global.estimate();
  snap.hll_relative_error = global.relative_error();
  snap.cms_epsilon = announce_rates_.epsilon();
  snap.announce_total = announce_rates_.total();

  // Per-username aggregation, insertion-ordered by first portal id — the
  // same tie-break the batch ranking uses (dataset order is id order).
  struct Agg {
    std::string username;
    std::vector<const TorrentSlot*> slots;  // id-ascending
    std::vector<IpAddress> ips;             // identified publisher IPs, deduped
    bool removed_observed = false;
  };
  std::vector<Agg> aggs;
  std::unordered_map<std::string, std::size_t> agg_index;
  std::unordered_map<std::string, std::unordered_set<std::uint32_t>> seen_ips;
  for (const TorrentSlot* slot : slots) {
    if (slot->username.empty()) continue;
    auto [it, inserted] = agg_index.try_emplace(slot->username, aggs.size());
    if (inserted) {
      Agg agg;
      agg.username = slot->username;
      aggs.push_back(std::move(agg));
    }
    Agg& agg = aggs[it->second];
    agg.slots.push_back(slot);
    agg.removed_observed |= slot->removed;
    if (slot->publisher_ip &&
        seen_ips[slot->username].insert(slot->publisher_ip->value()).second) {
      agg.ips.push_back(*slot->publisher_ip);
    }
  }
  snap.publishers = aggs.size();

  const auto banned = [&](const std::string& username, bool removed) {
    const auto it = user_banned_.find(username);
    if (it != user_banned_.end() && it->second) return true;
    return provisional && removed;
  };

  // Fake detection: the exact batch farm rule over the exact
  // username <-> IP table (this state is tiny — the sketches only carry the
  // unbounded per-IP populations).
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> ip_to_aggs;
  {
    std::unordered_map<std::uint32_t, std::unordered_set<std::size_t>> dedup;
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      for (const IpAddress& ip : aggs[a].ips) {
        if (dedup[ip.value()].insert(a).second) {
          ip_to_aggs[ip.value()].push_back(a);
        }
      }
    }
  }
  std::vector<bool> fake(aggs.size(), false);
  for (const auto& [ip, members] : ip_to_aggs) {
    if (members.size() < kFakeRule.min_usernames_per_ip) continue;
    std::size_t banned_count = 0;
    for (const std::size_t a : members) {
      if (banned(aggs[a].username, aggs[a].removed_observed)) ++banned_count;
    }
    const double fraction = static_cast<double>(banned_count) /
                            static_cast<double>(members.size());
    if (fraction < kFakeRule.min_banned_fraction) continue;
    for (const std::size_t a : members) fake[a] = true;
  }
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (banned(aggs[a].username, aggs[a].removed_observed)) fake[a] = true;
  }

  // Ranking: content desc, first portal id asc (== batch dataset order).
  std::vector<std::size_t> ranked(aggs.size());
  for (std::size_t a = 0; a < ranked.size(); ++a) ranked[a] = a;
  std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
    if (aggs[a].slots.size() != aggs[b].slots.size()) {
      return aggs[a].slots.size() > aggs[b].slots.size();
    }
    return aggs[a].slots.front()->id < aggs[b].slots.front()->id;
  });

  const std::size_t cut = std::min(config_.top_n, ranked.size());
  std::vector<bool> top(aggs.size(), false);
  for (std::size_t i = 0; i < cut; ++i) {
    if (!fake[ranked[i]]) top[ranked[i]] = true;
  }

  snap.verdicts.reserve(aggs.size());
  for (const std::size_t a : ranked) {
    const Agg& agg = aggs[a];
    PublisherVerdict verdict;
    verdict.username = agg.username;
    verdict.content_count = agg.slots.size();
    verdict.fake = fake[a];
    verdict.provisional_fake =
        fake[a] && provisional && !user_banned_.contains(agg.username) &&
        agg.removed_observed;
    verdict.top = top[a];

    // Streaming download estimate + Appendix-A session metrics.
    std::size_t torrents_with_data = 0;
    double seeded_hours = 0.0;
    std::vector<Interval> all_intervals;
    for (const TorrentSlot* slot : agg.slots) {
      if (!slot->downloaders.empty()) {
        verdict.est_downloads += slot->downloaders.estimate();
      }
      if (slot->sessions.sighting_count() > 0) {
        ++torrents_with_data;
        seeded_hours += to_hours(slot->sessions.total_session_length());
        const auto intervals = slot->sessions.intervals();
        all_intervals.insert(all_intervals.end(), intervals.begin(),
                             intervals.end());
      }
    }
    if (torrents_with_data > 0) {
      verdict.seeding_hours =
          seeded_hours / static_cast<double>(torrents_with_data);
      verdict.aggregated_hours = to_hours(union_length(all_intervals));
      verdict.parallel_torrents =
          verdict.aggregated_hours > 0.0
              ? seeded_hours / verdict.aggregated_hours
              : 0.0;
    }

    // Announce-rate signal: busiest identified publisher IP vs the alert
    // threshold over this publisher's monitoring span.
    SimTime span_start = 0, span_end = 0;
    bool have_span = false;
    for (const TorrentSlot* slot : agg.slots) {
      if (!have_span) {
        span_start = slot->discovered_at;
        span_end = slot->last_observation;
        have_span = true;
      } else {
        span_start = std::min(span_start, slot->discovered_at);
        span_end = std::max(span_end, slot->last_observation);
      }
    }
    for (const IpAddress& ip : agg.ips) {
      verdict.announce_observations = std::max(
          verdict.announce_observations, announce_rates_.count(ip.value()));
    }
    const double span_hours = std::max(1.0, to_hours(span_end - span_start));
    verdict.rate_flagged =
        static_cast<double>(verdict.announce_observations) / span_hours >
        kAnnounceRateAlert;

    // Business classification for the top cut, batch-identical (unsampled):
    // first finding in portal-id order names the domain, channels OR over
    // every finding, dominant language over the full torrent list.
    if (verdict.top) {
      for (const TorrentSlot* slot : agg.slots) {
        if (!slot->finding) continue;
        if (verdict.domain.empty()) verdict.domain = slot->finding->domain;
        verdict.in_textbox |= slot->finding->in_textbox;
        verdict.in_filename |= slot->finding->in_filename;
        verdict.in_payload |= slot->finding->in_payload;
      }
      std::array<std::size_t, 6> lang_counts{};
      for (const TorrentSlot* slot : agg.slots) {
        ++lang_counts[static_cast<std::size_t>(slot->language)];
      }
      const auto max_it =
          std::max_element(lang_counts.begin(), lang_counts.end());
      if (*max_it * 2 >= verdict.content_count &&
          static_cast<Language>(max_it - lang_counts.begin()) !=
              Language::English) {
        verdict.dominant_language =
            static_cast<Language>(max_it - lang_counts.begin());
      }
      if (verdict.domain.empty()) {
        verdict.cls = BusinessClass::Altruistic;
      } else if (const auto view = websites_->visit(verdict.domain)) {
        verdict.cls = view->torrent_index ? BusinessClass::BtPortal
                                          : BusinessClass::OtherWeb;
      } else {
        verdict.cls = BusinessClass::OtherWeb;
      }

      // Top-HP vs Top-CI: majority ISP type over identified IPs; no
      // located IP defaults to CI (batch rule).
      std::size_t hosting = 0, commercial = 0;
      for (const IpAddress& ip : agg.ips) {
        const auto loc = geo_->lookup(ip);
        if (!loc) continue;
        if (loc->isp_type == IspType::HostingProvider) {
          ++hosting;
        } else {
          ++commercial;
        }
      }
      verdict.hosting_provider = (hosting + commercial) > 0 && hosting >= commercial;
    }
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
