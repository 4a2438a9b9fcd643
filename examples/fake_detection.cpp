// fake_detection — the poisoning-index-attack study (§3.3 / §5):
// detect fake publishers from the username<->IP mapping plus moderation
// signals, quantify the attack (content/download shares, affected users),
// validate the detector against generator ground truth, and "download" a
// few suspicious files the way the authors did to see what the payloads
// really are.
//
// Build & run:   ./build/examples/fake_detection [seed]
#include <cstdio>
#include <cstdlib>

#include "analysis/groups.hpp"
#include "core/ecosystem.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  Ecosystem ecosystem(ScenarioConfig::quick(seed));
  ecosystem.build();
  const Dataset dataset = ecosystem.crawl();
  const CompactDataset compact = compact_dataset(dataset);
  const IdentityAnalysis identity(compact.view(), ecosystem.geo(), 40);

  // --- The attack, as measured from observations only. ---
  const auto fake = identity.share_of(TargetGroup::Fake);
  std::size_t fake_downloads = 0;
  for (const UsernameStats* stats : identity.members(TargetGroup::Fake)) {
    fake_downloads += stats->download_count;
  }
  AsciiTable attack("Poisoning index attack (paper: 30% of content, 25% of "
                    "downloads, millions of victims)");
  attack.header({"fake usernames", "fake farm IPs", "content share",
                 "download share", "download attempts"});
  attack.row({std::to_string(identity.fake_usernames().size()),
              std::to_string(identity.fake_ips().size()),
              percent(fake.content), percent(fake.downloads),
              std::to_string(fake_downloads)});
  const auto breakdown = identity.top_ip_breakdown();
  attack.note("of the top-" + std::to_string(breakdown.considered) +
              " publisher IPs, " + std::to_string(breakdown.multi_username) +
              " map to many usernames (farm pattern; paper: 45%).");
  attack.print();

  // --- Validation against ground truth. ---
  std::size_t tp = 0, fp = 0, fn = 0;
  for (const UsernameStats& stats : identity.usernames()) {
    const auto owner = ecosystem.population().owner_of_username.at(stats.username);
    const bool truly_fake = is_fake(ecosystem.population().by_id(owner).cls);
    const bool flagged = identity.is_fake(stats.username);
    tp += truly_fake && flagged;
    fp += !truly_fake && flagged;
    fn += truly_fake && !flagged;
  }
  AsciiTable validation("Detector vs ground truth");
  validation.header({"true positives", "false positives", "false negatives",
                     "precision", "recall"});
  validation.row(
      {std::to_string(tp), std::to_string(fp), std::to_string(fn),
       percent(tp + fp ? static_cast<double>(tp) / (tp + fp) : 0.0),
       percent(tp + fn ? static_cast<double>(tp) / (tp + fn) : 0.0)});
  validation.print();

  // --- Download a few suspicious files, as the authors did (§5). ---
  // First the paper's experience: weeks after the crawl, virtually every
  // fake listing is already gone. Then the lucky case: fetching right after
  // discovery, before moderation catches up, reveals the payloads.
  std::size_t gone_later = 0, fake_total = 0;
  const SimTime later = dataset.window_end + days(20);
  for (std::size_t i = 0; i < dataset.torrent_count(); ++i) {
    const TorrentRecord& record = dataset.torrents[i];
    if (!identity.is_fake(record.username)) continue;
    ++fake_total;
    if (!ecosystem.portal().download_payload(record.portal_id, later)) {
      ++gone_later;
    }
  }
  std::printf("Weeks after the crawl, %zu/%zu fake listings are already "
              "removed (the paper: 'in most of the cases the content was "
              "not available anymore').\n",
              gone_later, fake_total);

  std::printf("Downloading a sample right after discovery instead...\n");
  std::size_t attempted = 0, gone = 0, antipiracy = 0, malware = 0;
  for (std::size_t i = 0;
       i < dataset.torrent_count() && attempted < 12; ++i) {
    const TorrentRecord& record = dataset.torrents[i];
    if (!identity.is_fake(record.username)) continue;
    ++attempted;
    const auto payload = ecosystem.portal().download_payload(
        record.portal_id, record.first_seen + hours(2));
    if (!payload) {
      ++gone;
      continue;
    }
    switch (*payload) {
      case PayloadKind::FakeAntipiracy:
        ++antipiracy;
        std::printf("  %-44.44s -> broken copy with anti-piracy banners\n",
                    record.title.c_str());
        break;
      case PayloadKind::FakeMalware:
        ++malware;
        std::printf("  %-44.44s -> video pointing at a malware 'player'\n",
                    record.title.c_str());
        break;
      case PayloadKind::Genuine:
        std::printf("  %-44.44s -> genuine content (false positive!)\n",
                    record.title.c_str());
        break;
    }
  }
  std::printf("  attempted %zu downloads: %zu already removed, %zu antipiracy "
              "decoys, %zu malware lures\n",
              attempted, gone, antipiracy, malware);
  return 0;
}
