// Ablation — the fake-publisher detection rule (§3.3). A publisher IP is
// called a farm when it published under at least `min_usernames` accounts
// of which at least `banned_fraction` were banned by moderation. This
// harness sweeps both thresholds against generator ground truth and also
// isolates the contribution of each signal (IP fan-out vs moderation bans).
#include <cstdio>

#include "analysis/groups.hpp"
#include "common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

namespace {

struct Quality {
  double precision = 0.0;
  double recall = 0.0;
  std::size_t flagged = 0;
};

Quality score(const Ecosystem& ecosystem, const CompactDatasetView& view,
              const FakeDetectionConfig& config) {
  const IdentityAnalysis identity(view, ecosystem.geo(), 40, config);
  std::size_t tp = 0, fp = 0, fn = 0;
  for (const UsernameStats& stats : identity.usernames()) {
    const auto owner =
        ecosystem.population().owner_of_username.at(stats.username);
    const bool truly_fake = is_fake(ecosystem.population().by_id(owner).cls);
    const bool flagged = identity.is_fake(stats.username);
    tp += truly_fake && flagged;
    fp += !truly_fake && flagged;
    fn += truly_fake && !flagged;
  }
  Quality q;
  q.flagged = tp + fp;
  q.precision = tp + fp ? static_cast<double>(tp) / (tp + fp) : 1.0;
  q.recall = tp + fn ? static_cast<double>(tp) / (tp + fn) : 1.0;
  return q;
}

}  // namespace

int main() {
  const ScenarioConfig scenario = ScenarioConfig::quick(bench::kDefaultSeed);
  bench::banner("Ablation", "Fake-farm detection thresholds",
                "the paper labels an IP a fake farm when many usernames map "
                "to it and the portal keeps banning them (footnote 3)",
                scenario);

  Ecosystem ecosystem(scenario);
  ecosystem.build();
  const CompactDataset dataset = compact_dataset(ecosystem.crawl());

  AsciiTable grid("Precision / recall over the threshold grid");
  grid.header({"min usernames/IP", "banned fraction", "flagged", "precision",
               "recall"});
  for (const std::size_t min_users : {2u, 3u, 5u, 8u}) {
    for (const double banned : {0.0, 0.3, 0.5, 0.9}) {
      FakeDetectionConfig config;
      config.min_usernames_per_ip = min_users;
      config.min_banned_fraction = banned;
      const Quality q = score(ecosystem, dataset.view(), config);
      grid.row({std::to_string(min_users), format_double(banned, 1),
                std::to_string(q.flagged), percent(q.precision),
                percent(q.recall)});
    }
    grid.separator();
  }
  grid.note("the ban signal dominates: since moderation (eventually) removes");
  grid.note("every fake account, recall stays high across the grid, while");
  grid.note("requiring banned usernames keeps shared NATs/universities from");
  grid.note("being misread as farms (precision).");
  grid.print();

  // With leaky moderation (the realistic case the paper hints at: the
  // portals' cleanup "does not seem to be enough effective"), the ban
  // signal becomes incomplete and the thresholds start to matter.
  ScenarioConfig leaky = scenario;
  leaky.moderation_miss_probability = 0.5;
  Ecosystem leaky_eco(leaky);
  leaky_eco.build();
  const CompactDataset leaky_ds = compact_dataset(leaky_eco.crawl());
  AsciiTable leaky_grid(
      "Same grid with moderation missing half of the fake listings");
  leaky_grid.header({"min usernames/IP", "banned fraction", "flagged",
                     "precision", "recall"});
  for (const std::size_t min_users : {2u, 3u, 5u, 8u}) {
    for (const double banned : {0.0, 0.3, 0.5, 0.9}) {
      FakeDetectionConfig config;
      config.min_usernames_per_ip = min_users;
      config.min_banned_fraction = banned;
      const Quality q = score(leaky_eco, leaky_ds.view(), config);
      leaky_grid.row({std::to_string(min_users), format_double(banned, 1),
                      std::to_string(q.flagged), percent(q.precision),
                      percent(q.recall)});
    }
    leaky_grid.separator();
  }
  leaky_grid.note("once bans are incomplete, recall hinges on the IP fan-out");
  leaky_grid.note("rule: demanding too many usernames per IP or too high a");
  leaky_grid.note("banned fraction starts missing farms.");
  leaky_grid.print();

  // Signal isolation: fan-out only (banned fraction 0) on the IP rule vs
  // the full rule. The ban-based username rule is always active, so to see
  // the IP rule alone we compare flagged *IPs*.
  AsciiTable signals("Fake-farm IPs flagged per signal");
  signals.header({"rule", "farm IPs flagged"});
  for (const auto& [label, banned] :
       std::initializer_list<std::pair<const char*, double>>{
           {"fan-out only (>=3 usernames)", 0.0},
           {"fan-out + half banned (paper)", 0.5},
           {"fan-out + all banned", 1.0}}) {
    FakeDetectionConfig config;
    config.min_banned_fraction = banned;
    const IdentityAnalysis identity(dataset.view(), ecosystem.geo(), 40, config);
    signals.row({label, std::to_string(identity.fake_ips().size())});
  }
  signals.print();
  return 0;
}
