// Table 5 — publishers' website value, daily income and daily visits per
// profit-driven class, estimated by averaging six monitoring services; plus
// the §5.1 class shares the income rides on.
#include "analysis/classify.hpp"
#include "analysis/income.hpp"
#include "common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  ScenarioConfig pb10 = ScenarioConfig::pb10(bench::kDefaultSeed);
  pb10.threads = threads;
  bench::banner("Table 5", "Promoting-website economics per class",
                "BT Portals value 1K/33K/313K/2.8M USD, income 1/55/440/3.7K "
                "USD/day, visits 74/21K/174K/1.4M; Other Webs slightly lower "
                "(min/median/avg/max)",
                pb10);

  auto ecosystem = bench::build_ecosystem(pb10);
  const MappedDataset mapped = bench::dataset_for(pb10, *ecosystem);
  const CompactDatasetView& view = mapped.view();
  const IdentityAnalysis identity(view, ecosystem->geo(), 100);
  Rng rng(pb10.seed);
  const auto classification = classify_top_publishers(
      view, identity, ecosystem->websites(), 5, rng);

  // §5.1 class shares first (the business the incomes ride on).
  AsciiTable shares("§5.1 — class shares among top publishers (paper: "
                    "BT Portals 26% of top with 18%/29% content/downloads; "
                    "Other Webs 24% with 8%/11%; Altruistic 52% with "
                    "11.5%/11.5%)");
  shares.header({"class", "publishers", "content share", "download share"});
  for (const auto& share :
       classification.shares(identity.total_content(), identity.total_downloads())) {
    shares.row({std::string(to_string(share.cls)),
                std::to_string(share.publishers), percent(share.content),
                percent(share.downloads)});
  }
  shares.print();

  AsciiTable table("Table 5 — appraisal-panel estimates (min/median/avg/max)");
  table.header({"class", "value ($)", "daily income ($)", "daily visits",
                "sites"});
  for (const IncomeRow& row :
       income_table(classification, ecosystem->websites(),
                    ecosystem->appraisal_panel())) {
    auto fmt = [](const SummaryRow& s) {
      return humanize(s.min) + " / " + humanize(s.median) + " / " +
             humanize(s.avg) + " / " + humanize(s.max);
    };
    table.row({std::string(to_string(row.cls)), fmt(row.value_usd),
               fmt(row.daily_income_usd), fmt(row.daily_visits),
               std::to_string(row.sites)});
  }
  table.note("shape to match: median site worth tens of thousands of dollars");
  table.note("with tens of thousands of daily visits; heavy tail reaching");
  table.note("into the millions; averages far above medians.");
  table.print();

  // Language specialisation (§5.1's Spanish-content finding).
  std::size_t portal_publishers = 0, language_specific = 0, spanish = 0;
  for (const PublisherProfile& p : classification.profiles) {
    if (p.cls != BusinessClass::BtPortal) continue;
    ++portal_publishers;
    if (p.dominant_language) {
      ++language_specific;
      if (*p.dominant_language == Language::Spanish) ++spanish;
    }
  }
  std::printf("  BT-Portal language specialisation (paper: 40%% language-"
              "specific, 66%% of those Spanish): %zu/%zu specific, %zu Spanish\n\n",
              language_specific, portal_publishers, spanish);
  return 0;
}
