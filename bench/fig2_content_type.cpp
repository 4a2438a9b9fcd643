// Figure 2 — type of content published by each target group
// (All / Fake / Top / Top-HP / Top-CI).
#include "analysis/content_type.hpp"
#include "common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  ScenarioConfig pb10 = ScenarioConfig::pb10(bench::kDefaultSeed);
  pb10.threads = threads;
  bench::banner("Figure 2", "Content-type mix per target group",
                "video dominates everywhere (37-51% for All, larger for Top-HP);"
                " fake publishers concentrate on video + software",
                pb10);

  const MappedDataset mapped = bench::dataset_for(pb10);
  const CompactDatasetView& view = mapped.view();
  const IspCatalog catalog = IspCatalog::standard();
  const IdentityAnalysis identity(view, catalog.db(), 100);

  AsciiTable table("Figure 2 — content type fractions per group (pb10)");
  std::vector<std::string> header{"group"};
  for (const CoarseCategory c : kAllCoarseCategories) {
    header.emplace_back(to_string(c));
  }
  header.push_back("n");
  table.header(std::move(header));
  for (const ContentTypeMix& mix : content_type_panel(view, identity)) {
    std::vector<std::string> row{std::string(to_string(mix.group))};
    for (const CoarseCategory c : kAllCoarseCategories) {
      row.push_back(percent(mix.of(c)));
    }
    row.push_back(std::to_string(mix.contents));
    table.row(std::move(row));
  }
  table.note("shape to match: Video largest everywhere; Fake skews to Video");
  table.note("and Software (antipiracy decoys + malware); Top-CI (altruistic-");
  table.note("heavy) carries more Audio/Books than Top-HP.");
  table.print();
  return 0;
}
