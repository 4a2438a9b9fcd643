// Figure 4 — seeding behaviour per target group: (a) average seeding time,
// (b) average number of parallel seeded torrents, (c) aggregated session
// time. Uses the "signature" scenario: full-scale publishing *rates* with
// a reduced head-count, because per-publisher temporal density is exactly
// what these metrics measure.
#include "analysis/session.hpp"
#include "common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  ScenarioConfig config = ScenarioConfig::signature(bench::kDefaultSeed);
  config.threads = threads;
  bench::banner("Figure 4", "Seeding behaviour per target group",
                "(a) fake longest, Top-HP > Top-CI, top 'a few hours'; "
                "(b) top ~3 parallel torrents, fake many, regular ~1; "
                "(c) fake longest sessions, top ~10x standard users",
                config);

  const MappedDataset mapped = bench::dataset_for(config);
  const CompactDatasetView& view = mapped.view();
  const IspCatalog catalog = IspCatalog::standard();
  const IdentityAnalysis identity(view, catalog.db(), 60);
  Rng rng(config.seed);

  const auto panel = seeding_panel(view, identity, 400, rng);

  AsciiTable a("Figure 4(a) — avg seeding time per torrent (hours)");
  a.header({"group", "p25", "median", "p75", "publishers"});
  AsciiTable b("Figure 4(b) — avg parallel seeded torrents");
  b.header({"group", "p25", "median", "p75"});
  AsciiTable c("Figure 4(c) — aggregated session time (hours)");
  c.header({"group", "p25", "median", "p75"});
  double all_agg = 0.0, top_agg = 0.0;
  for (const SeedingBox& box : panel) {
    const std::string group(to_string(box.group));
    a.row({group, format_double(box.seeding_time_hours.p25, 1),
           format_double(box.seeding_time_hours.median, 1),
           format_double(box.seeding_time_hours.p75, 1),
           std::to_string(box.publishers)});
    b.row({group, format_double(box.parallel_torrents.p25, 2),
           format_double(box.parallel_torrents.median, 2),
           format_double(box.parallel_torrents.p75, 2)});
    c.row({group, format_double(box.aggregated_session_hours.p25, 1),
           format_double(box.aggregated_session_hours.median, 1),
           format_double(box.aggregated_session_hours.p75, 1)});
    if (box.group == TargetGroup::All) all_agg = box.aggregated_session_hours.median;
    if (box.group == TargetGroup::Top) top_agg = box.aggregated_session_hours.median;
  }
  a.print();
  b.print();
  c.print();
  if (all_agg > 0) {
    std::printf("  Top/All aggregated-session ratio (paper ~10x): %.1fx\n\n",
                top_agg / all_agg);
  }
  return 0;
}
