// Figure 3 — average number of downloaders per torrent per publisher
// (box plots across the target groups), plus the raw per-torrent
// popularity histogram with honest tail accounting.
#include "analysis/popularity.hpp"
#include "common.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace btpub;

int main(int argc, char** argv) {
  const std::size_t threads = bench::threads_from_args(argc, argv);
  ScenarioConfig pb10 = ScenarioConfig::pb10(bench::kDefaultSeed);
  pb10.threads = threads;
  bench::banner("Figure 3", "Avg downloaders per torrent per publisher",
                "top median ~7x All; Top-HP ~1.5x Top-CI; Fake least popular",
                pb10);

  const MappedDataset mapped = bench::dataset_for(pb10);
  const CompactDatasetView& view = mapped.view();
  const IspCatalog catalog = IspCatalog::standard();
  const IdentityAnalysis identity(view, catalog.db(), 100);
  Rng rng(pb10.seed);

  AsciiTable table("Figure 3 — per-publisher avg downloaders (box plots, pb10)");
  table.header({"group", "p25", "median", "p75", "publishers"});
  double all_median = 0.0, top_median = 0.0, hp_median = 0.0, ci_median = 0.0,
         fake_median = 0.0;
  for (const PopularityBox& box : popularity_panel(identity, 400, rng)) {
    table.row({std::string(to_string(box.group)), format_double(box.box.p25, 1),
               format_double(box.box.median, 1), format_double(box.box.p75, 1),
               std::to_string(box.box.count)});
    switch (box.group) {
      case TargetGroup::All:
        all_median = box.box.median;
        break;
      case TargetGroup::Fake:
        fake_median = box.box.median;
        break;
      case TargetGroup::Top:
        top_median = box.box.median;
        break;
      case TargetGroup::TopHP:
        hp_median = box.box.median;
        break;
      case TargetGroup::TopCI:
        ci_median = box.box.median;
        break;
    }
  }
  if (all_median > 0 && ci_median > 0) {
    table.note("Top/All median ratio (paper ~7x): " +
               format_double(top_median / all_median, 1) + "x");
    table.note("Top-HP/Top-CI median ratio (paper ~1.5x): " +
               format_double(hp_median / ci_median, 1) + "x");
    table.note(std::string("Fake is least popular: ") +
               (fake_median <= all_median ? "yes" : "NO"));
  }
  table.print();

  // Raw per-torrent downloader-count distribution. The histogram keeps the
  // heavy tail out of the edge bins: overflow reports how many torrents
  // exceed the plotted range instead of silently inflating the last bucket.
  Histogram histogram(0.0, 200.0, 10);
  for (const TorrentRecordPod& torrent : view.torrents) {
    histogram.add(static_cast<double>(view.downloader_count(torrent)));
  }
  AsciiTable dist("Per-torrent distinct downloaders (histogram)");
  dist.header({"range", "torrents", "fraction"});
  const double width =
      (histogram.hi - histogram.lo) / static_cast<double>(histogram.counts.size());
  for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
    const double bin_lo = histogram.lo + width * static_cast<double>(i);
    std::string range = "[";
    range += format_double(bin_lo, 0);
    range += ", ";
    range += format_double(bin_lo + width, 0);
    range += ")";
    dist.row({range,
              std::to_string(histogram.counts[i]),
              format_double(histogram.fraction(i) * 100.0, 1) + "%"});
  }
  dist.note("in range " + std::to_string(histogram.total()) + " / observed " +
            std::to_string(histogram.observed()) + "; overflow (>200 dl): " +
            std::to_string(histogram.overflow) + ", underflow: " +
            std::to_string(histogram.underflow));
  dist.print();
  return 0;
}
