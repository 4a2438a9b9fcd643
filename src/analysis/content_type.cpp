#include "analysis/content_type.hpp"

namespace btpub {

ContentTypeMix content_type_mix(const CompactDatasetView& view,
                                const IdentityAnalysis& identity,
                                TargetGroup group) {
  ContentTypeMix mix;
  mix.group = group;
  for (const UsernameStats* stats : identity.members(group)) {
    for (const std::size_t index : stats->torrents) {
      const auto coarse_cat =
          coarse(static_cast<ContentCategory>(view.torrents[index].category));
      mix.fractions[static_cast<std::size_t>(coarse_cat)] += 1.0;
      ++mix.contents;
    }
  }
  if (mix.contents > 0) {
    for (double& f : mix.fractions) f /= static_cast<double>(mix.contents);
  }
  return mix;
}

std::vector<ContentTypeMix> content_type_panel(const CompactDatasetView& view,
                                               const IdentityAnalysis& identity) {
  std::vector<ContentTypeMix> panel;
  for (const TargetGroup group :
       {TargetGroup::All, TargetGroup::Fake, TargetGroup::Top, TargetGroup::TopHP,
        TargetGroup::TopCI}) {
    panel.push_back(content_type_mix(view, identity, group));
  }
  return panel;
}

}  // namespace btpub
