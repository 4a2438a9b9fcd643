// content_type.hpp — content-type mix per target group (paper §4.1,
// Figure 2).
#pragma once

#include <array>

#include "analysis/groups.hpp"
#include "portal/category.hpp"

namespace btpub {

/// Fraction of a group's published content per coarse category (Video,
/// Audio, Games, Software, Books, Other). Fractions sum to 1 for a
/// non-empty group.
struct ContentTypeMix {
  TargetGroup group = TargetGroup::All;
  std::array<double, 6> fractions{};  // indexed by CoarseCategory
  std::size_t contents = 0;

  double of(CoarseCategory c) const {
    return fractions[static_cast<std::size_t>(c)];
  }
};

ContentTypeMix content_type_mix(const CompactDatasetView& view,
                                const IdentityAnalysis& identity,
                                TargetGroup group);

/// All five groups at once (the full Figure 2 panel).
std::vector<ContentTypeMix> content_type_panel(const CompactDatasetView& view,
                                               const IdentityAnalysis& identity);

}  // namespace btpub
