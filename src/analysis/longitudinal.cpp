#include "analysis/longitudinal.hpp"

#include <algorithm>

namespace btpub {

std::vector<PublisherHistory> publisher_histories(
    const CompactDatasetView& view, const ClassificationResult& classification) {
  std::vector<PublisherHistory> histories;
  for (const PublisherProfile& profile : classification.profiles) {
    const UserPagePod* page = view.find_user(profile.username);
    if (page == nullptr || page->publish_times.size() == 0) continue;
    const auto times = view.publish_times_of(*page);
    PublisherHistory history;
    history.username = profile.username;
    history.cls = profile.cls;
    history.total_published = times.size();
    history.lifetime_days =
        std::max(to_days(times.back() - times.front()), 1.0);
    history.publish_rate =
        static_cast<double>(times.size()) / history.lifetime_days;
    histories.push_back(std::move(history));
  }
  return histories;
}

std::vector<LongitudinalRow> longitudinal_table(
    const CompactDatasetView& view, const ClassificationResult& classification) {
  const auto histories = publisher_histories(view, classification);
  std::vector<LongitudinalRow> rows;
  for (const BusinessClass cls :
       {BusinessClass::BtPortal, BusinessClass::OtherWeb, BusinessClass::Altruistic}) {
    std::vector<double> lifetimes, rates;
    for (const PublisherHistory& h : histories) {
      if (h.cls != cls) continue;
      lifetimes.push_back(h.lifetime_days);
      rates.push_back(h.publish_rate);
    }
    LongitudinalRow row;
    row.cls = cls;
    row.publishers = lifetimes.size();
    row.lifetime_days = summary_row(lifetimes);
    row.publish_rate = summary_row(rates);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace btpub
