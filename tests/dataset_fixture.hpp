// Shared base for analysis test fixtures: a test builds dataset_ record by
// record, then hands view() to the pass under test.
#pragma once

#include "crawler/compact_dataset.hpp"

#include <gtest/gtest.h>

namespace btpub {

class DatasetFixture : public ::testing::Test {
 protected:
  /// dataset_ in the analysis layer's input form, re-compacted on each
  /// call so it reflects every edit made so far. Valid until the next call.
  CompactDatasetView view() {
    compact_ = compact_dataset(dataset_);
    return compact_.view();
  }

  Dataset dataset_;

 private:
  CompactDataset compact_;
};

}  // namespace btpub
