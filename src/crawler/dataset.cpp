#include "crawler/dataset.hpp"

namespace btpub {

std::string_view to_string(DatasetStyle style) {
  switch (style) {
    case DatasetStyle::Mn08:
      return "mn08";
    case DatasetStyle::Pb09:
      return "pb09";
    case DatasetStyle::Pb10:
      return "pb10";
  }
  return "?";
}

}  // namespace btpub
