#include "net/ip.hpp"

#include <cassert>
#include <charconv>

#include "util/strings.hpp"

namespace btpub {

std::string IpAddress::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (value_ >> 24) & 0xff,
                (value_ >> 16) & 0xff, (value_ >> 8) & 0xff, value_ & 0xff);
  return buf;
}

std::optional<IpAddress> IpAddress::parse(std::string_view text) {
  const auto parts = split_views(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const std::string_view part : parts) {
    if (part.empty() || part.size() > 3) return std::nullopt;
    unsigned octet = 0;
    const auto res = std::from_chars(part.data(), part.data() + part.size(), octet);
    if (res.ec != std::errc{} || res.ptr != part.data() + part.size() || octet > 255) {
      return std::nullopt;
    }
    value = (value << 8) | octet;
  }
  return IpAddress(value);
}

CidrBlock::CidrBlock(IpAddress base, int len) : len_(len) {
  assert(len >= 0 && len <= 32);
  const std::uint32_t mask =
      len == 0 ? 0u : (~std::uint32_t{0}) << (32 - len);
  base_ = IpAddress(base.value() & mask);
}

std::uint64_t CidrBlock::size() const noexcept {
  return std::uint64_t{1} << (32 - len_);
}

IpAddress CidrBlock::at(std::uint64_t offset) const noexcept {
  assert(offset < size());
  return IpAddress(base_.value() + static_cast<std::uint32_t>(offset));
}

}  // namespace btpub
