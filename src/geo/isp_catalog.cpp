#include "geo/isp_catalog.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace btpub {

IpPool::IpPool(IspId isp, std::vector<CidrBlock> blocks)
    : isp_(isp), blocks_(std::move(blocks)) {}

IpAddress IpPool::allocate_server() {
  assert(!blocks_.empty());
  // Stripe across the provider's blocks: racks live in every data centre,
  // so rented servers span all of its /16s and cities (the contrast
  // Table 3 measures against residential ISPs).
  const std::uint64_t index = next_server_offset_++;
  const CidrBlock& block = blocks_[index % blocks_.size()];
  const std::uint64_t offset = 1 + index / blocks_.size();
  if (offset >= block.size()) {
    throw std::runtime_error("IpPool: server address space exhausted");
  }
  return block.at(offset);
}

IpAddress IpPool::random_residential(Rng& rng) const {
  assert(!blocks_.empty());
  const CidrBlock& block = blocks_[rng.index(blocks_.size())];
  // Skip network/broadcast-looking offsets for cosmetic realism.
  const auto offset = static_cast<std::uint64_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(block.size()) - 2));
  return block.at(offset);
}

void IspCatalog::add(const std::string& name, IspType type,
                     const std::string& country, std::size_t n_blocks,
                     std::size_t n_cities,
                     const std::vector<std::string>& city_names) {
  assert(n_blocks > 0 && n_cities > 0);
  const IspId id = db_.add_isp(name, type, country);
  std::vector<CidrBlock> blocks;
  blocks.reserve(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const CidrBlock block(IpAddress(next_slash16_ << 16), 16);
    ++next_slash16_;
    std::string city;
    if (i < city_names.size()) {
      city = city_names[i % city_names.size()];
    } else if (!city_names.empty()) {
      city = city_names[i % city_names.size()];
    } else {
      city = name + "-city-" + std::to_string(i % n_cities);
    }
    // When fewer named cities than blocks, cycle; when more cities than
    // blocks requested, n_cities governs the synthetic names above.
    db_.add_block(block, id, std::move(city));
    blocks.push_back(block);
  }
  pool_index_.emplace(name, pools_.size());
  pools_.emplace_back(id, std::move(blocks));
  if (type == IspType::HostingProvider) hosting_names_.push_back(name);
}

IspCatalog IspCatalog::standard(std::size_t extra_isps) {
  IspCatalog cat;
  // --- Hosting providers (paper: Table 2/3 actors). Few /16s, data-center
  // cities only. OVH is deliberately the largest, with its European DCs.
  cat.add("OVH", IspType::HostingProvider, "FR", 7, 4,
          {"Roubaix", "Paris", "Gravelines", "Strasbourg", "Roubaix", "Roubaix",
           "Paris"});
  cat.add("SoftLayer Tech.", IspType::HostingProvider, "US", 8, 3,
          {"Dallas", "Seattle", "Washington"});
  cat.add("FDCservers", IspType::HostingProvider, "US", 4, 2, {"Chicago", "Denver"});
  cat.add("tzulo", IspType::HostingProvider, "US", 3, 2, {"Chicago", "Los Angeles"});
  cat.add("4RWEB", IspType::HostingProvider, "RU", 3, 2, {"Moscow", "Moscow"});
  cat.add("Keyweb", IspType::HostingProvider, "DE", 3, 1, {"Erfurt"});
  cat.add("NetDirect", IspType::HostingProvider, "DE", 3, 2, {"Frankfurt", "Berlin"});
  cat.add("NetWork Operations Center", IspType::HostingProvider, "US", 4, 2,
          {"Scranton", "Philadelphia"});
  cat.add("LeaseWeb", IspType::HostingProvider, "NL", 4, 2, {"Amsterdam", "Haarlem"});

  // --- Commercial / eyeball ISPs. Many /16s, many cities.
  cat.add("Comcast", IspType::CommercialIsp, "US", 300, 400);
  cat.add("Road Runner", IspType::CommercialIsp, "US", 200, 250);
  cat.add("Virgin Media", IspType::CommercialIsp, "GB", 120, 150);
  cat.add("SBC", IspType::CommercialIsp, "US", 150, 200);
  cat.add("Verizon", IspType::CommercialIsp, "US", 200, 250);
  cat.add("Telefonica", IspType::CommercialIsp, "ES", 150, 180);
  cat.add("Jazz Telecom.", IspType::CommercialIsp, "ES", 60, 80);
  cat.add("Open Computer Network", IspType::CommercialIsp, "JP", 100, 120);
  cat.add("Telecom Italia", IspType::CommercialIsp, "IT", 140, 160);
  cat.add("Romania DS", IspType::CommercialIsp, "RO", 50, 60);
  cat.add("MTT Network", IspType::CommercialIsp, "RU", 40, 50);
  cat.add("NIB", IspType::CommercialIsp, "DK", 30, 40);
  cat.add("Cosema", IspType::CommercialIsp, "SE", 20, 30);
  cat.add("Comcor-TV", IspType::CommercialIsp, "RU", 30, 40);

  // --- Long tail of eyeball ISPs for the download population.
  static constexpr const char* kCountries[] = {"US", "GB", "DE", "FR", "ES", "IT",
                                               "NL", "SE", "PL", "BR", "CA", "AU",
                                               "JP", "KR", "IN", "RU"};
  for (std::size_t i = 0; i < extra_isps; ++i) {
    const std::string name = "EyeballNet-" + std::to_string(i);
    const std::string country = kCountries[i % std::size(kCountries)];
    cat.add(name, IspType::CommercialIsp, country, 12, 20);
    cat.eyeball_names_.push_back(name);
  }
  // The named commercial ISPs also serve downloaders.
  for (const auto& name : {"Comcast", "Road Runner", "Virgin Media", "SBC",
                           "Verizon", "Telefonica", "Jazz Telecom.",
                           "Open Computer Network", "Telecom Italia",
                           "Romania DS", "MTT Network", "NIB", "Cosema",
                           "Comcor-TV"}) {
    cat.eyeball_names_.emplace_back(name);
  }
  return cat;
}

IpPool& IspCatalog::pool(std::string_view isp_name) {
  return const_cast<IpPool&>(std::as_const(*this).pool(isp_name));
}

const IpPool& IspCatalog::pool(std::string_view isp_name) const {
  const auto it = pool_index_.find(isp_name);
  if (it == pool_index_.end()) {
    throw std::out_of_range("IspCatalog: unknown ISP '" + std::string(isp_name) + "'");
  }
  return pools_[it->second];
}

}  // namespace btpub
