// isp_catalog.hpp — builds the synthetic Internet the ecosystem lives in.
//
// The catalog registers the ISPs that actually appear in the paper's
// Tables 2 and 3 (OVH, Comcast, tzulo, FDCservers, 4RWEB, SoftLayer, ...)
// plus a long tail of generic eyeball ISPs, and carves /16 blocks for each
// with the structural contrast the paper measures:
//   * hosting providers: few /16s, one or two data-center cities;
//   * commercial ISPs: many /16s scattered over many cities.
// It also provides IP allocation policies: stable server addresses for
// rented boxes and churning residential addresses for home users.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geo/geo_db.hpp"
#include "net/ip.hpp"
#include "util/rng.hpp"

namespace btpub {

/// Allocation handle for one ISP's address space.
class IpPool {
 public:
  IpPool() = default;
  IpPool(IspId isp, std::vector<CidrBlock> blocks);

  IspId isp() const noexcept { return isp_; }
  const std::vector<CidrBlock>& blocks() const noexcept { return blocks_; }

  /// A stable server address: sequential allocation from the first blocks,
  /// so a hosting customer keeps one address for its lifetime and servers
  /// cluster into few /16s. Distinct across calls.
  IpAddress allocate_server();

  /// A residential address: uniform over all blocks. Dynamic-IP churn is
  /// modelled by calling this again for the same user.
  IpAddress random_residential(Rng& rng) const;

 private:
  IspId isp_ = kUnknownIsp;
  std::vector<CidrBlock> blocks_;
  std::uint64_t next_server_offset_ = 1;  // skip .0
};

/// The assembled synthetic Internet.
class IspCatalog {
 public:
  /// Builds the standard catalog used by all experiments. `extra_isps` adds
  /// generic eyeball ISPs for the downloader long tail.
  static IspCatalog standard(std::size_t extra_isps = 40);

  const GeoDb& db() const noexcept { return db_; }

  /// Pool for a named ISP; throws std::out_of_range when absent.
  IpPool& pool(std::string_view isp_name);
  const IpPool& pool(std::string_view isp_name) const;

  /// All hosting-provider pools (for random placement).
  const std::vector<std::string>& hosting_names() const noexcept { return hosting_names_; }
  /// Generic eyeball ISPs for the downloader population.
  const std::vector<std::string>& eyeball_names() const noexcept { return eyeball_names_; }

 private:
  /// Registers one ISP and carves `n_blocks` /16s over `n_cities` cities.
  void add(const std::string& name, IspType type, const std::string& country,
           std::size_t n_blocks, std::size_t n_cities,
           const std::vector<std::string>& city_names = {});

  GeoDb db_;
  std::vector<IpPool> pools_;
  /// Hashes a std::string and a std::string_view alike, so pool() finds a
  /// name without copying it.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
      pool_index_;
  std::vector<std::string> hosting_names_;
  std::vector<std::string> eyeball_names_;
  std::uint32_t next_slash16_ = (20u << 8);  // start carving at 20.0.0.0/16
};

}  // namespace btpub
