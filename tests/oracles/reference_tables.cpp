#include "oracles/reference_tables.hpp"

#include <cstddef>
#include <set>
#include <utility>

#include "oracles/reference_sampling.hpp"

namespace fairswap::overlay {

ReferenceTopology reference_tables(const TopologyConfig& config, Rng& rng) {
  const AddressSpace space(config.address_bits);
  ReferenceTopology ref;
  std::set<AddressValue> seen;
  while (ref.addresses.size() < config.node_count) {
    const Address a{static_cast<AddressValue>(rng.next_below(space.size()))};
    if (seen.insert(a.v).second) ref.addresses.push_back(a);
  }

  const std::size_t n = ref.addresses.size();
  const auto buckets = static_cast<std::size_t>(space.bits());
  for (std::size_t i = 0; i < n; ++i) {
    const Address self = ref.addresses[i];
    std::vector<std::vector<std::size_t>> candidates(buckets);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const auto b =
          static_cast<std::size_t>(space.bucket_index(self, ref.addresses[j]));
      candidates[b].push_back(j);
    }
    RoutingTable table(space, self, config.buckets);
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::vector<std::size_t>& pool = candidates[b];
      const std::size_t capacity =
          config.buckets.capacity(static_cast<int>(b));
      for (const std::size_t p :
           reference_sample_without_replacement(rng, pool.size(), capacity)) {
        table.try_add(ref.addresses[pool[p]]);
      }
    }
    ref.tables.push_back(std::move(table));
  }
  return ref;
}

}  // namespace fairswap::overlay
