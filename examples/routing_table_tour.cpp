// A guided tour of forwarding Kademlia, reproducing the paper's worked
// example: node 91 in an 8-bit address space (Fig. 3), its prefix
// buckets, and what happens - hop by hop, payment by payment - when it
// downloads a chunk (Figs. 1 and 2).
#include <cstdio>

#include "common/rng.hpp"
#include "incentives/zero_proximity.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/topology.hpp"

int main() {
  using namespace fairswap;

  // An 8-bit address space, as in the paper's Fig. 3, with 64 nodes.
  overlay::TopologyConfig cfg;
  cfg.node_count = 64;
  cfg.address_bits = 8;
  cfg.buckets.k = 4;
  Rng rng(2022);
  const auto topo = overlay::Topology::build(cfg, rng);
  const AddressSpace& space = topo.space();

  // Pick the node closest to the paper's example id 91.
  const overlay::NodeIndex self = topo.compiled().storer_of(Address{91});
  const Address self_addr = topo.address_of(self);
  std::printf("our node: %s (%s)\n\n",
              AddressSpace::to_decimal(self_addr).c_str(),
              space.to_binary(self_addr).c_str());

  std::printf("its routing table, bucket by bucket (bucket i holds peers "
              "sharing exactly i prefix bits):\n%s\n",
              topo.table(self).render().c_str());

  // Route a download request, narrating each hop.
  const Address chunk{static_cast<AddressValue>(rng.next_below(space.size()))};
  std::printf("downloading chunk %s (%s), stored by the globally closest "
              "node %s\n\n",
              AddressSpace::to_decimal(chunk).c_str(),
              space.to_binary(chunk).c_str(),
              AddressSpace::to_decimal(
                  topo.address_of(topo.compiled().storer_of(chunk))).c_str());

  const overlay::Route route = topo.compiled().route(self, chunk);
  for (std::size_t i = 0; i < route.path.size(); ++i) {
    const Address a = topo.address_of(route.path[i]);
    std::printf("  hop %zu: node %3s  %s  (proximity to chunk: %d bits, "
                "distance: %u)\n",
                i, AddressSpace::to_decimal(a).c_str(),
                space.to_binary(a).c_str(), space.proximity(a, chunk),
                xor_distance(a, chunk));
  }
  std::printf("\nthe chunk now flows back along the same path; no relay "
              "learns who originated the request (forwarding Kademlia, "
              "Fig. 1).\n\n");

  // Who gets paid? Swarm's default: only the zero-proximity first hop.
  accounting::SwapConfig swap_cfg;
  accounting::Ledger swap(topo.compiled(), swap_cfg);
  const auto pricer = accounting::make_pricer("xor-distance");
  std::vector<std::uint8_t> no_riders;
  incentives::PolicyContext ctx{&topo, &swap, pricer.get(), &no_riders};
  incentives::ZeroProximityPolicy policy;
  policy.on_delivery(ctx, route);

  for (overlay::NodeIndex n = 0; n < topo.node_count(); ++n) {
    if (!swap.income()[n].is_zero()) {
      std::printf("paid: node %s receives %s (it served as first hop / "
                  "zero proximity)\n",
                  AddressSpace::to_decimal(topo.address_of(n)).c_str(),
                  swap.income()[n].to_string().c_str());
    }
  }
  swap.for_each_pair([&](overlay::NodeIndex lo, overlay::NodeIndex hi,
                         Token bal) {
    if (bal.is_zero()) return;
    const auto debtor = bal.negative() ? lo : hi;
    const auto creditor = bal.negative() ? hi : lo;
    std::printf("debt: node %s owes node %s %s (left to time-based "
                "amortization, Fig. 2)\n",
                AddressSpace::to_decimal(topo.address_of(debtor)).c_str(),
                AddressSpace::to_decimal(topo.address_of(creditor)).c_str(),
                bal.abs().to_string().c_str());
  });
  return 0;
}
