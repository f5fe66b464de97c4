#include "oracles/forwarding_router.hpp"

namespace fairswap::overlay {

ForwardingRouter::ForwardingRouter(const Topology& topo,
                                   std::size_t max_hops) noexcept
    : topo_(&topo),
      max_hops_(max_hops == 0
                    ? static_cast<std::size_t>(topo.space().bits()) * 4
                    : max_hops) {}

Route ForwardingRouter::route(NodeIndex origin, Address target) const {
  Route r;
  route_into(origin, target, r);
  return r;
}

void ForwardingRouter::route_into(NodeIndex origin, Address target,
                                  Route& r) const {
  r.reset(target);
  r.path.push_back(origin);

  const NodeIndex storer = topo_->closest_node(target);
  NodeIndex cur = origin;
  while (cur != storer) {
    if (r.hops() >= max_hops_) {
      r.truncated = true;
      break;
    }
    const auto next = topo_->table(cur).next_hop(target);
    if (!next) break;  // local minimum: no strictly closer peer known
    const auto idx = topo_->index_of(*next);
    if (!idx) break;  // table entry outside the network: fail the route
    cur = *idx;
    r.path.push_back(cur);
  }
  r.reached_storer = (cur == storer);
}

}  // namespace fairswap::overlay
