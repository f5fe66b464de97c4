#include "oracles/forwarding_router.hpp"

namespace fairswap::overlay {

ForwardingRouter::ForwardingRouter(const Topology& topo, std::size_t max_hops)
    : max_hops_(max_hops == 0
                    ? static_cast<std::size_t>(topo.space().bits()) * 4
                    : max_hops),
      closest_(topo.space(), topo.addresses()) {
  tables_.reserve(topo.node_count());
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    index_.emplace(topo.address_of(i), i);
    tables_.push_back(topo.table(i));
  }
}

std::optional<NodeIndex> ForwardingRouter::index_of(Address a) const {
  const auto it = index_.find(a);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Route ForwardingRouter::route(NodeIndex origin, Address target) const {
  Route r;
  route_into(origin, target, r);
  return r;
}

void ForwardingRouter::route_into(NodeIndex origin, Address target,
                                  Route& r) const {
  r.reset(target);
  r.path.push_back(origin);

  const NodeIndex storer = storer_of(target);
  NodeIndex cur = origin;
  while (cur != storer) {
    if (r.hops() >= max_hops_) {
      r.truncated = true;
      break;
    }
    const auto next = tables_[cur].next_hop(target);
    if (!next) break;  // local minimum: no strictly closer peer known
    const auto idx = index_of(*next);
    if (!idx) break;  // table entry outside the network: fail the route
    cur = *idx;
    r.path.push_back(cur);
  }
  r.reached_storer = (cur == storer);
}

}  // namespace fairswap::overlay
