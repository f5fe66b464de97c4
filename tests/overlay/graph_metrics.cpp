#include "graph_metrics.hpp"

#include <queue>

#include "overlay/compiled_router.hpp"

namespace fairswap::overlay {

RoutingQuality measure_routing(const Topology& topo, Rng& rng,
                               std::size_t samples) {
  RoutingQuality q;
  const CompiledRouter& router = topo.compiled();
  for (std::size_t s = 0; s < samples; ++s) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address target{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const Route r = router.route(origin, target);
    ++q.samples;
    if (r.reached_storer) ++q.reached;
    if (r.truncated) ++q.truncated;
    q.hop_stats.add(static_cast<double>(r.hops()));
    if (q.hop_histogram.size() <= r.hops()) {
      q.hop_histogram.resize(r.hops() + 1, 0);
    }
    ++q.hop_histogram[r.hops()];
  }
  return q;
}

std::vector<double> bucket_fill(const Topology& topo) {
  const int buckets = topo.space().bits();
  std::vector<double> fill(static_cast<std::size_t>(buckets), 0.0);
  if (topo.node_count() == 0) return fill;
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    const auto& table = topo.table(n);
    for (int b = 0; b < buckets; ++b) {
      const auto cap = static_cast<double>(table.policy().capacity(b));
      fill[static_cast<std::size_t>(b)] +=
          cap > 0 ? static_cast<double>(table.bucket_size(b)) / cap : 0.0;
    }
  }
  for (auto& f : fill) f /= static_cast<double>(topo.node_count());
  return fill;
}

double reachability(const Topology& topo) {
  const std::size_t n = topo.node_count();
  if (n < 2) return 1.0;
  std::size_t reachable_pairs = 0;
  std::vector<char> seen(n);
  for (NodeIndex start = 0; start < n; ++start) {
    std::fill(seen.begin(), seen.end(), 0);
    seen[start] = 1;
    std::queue<NodeIndex> frontier;
    frontier.push(start);
    std::size_t found = 0;
    while (!frontier.empty()) {
      const NodeIndex cur = frontier.front();
      frontier.pop();
      for (const Address peer : topo.table(cur).all_peers()) {
        const NodeIndex p = *topo.index_of(peer);
        if (!seen[p]) {
          seen[p] = 1;
          ++found;
          frontier.push(p);
        }
      }
    }
    reachable_pairs += found;
  }
  return static_cast<double>(reachable_pairs) /
         static_cast<double>(n * (n - 1));
}

}  // namespace fairswap::overlay
