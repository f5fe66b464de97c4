#include "agents/dynamics.hpp"

#include "overlay/compiled_router.hpp"

namespace fairswap::agents {

NeighborLists neighbor_lists(const overlay::Topology& topo) {
  // The arena's slab of a node holds its table peers in bucket order,
  // already resolved to NodeIndex.
  const overlay::CompiledRouter& router = topo.compiled();
  NeighborLists lists(topo.node_count());
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    const auto [begin, end] = router.node_edge_range(n);
    lists[n].reserve(end - begin);
    for (overlay::EdgeId e = begin; e < end; ++e) {
      // Foreign entries (stale / injected addresses nobody owns) have
      // no utility to imitate; drop them here once instead of per epoch.
      const NodeIndex peer = router.edge_target(e);
      if (peer != overlay::CompiledRouter::kForeignPeer) {
        lists[n].push_back(peer);
      }
    }
  }
  return lists;
}

namespace {

/// The two-strategy universe the current game plays over. Extending to
/// cache-tier strategies means iterating the enum range instead.
constexpr Strategy kAll[] = {Strategy::kShare, Strategy::kFreeRide};

Strategy random_strategy(Rng& rng) {
  return kAll[rng.index(std::size(kAll))];
}

class ImitateDynamics final : public RevisionDynamics {
 public:
  [[nodiscard]] std::string name() const override { return "imitate"; }

  std::size_t revise(std::span<const Strategy> current,
                     std::span<const double> utility,
                     const NeighborLists& neighbors,
                     const RevisionParams& params, Rng& rng,
                     std::vector<Strategy>& next) const override {
    next.assign(current.begin(), current.end());
    std::size_t attempts = 0;
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (!rng.chance(params.revision_rate)) continue;
      ++attempts;
      if (params.noise > 0.0 && rng.chance(params.noise)) {
        next[i] = random_strategy(rng);
        continue;
      }
      const auto& peers = neighbors[i];
      if (peers.empty()) continue;
      const NodeIndex j = peers[rng.index(peers.size())];
      // Strictly better only: indifferent nodes keep their strategy, so
      // a homogeneous-utility population is a fixed point.
      if (utility[j] > utility[i]) next[i] = current[j];
    }
    return attempts;
  }
};

class BestResponseDynamics final : public RevisionDynamics {
 public:
  [[nodiscard]] std::string name() const override { return "best-response"; }

  std::size_t revise(std::span<const Strategy> current,
                     std::span<const double> utility,
                     const NeighborLists& /*neighbors*/,
                     const RevisionParams& params, Rng& rng,
                     std::vector<Strategy>& next) const override {
    next.assign(current.begin(), current.end());
    const std::size_t n = current.size();
    std::size_t attempts = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.chance(params.revision_rate)) continue;
      ++attempts;
      if (params.noise > 0.0 && rng.chance(params.noise)) {
        next[i] = random_strategy(rng);
        continue;
      }
      // Estimate each strategy's mean utility from a uniform sample plus
      // the node's own experience; a strategy with no observations keeps
      // no estimate (it cannot be adopted — extinction is absorbing,
      // like imitation).
      double sum[2] = {0.0, 0.0};
      std::size_t count[2] = {0, 0};
      const auto observe = [&](std::size_t node) {
        const auto s = static_cast<std::size_t>(current[node]);
        sum[s] += utility[node];
        ++count[s];
      };
      observe(i);
      for (std::size_t draw = 0; draw < params.sample_size; ++draw) {
        observe(rng.index(n));
      }
      const std::size_t mine = static_cast<std::size_t>(current[i]);
      const std::size_t other = 1 - mine;
      if (count[other] == 0) continue;
      const double mine_mean = sum[mine] / static_cast<double>(count[mine]);
      const double other_mean = sum[other] / static_cast<double>(count[other]);
      if (other_mean > mine_mean) next[i] = kAll[other];
    }
    return attempts;
  }
};

}  // namespace

std::unique_ptr<RevisionDynamics> make_dynamics(const std::string& name) {
  if (name == "imitate") return std::make_unique<ImitateDynamics>();
  if (name == "best-response") return std::make_unique<BestResponseDynamics>();
  return nullptr;
}

}  // namespace fairswap::agents
