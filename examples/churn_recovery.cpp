// Churn and recovery, narrated: fail a third of the network, watch
// routing degrade as tables go stale, then repair and watch it recover —
// the "coping with the network churn" challenge from the paper's
// introduction, made concrete.
#include <cstdio>
#include <exception>
#include <string>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "overlay/churn.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const Config args = Config::from_args(argc, argv);
  args.require_known({"nodes", "probes"});
  const auto nodes = args.get_u64("nodes", 500);
  const auto probes = args.get_u64("probes", 5000, /*min=*/1);

  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 16;
  cfg.buckets.k = 4;
  Rng trng(kDefaultSeed);
  overlay::DynamicOverlay overlay(overlay::Topology::build(cfg, trng));
  Rng rng(7);

  auto probe = [&](const char* phase) {
    std::uint64_t ok = 0;
    double hops = 0;
    for (std::uint64_t i = 0; i < probes; ++i) {
      overlay::NodeIndex origin;
      do {
        origin =
            static_cast<overlay::NodeIndex>(rng.index(overlay.node_count()));
      } while (!overlay.alive(origin));
      const Address chunk{static_cast<AddressValue>(
          rng.next_below(overlay.topology().space().size()))};
      const auto route = overlay.route(origin, chunk);
      if (route.reached_storer) {
        ++ok;
        hops += static_cast<double>(route.hops());
      }
    }
    double staleness = 0;
    std::size_t alive = 0;
    for (overlay::NodeIndex n = 0; n < overlay.node_count(); ++n) {
      if (!overlay.alive(n)) continue;
      staleness += overlay.staleness(n);
      ++alive;
    }
    std::printf("%-10s alive=%4zu  success=%6.2f%%  avg hops=%.2f  "
                "table staleness=%.1f%%\n",
                phase, overlay.alive_count(),
                100.0 * static_cast<double>(ok) / static_cast<double>(probes),
                hops / static_cast<double>(ok ? ok : 1),
                100.0 * staleness / static_cast<double>(alive ? alive : 1));
  };

  std::printf("a %llu-node Swarm-like overlay (k=4), probed with %llu "
              "random retrievals per phase:\n\n",
              static_cast<unsigned long long>(nodes),
              static_cast<unsigned long long>(probes));
  probe("healthy");

  overlay.fail_random(nodes / 3, rng);
  std::printf("\n... a third of the network goes offline ...\n\n");
  probe("churned");

  const std::size_t repaired = overlay.repair_all(rng);
  std::printf("\n... table maintenance refills %zu stale slots from live "
              "candidates ...\n\n", repaired);
  probe("repaired");

  std::printf("\nroutes during churn stepped over %llu dead table entries "
              "(lazy discovery). Repair removes the detours; the chunks "
              "that lived only on failed nodes move to their surviving "
              "neighbors (closest-alive placement).\n",
              static_cast<unsigned long long>(
                  overlay.stats().dead_peer_encounters));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
