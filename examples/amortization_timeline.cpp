// The SWAP channel over time (paper Fig. 2): two peers exchange service at
// different rates while time-based amortization pulls the balance back
// toward zero, one tick at a time. The channel is an accounting::Ledger
// over a two-node topology, whose one table edge pair holds the single
// balance.
//
// Demonstrates the free-tier property the paper highlights: "nodes may
// give away a limited amount of bandwidth per time-unit and connection for
// free. This feature allows anybody to request content from Swarm for
// free - albeit at a slow rate."
#include <cstdio>

#include "accounting/ledger.hpp"
#include "common/rng.hpp"
#include "overlay/topology.hpp"

int main() {
  using namespace fairswap;

  accounting::SwapConfig cfg;
  cfg.payment_threshold = Token(100);
  cfg.disconnect_threshold = Token(140);
  cfg.amortization_per_tick = Token(2);
  overlay::TopologyConfig two_peers;
  two_peers.node_count = 2;
  two_peers.address_bits = 4;
  Rng topo_rng(1);
  const auto topo = overlay::Topology::build(two_peers, topo_rng);
  accounting::Ledger swap(topo.compiled(), cfg);

  std::printf("two peers; A consumes 5 units from B every 2 ticks, B "
              "consumes 5 units from A every 6 ticks; amortization forgives "
              "2 units/tick.\n");
  std::printf("payment threshold: 100, disconnect threshold: 140\n\n");
  std::printf("%6s %14s %10s %12s\n", "tick", "A owes B", "refused",
              "settlements");

  std::uint64_t refused = 0;
  const auto request = [&](overlay::NodeIndex consumer,
                           overlay::NodeIndex provider) {
    if (swap.debit(consumer, provider, Token(5), /*can_settle=*/false) ==
        accounting::DebitResult::kDisconnected) {
      ++refused;
    }
  };
  // Within a tick, B's request comes first, then A's, then amortization;
  // the balance is printed every 10 ticks.
  for (std::uint64_t now = 1; now <= 120; ++now) {
    // Peer B requests from A every 6 ticks (light consumer).
    if (now % 6 == 0) request(/*consumer=*/1, /*provider=*/0);
    // Peer A requests from B every 2 ticks (heavy consumer).
    if (now % 2 == 0) request(/*consumer=*/0, /*provider=*/1);
    swap.amortize_tick();
    if (now % 10 == 0) {
      std::printf("%6llu %14s %10llu %12zu\n",
                  static_cast<unsigned long long>(now),
                  swap.balance(1, 0).to_string().c_str(),
                  static_cast<unsigned long long>(refused),
                  swap.settlements().size());
    }
  }

  std::printf("\nA's net consumption (~1.7 units/tick beyond B's) races the "
              "2 units/tick amortization: the balance hovers in a bounded "
              "band and never reaches the disconnect threshold — A rides "
              "the free tier at a slow rate, exactly the behaviour the "
              "paper describes.\n");

  // Now triple A's appetite: the free tier no longer covers it.
  accounting::Ledger greedy(topo.compiled(), cfg);
  std::uint64_t greedy_refused = 0;
  for (int t = 0; t < 120; ++t) {
    for (int burst = 0; burst < 3; ++burst) {
      if (greedy.debit(0, 1, Token(5), false) ==
          accounting::DebitResult::kDisconnected) {
        ++greedy_refused;
      }
    }
    greedy.amortize_tick();
  }
  std::printf("\nwith 3x the request rate, %llu of 360 requests were "
              "refused at the disconnect threshold (balance pinned at %s): "
              "beyond the free tier you must settle in tokens.\n",
              static_cast<unsigned long long>(greedy_refused),
              greedy.balance(1, 0).to_string().c_str());
  return 0;
}
