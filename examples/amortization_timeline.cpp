// The SWAP channel over time (paper Fig. 2): two peers exchange service at
// different rates while time-based amortization pulls the balance back
// toward zero. Driven by the discrete-event engine so requests and
// amortization ticks interleave on a realistic timeline. The channel is an
// accounting::Ledger over a two-node topology, whose one table edge pair
// holds the single balance.
//
// Demonstrates the free-tier property the paper highlights: "nodes may
// give away a limited amount of bandwidth per time-unit and connection for
// free. This feature allows anybody to request content from Swarm for
// free - albeit at a slow rate."
#include <cstdio>

#include "accounting/ledger.hpp"
#include "common/rng.hpp"
#include "engine/event_queue.hpp"
#include "overlay/topology.hpp"

int main() {
  using namespace fairswap;
  using engine::EventQueue;
  using engine::SimTime;

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

  EventQueue queue;
  std::printf("two peers; A consumes 5 units from B every 2 ticks, B "
              "consumes 5 units from A every 6 ticks; amortization forgives "
              "2 units/tick.\n");
  std::printf("payment threshold: 100, disconnect threshold: 140\n\n");
  std::printf("%6s %14s %10s %12s\n", "tick", "A owes B", "refused",
              "settlements");

  // Peer A requests from B every 2 ticks (heavy consumer).
  std::function<void(SimTime)> a_requests = [&](SimTime) {
    (void)swap.debit(/*consumer=*/0, /*provider=*/1, Token(5),
                     /*can_settle=*/false);
    queue.schedule_after(2, a_requests);
  };
  // Peer B requests from A every 6 ticks (light consumer).
  std::function<void(SimTime)> b_requests = [&](SimTime) {
    (void)swap.debit(/*consumer=*/1, /*provider=*/0, Token(5),
                     /*can_settle=*/false);
    queue.schedule_after(6, b_requests);
  };
  // Amortization ticks once per time unit; print every 10.
  std::uint64_t refused = 0;
  std::function<void(SimTime)> tick = [&](SimTime now) {
    swap.amortize_tick();
    if (now % 10 == 0) {
      std::printf("%6llu %14s %10llu %12zu\n",
                  static_cast<unsigned long long>(now),
                  swap.balance(1, 0).to_string().c_str(),
                  static_cast<unsigned long long>(refused),
                  swap.settlements().size());
    }
    if (now < 120) queue.schedule_after(1, tick);
  };

  queue.schedule_at(1, tick);
  queue.schedule_at(2, a_requests);
  queue.schedule_at(6, b_requests);
  queue.run_until(120);

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
