// FlowSimulator against the event-heap loop it replaced
// (reference_flow_sim.hpp), driven in lockstep through random churn:
// batches of arrivals, advances to random ticks (the current one
// included), same-tick completions of flows that share a route, slot
// reuse, timeouts on and off, the starved path where a completion lies
// 1e18 ticks out or more, drains and resets. After every call both must
// agree on the clock, the active flows and the three flow counters, read
// mid-run without draining; at the end on the whole report and every
// FCT sample.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/telemetry/counters.hpp"
#include "net/flow_sim.hpp"
#include "overlay/topology.hpp"
#include "reference_flow_sim.hpp"

namespace fairswap::net {
namespace {

using overlay::NodeIndex;
using telemetry::Counter;

overlay::Topology make_topology(std::size_t nodes, std::uint64_t seed) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 10;
  cfg.buckets.k = 4;
  Rng rng(seed);
  return overlay::Topology::build(cfg, rng);
}

/// Delivered multi-hop routes on the topology. Drawing flows from a
/// small pool makes many of them share every link, so they complete at
/// the same tick.
std::vector<overlay::Route> route_pool(const overlay::Topology& topo,
                                       std::size_t count, Rng& rng) {
  std::vector<overlay::Route> routes;
  const auto& router = topo.compiled();
  while (routes.size() < count) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    overlay::Route route = router.route(origin, chunk);
    if (route.reached_storer && route.hops() >= 1) {
      routes.push_back(std::move(route));
    }
  }
  return routes;
}

/// The simulator and the oracle over one topology and config, each with
/// its own counter block.
class Lockstep {
 public:
  Lockstep(const overlay::Topology& topo, const FlowConfig& cfg)
      : sim_(topo.compiled(), topo.node_count(), cfg),
        ref_(topo.compiled(), topo.node_count(), cfg) {
    sim_.set_counters(&sim_counters_);
    ref_.set_counters(&ref_counters_);
  }

  void start_chunk(const overlay::Route& route, bool is_upload) {
    sim_.start_chunk(route, is_upload);
    ref_.start_chunk(route, is_upload);
  }
  void commit() {
    sim_.commit();
    ref_.commit();
  }
  void advance_to(SimTime t) {
    sim_.advance_to(t);
    ref_.advance_to(t);
  }
  void drain() {
    sim_.drain();
    ref_.drain();
  }
  void reset() {
    sim_.reset();
    ref_.reset();
  }
  [[nodiscard]] SimTime now() const { return ref_.now(); }

  /// Everything a caller can read between two calls.
  void expect_same(const std::string& where) const {
    EXPECT_EQ(sim_.now(), ref_.now()) << where;
    EXPECT_EQ(sim_.active_flows(), ref_.active_flows()) << where;
    for (const Counter c :
         {Counter::kFlowEventsPopped, Counter::kFlowRateRecomputes,
          Counter::kFlowSaturationEpisodes}) {
      EXPECT_EQ(sim_counters_.value(c), ref_counters_.value(c))
          << where << ": " << telemetry::counter_name(c);
    }
  }

  /// The drained run's outputs.
  void expect_same_outputs(const std::string& where) const {
    const FlowReport a = sim_.report();
    const FlowReport b = ref_.report();
    EXPECT_EQ(a.started, b.started) << where;
    EXPECT_EQ(a.completed, b.completed) << where;
    EXPECT_EQ(a.timed_out, b.timed_out) << where;
    EXPECT_EQ(a.fct_p50, b.fct_p50) << where;
    EXPECT_EQ(a.fct_p90, b.fct_p90) << where;
    EXPECT_EQ(a.fct_p99, b.fct_p99) << where;
    EXPECT_EQ(a.fct_mean, b.fct_mean) << where;
    EXPECT_EQ(a.saturated_links, b.saturated_links) << where;
    EXPECT_EQ(a.max_link_utilization, b.max_link_utilization) << where;
    EXPECT_EQ(a.makespan, b.makespan) << where;
    EXPECT_EQ(sim_.fct_samples(), ref_.fct_samples()) << where;
  }

  /// Adds the oracle's run since the last reset to `tally`.
  void add_to(FlowReport& tally) const {
    const FlowReport r = ref_.report();
    tally.started += r.started;
    tally.completed += r.completed;
    tally.timed_out += r.timed_out;
  }

 private:
  telemetry::CounterBlock sim_counters_;
  telemetry::CounterBlock ref_counters_;
  FlowSimulator sim_;
  ReferenceFlowSimulator ref_;
};

/// 400 random calls on both sides; an advance moves the clock by up to
/// `max_step` ticks. Returns the oracle's flow counts summed over resets.
FlowReport drive(const overlay::Topology& topo, const FlowConfig& cfg,
                 std::uint64_t seed, SimTime max_step) {
  Rng rng(seed);
  const std::vector<overlay::Route> routes = route_pool(topo, 10, rng);
  Lockstep both(topo, cfg);
  FlowReport tally;
  for (int call = 0; call < 400; ++call) {
    const std::size_t op = rng.index(40);
    if (op < 16) {
      // A batch of arrivals, or (one time in 16) a crowd of twelve on one
      // route; one batch in four is left for the next advance (or drain)
      // to commit.
      if (op == 0) {
        const overlay::Route& route = routes[rng.index(routes.size())];
        for (int i = 0; i < 12; ++i) both.start_chunk(route, false);
      } else {
        const std::size_t batch = 1 + rng.index(6);
        for (std::size_t i = 0; i < batch; ++i) {
          both.start_chunk(routes[rng.index(routes.size())],
                           rng.chance(0.25));
        }
      }
      if (!rng.chance(0.25)) both.commit();
    } else if (op < 36) {
      both.advance_to(both.now() + rng.next_below(max_step + 1));
    } else if (op < 39) {
      both.drain();
    } else {
      both.add_to(tally);
      both.reset();
    }
    both.expect_same("seed " + std::to_string(seed) + ", call " +
                     std::to_string(call));
    if (testing::Test::HasFailure()) return tally;
  }
  both.drain();
  const std::string where = "seed " + std::to_string(seed) + ", final drain";
  both.expect_same(where);
  both.expect_same_outputs(where);
  both.add_to(tally);
  return tally;
}

TEST(FlowSimulatorEventOracle, MatchesTheEventHeapWithTimeouts) {
  const auto topo = make_topology(128, 3);
  FlowConfig cfg;
  cfg.link_capacity = 0.05;  // solo FCT 20
  cfg.timeout = 45;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const FlowReport tally = drive(topo, cfg, seed, /*max_step=*/30);
    if (HasFailure()) return;
    EXPECT_GT(tally.completed, 0u);
    EXPECT_GT(tally.timed_out, 0u);
  }
}

TEST(FlowSimulatorEventOracle, MatchesTheEventHeapWithoutTimeouts) {
  const auto topo = make_topology(128, 5);
  FlowConfig cfg;
  cfg.link_capacity = 0.1;  // solo FCT 10
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    const FlowReport tally = drive(topo, cfg, seed, /*max_step=*/15);
    if (HasFailure()) return;
    EXPECT_GT(tally.completed, 0u);
    EXPECT_EQ(tally.timed_out, 0u);
  }
}

TEST(FlowSimulatorEventOracle, MatchesTheEventHeapOnTheStarvedPath) {
  // A solo flow finishes in 1e17 ticks, but once ten or more share a
  // link (a crowd) its completion lies 1e18 ticks out or further and is
  // never scheduled: rates cross between both regimes as flows come and
  // go. Without a timeout, drain() abandons the flows still starved.
  const auto topo = make_topology(128, 7);
  FlowConfig cfg;
  cfg.link_capacity = 1e-17;
  for (const SimTime timeout :
       {SimTime{0}, SimTime{250'000'000'000'000'000}}) {
    cfg.timeout = timeout;
    for (std::uint64_t seed = 21; seed <= 23; ++seed) {
      const FlowReport tally =
          drive(topo, cfg, seed, /*max_step=*/60'000'000'000'000'000);
      if (HasFailure()) return;
      EXPECT_GT(tally.completed, 0u);
      EXPECT_GT(tally.timed_out, 0u);
    }
  }
}

}  // namespace
}  // namespace fairswap::net
