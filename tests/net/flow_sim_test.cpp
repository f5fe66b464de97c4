// FlowSimulator unit tests: exact completion times under max-min sharing,
// timeouts, reset, and EventQueue-driven determinism (completion order
// independent of batch insertion order — there is no hash-map iteration
// anywhere in the flow layer to leak container order into results).
#include "net/flow_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "overlay/topology.hpp"

namespace fairswap::net {
namespace {

using overlay::NodeIndex;

overlay::Topology make_topology(std::size_t nodes, std::size_t k,
                                std::uint64_t seed, int bits = 10) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = bits;
  cfg.buckets.k = k;
  Rng rng(seed);
  return overlay::Topology::build(cfg, rng);
}

/// A delivered multi-hop route on the topology (tries random chunks until
/// one leaves its originator).
overlay::Route multi_hop_route(const overlay::Topology& topo, Rng& rng) {
  const auto& router = topo.compiled();
  for (;;) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    overlay::Route route = router.route(origin, chunk);
    if (route.reached_storer && route.hops() >= 1) return route;
  }
}

TEST(FlowSimulator, SoloFlowRunsAtTheEdgeLinkRate) {
  const auto topo = make_topology(64, 4, 1);
  Rng rng(7);
  const auto route = multi_hop_route(topo, rng);

  FlowConfig cfg;
  cfg.link_capacity = 0.1;  // narrowest link class -> rate 0.1, FCT 10
  FlowSimulator sim(topo.compiled(), topo.node_count(), cfg);
  sim.start_chunk(route, /*is_upload=*/false);
  sim.commit();
  sim.drain();

  const FlowReport report = sim.report();
  EXPECT_EQ(report.started, 1u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.timed_out, 0u);
  ASSERT_EQ(sim.fct_samples().size(), 1u);
  EXPECT_EQ(sim.fct_samples()[0], 10u);
  EXPECT_EQ(report.makespan, 10u);
  EXPECT_DOUBLE_EQ(report.fct_p50, 10.0);
}

TEST(FlowSimulator, TwoFlowsOnTheSameRouteHalveTheRate) {
  const auto topo = make_topology(64, 4, 1);
  Rng rng(7);
  const auto route = multi_hop_route(topo, rng);

  FlowConfig cfg;
  cfg.link_capacity = 0.1;
  FlowSimulator sim(topo.compiled(), topo.node_count(), cfg);
  sim.start_chunk(route, false);
  sim.start_chunk(route, false);
  sim.commit();
  sim.drain();

  const FlowReport report = sim.report();
  EXPECT_EQ(report.completed, 2u);
  // Both flows share every link: rate 0.05 each, 20 ticks.
  for (const auto fct : sim.fct_samples()) EXPECT_EQ(fct, 20u);
  EXPECT_GT(report.saturated_links, 0u);
}

TEST(FlowSimulator, StaggeredArrivalRebalancesInFlight) {
  const auto topo = make_topology(64, 4, 1);
  Rng rng(7);
  const auto route = multi_hop_route(topo, rng);

  FlowConfig cfg;
  cfg.link_capacity = 0.1;
  FlowSimulator sim(topo.compiled(), topo.node_count(), cfg);
  sim.start_chunk(route, false);
  sim.commit();
  // Flow 1 alone on [0, 5): transfers 0.5. Flow 2 arrives at t=5; both
  // run at 0.05 until flow 1 empties at t=15; flow 2's last 0.5 then
  // drains at 0.1 by t=20. FCTs: 15 and 20-5 = 15.
  sim.advance_to(5);
  sim.start_chunk(route, false);
  sim.commit();
  sim.drain();

  ASSERT_EQ(sim.fct_samples().size(), 2u);
  EXPECT_EQ(sim.fct_samples()[0], 15u);
  EXPECT_EQ(sim.fct_samples()[1], 15u);
  EXPECT_EQ(sim.report().makespan, 20u);
}

TEST(FlowSimulator, TimeoutAbandonsUnfinishedFlows) {
  const auto topo = make_topology(64, 4, 1);
  Rng rng(7);
  const auto route = multi_hop_route(topo, rng);

  FlowConfig cfg;
  cfg.link_capacity = 0.1;  // solo FCT would be 10
  cfg.timeout = 5;
  FlowSimulator sim(topo.compiled(), topo.node_count(), cfg);
  sim.start_chunk(route, false);
  sim.commit();
  sim.drain();

  const FlowReport report = sim.report();
  EXPECT_EQ(report.started, 1u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.timed_out, 1u);
  EXPECT_EQ(report.makespan, 5u);
  // The abandoned half-transfer still counts toward link volume, but
  // utilization can never exceed 1.
  EXPECT_GT(report.max_link_utilization, 0.0);
  EXPECT_LE(report.max_link_utilization, 1.0 + 1e-9);
}

TEST(FlowSimulator, UploadsLoadTheOppositeDirection) {
  const auto topo = make_topology(64, 4, 1);
  Rng rng(7);
  const auto route = multi_hop_route(topo, rng);

  FlowConfig cfg;
  cfg.link_capacity = 0.1;
  // Same path, opposite data direction: the temporal outcome of a solo
  // transfer is identical, only which up/down links carried it differs.
  FlowSimulator down(topo.compiled(), topo.node_count(), cfg);
  down.start_chunk(route, /*is_upload=*/false);
  down.commit();
  down.drain();
  FlowSimulator up(topo.compiled(), topo.node_count(), cfg);
  up.start_chunk(route, /*is_upload=*/true);
  up.commit();
  up.drain();

  EXPECT_EQ(down.fct_samples(), up.fct_samples());
}

TEST(FlowSimulator, ResetReproducesTheRunExactly) {
  const auto topo = make_topology(64, 4, 2);
  Rng rng(11);
  const auto a = multi_hop_route(topo, rng);
  const auto b = multi_hop_route(topo, rng);

  FlowConfig cfg;
  cfg.link_capacity = 0.07;
  cfg.timeout = 40;
  FlowSimulator sim(topo.compiled(), topo.node_count(), cfg);
  const auto run = [&] {
    sim.start_chunk(a, false);
    sim.start_chunk(b, false);
    sim.commit();
    sim.advance_to(3);
    sim.start_chunk(a, true);
    sim.commit();
    sim.drain();
    return sim.fct_samples();
  };
  const auto first = run();
  const auto report_first = sim.report();
  sim.reset();
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.report().started, 0u);
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(report_first.makespan, sim.report().makespan);
  EXPECT_EQ(report_first.saturated_links, sim.report().saturated_links);
  EXPECT_DOUBLE_EQ(report_first.max_link_utilization,
                   sim.report().max_link_utilization);
}

TEST(FlowSimulator, CompletionOrderIndependentOfBatchInsertionOrder) {
  const auto topo = make_topology(128, 4, 3);
  Rng rng(23);
  std::vector<overlay::Route> routes;
  for (int i = 0; i < 24; ++i) routes.push_back(multi_hop_route(topo, rng));

  FlowConfig cfg;
  cfg.link_capacity = 0.05;

  FlowSimulator forward(topo.compiled(), topo.node_count(), cfg);
  for (const auto& r : routes) forward.start_chunk(r, false);
  forward.commit();
  forward.drain();

  FlowSimulator reversed(topo.compiled(), topo.node_count(), cfg);
  for (auto it = routes.rbegin(); it != routes.rend(); ++it) {
    reversed.start_chunk(*it, false);
  }
  reversed.commit();
  reversed.drain();

  // The max-min allocation is insertion-order invariant and completions
  // are swept in deterministic slot order, so the two runs agree on the
  // full FCT distribution and every aggregate.
  auto a = forward.fct_samples();
  auto b = reversed.fct_samples();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(forward.report().makespan, reversed.report().makespan);
  EXPECT_EQ(forward.report().saturated_links,
            reversed.report().saturated_links);
  EXPECT_DOUBLE_EQ(forward.report().max_link_utilization,
                   reversed.report().max_link_utilization);
}

TEST(FlowSimulator, BoundedFctMatchesExactPathWithinSketchBound) {
  // bounded_fct swaps the O(flows) FCT vector for the streaming sketch;
  // the differential contract: identical completion counts and exact
  // integer-tick mean, and every percentile within the sketch's
  // documented relative error bound of the exact order statistic.
  const auto topo = make_topology(128, 4, 3);
  Rng route_rng(11);
  std::vector<overlay::Route> routes;
  for (int i = 0; i < 400; ++i) {
    routes.push_back(multi_hop_route(topo, route_rng));
  }

  FlowConfig exact_cfg;
  exact_cfg.link_capacity = 0.05;
  FlowConfig bounded_cfg = exact_cfg;
  bounded_cfg.bounded_fct = true;

  FlowSimulator exact(topo.compiled(), topo.node_count(), exact_cfg);
  FlowSimulator bounded(topo.compiled(), topo.node_count(), bounded_cfg);
  for (const auto& route : routes) {
    exact.start_chunk(route, false);
    bounded.start_chunk(route, false);
  }
  exact.commit();
  bounded.commit();
  exact.drain();
  bounded.drain();

  const FlowReport er = exact.report();
  const FlowReport br = bounded.report();
  EXPECT_EQ(br.started, er.started);
  EXPECT_EQ(br.completed, er.completed);
  EXPECT_EQ(br.timed_out, er.timed_out);
  EXPECT_EQ(br.makespan, er.makespan);
  // The mean stays exact under bounding (integer tick sum, not sketch).
  EXPECT_DOUBLE_EQ(br.fct_mean, er.fct_mean);
  // The bounded run keeps no per-flow samples — that is the point.
  EXPECT_TRUE(bounded.fct_samples().empty());
  ASSERT_EQ(bounded.fct_sketch().count(), er.completed);

  // Percentiles: compare against the rank-ceil(q*n) oracle over the
  // exact run's samples, within the sketch's documented bound.
  std::vector<engine::SimTime> sorted = exact.fct_samples();
  std::sort(sorted.begin(), sorted.end());
  const double bound = bounded.fct_sketch().relative_error_bound();
  const std::pair<double, double> probes[] = {
      {0.50, br.fct_p50}, {0.90, br.fct_p90}, {0.99, br.fct_p99}};
  for (const auto& [q, estimate] : probes) {
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    const double oracle = static_cast<double>(sorted[rank - 1]);
    EXPECT_LE(std::abs(estimate - oracle), bound * oracle + 1e-12)
        << "q=" << q;
  }
}

TEST(FlowSimulator, RejectsLocalHitsAndFailedRoutes) {
  const auto topo = make_topology(64, 4, 1);
  FlowConfig cfg;
  FlowSimulator sim(topo.compiled(), topo.node_count(), cfg);
  overlay::Route local;
  local.path = {NodeIndex{3}};
  local.reached_storer = true;
  EXPECT_THROW(sim.start_chunk(local, false), std::invalid_argument);
  overlay::Route failed;
  failed.path = {NodeIndex{3}, NodeIndex{4}};
  failed.reached_storer = false;
  EXPECT_THROW(sim.start_chunk(failed, false), std::invalid_argument);
}

TEST(FlowSimulator, RejectsRoutesWhoseEdgeIdsDoNotCoverTheirHops) {
  const auto topo = make_topology(64, 4, 1);
  Rng rng(7);
  FlowSimulator sim(topo.compiled(), topo.node_count(), FlowConfig{});
  overlay::Route route = multi_hop_route(topo, rng);
  ASSERT_EQ(route.edges.size(), route.hops());

  // The same hops without their arena ids: the flow would not know which
  // table-edge links it crosses.
  overlay::Route edgeless = route;
  edgeless.edges.clear();
  EXPECT_THROW(sim.start_chunk(edgeless, false), std::invalid_argument);
  overlay::Route short_by_one = route;
  short_by_one.edges.pop_back();
  EXPECT_THROW(sim.start_chunk(short_by_one, true), std::invalid_argument);
  EXPECT_EQ(sim.report().started, 0u);

  sim.start_chunk(route, false);
  EXPECT_EQ(sim.report().started, 1u);
}

}  // namespace
}  // namespace fairswap::net
