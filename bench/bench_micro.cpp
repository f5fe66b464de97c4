// Micro-benchmarks (google-benchmark) for the simulator's hot paths:
// routing-table next-hop selection, end-to-end compiled routing, the
// closest-node trie and Gini computation.
// bench_scale times the greedy walk test oracle (greedy_ns_per_route).
// These guard the performance envelope that makes 10k-file paper runs
// take seconds, not hours.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/gini.hpp"
#include "common/rng.hpp"
#include "core/scenarios.hpp"
#include "core/simulation.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/topology.hpp"

namespace {

using namespace fairswap;

overlay::Topology& paper_topology(std::size_t k) {
  // fairswap-lint: allow(mutable-global) -- bench-only memoization of the
  // expensive paper overlay across google-benchmark repetitions; the
  // bench driver is single-threaded and the topology is seed-fixed.
  static std::map<std::size_t, overlay::Topology> cache;
  auto it = cache.find(k);
  if (it == cache.end()) {
    overlay::TopologyConfig cfg;
    cfg.node_count = 1000;
    cfg.address_bits = 16;
    cfg.buckets.k = k;
    Rng rng(kDefaultSeed);
    it = cache.emplace(k, overlay::Topology::build(cfg, rng)).first;
  }
  return it->second;
}

void BM_NextHop(benchmark::State& state) {
  const auto& topo = paper_topology(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const auto& table = topo.table(0);
  std::vector<Address> targets(1024);
  for (auto& t : targets) {
    t = Address{static_cast<AddressValue>(rng.next_below(topo.space().size()))};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.next_hop(targets[i++ & 1023]));
  }
}
BENCHMARK(BM_NextHop)->Arg(4)->Arg(20);

void BM_NextHopCompiled(benchmark::State& state) {
  const auto& topo = paper_topology(static_cast<std::size_t>(state.range(0)));
  const auto& compiled = topo.compiled();
  Rng rng(1);
  std::vector<Address> targets(1024);
  for (auto& t : targets) {
    t = Address{static_cast<AddressValue>(rng.next_below(topo.space().size()))};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.next_hop(0, targets[i++ & 1023]));
  }
}
BENCHMARK(BM_NextHopCompiled)->Arg(4)->Arg(20);

void BM_NextHopNaive(benchmark::State& state) {
  const auto& topo = paper_topology(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const auto& table = topo.table(0);
  std::vector<Address> targets(1024);
  for (auto& t : targets) {
    t = Address{static_cast<AddressValue>(rng.next_below(topo.space().size()))};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.next_hop_naive(targets[i++ & 1023]));
  }
}
BENCHMARK(BM_NextHopNaive)->Arg(4)->Arg(20);

void BM_RouteCompiled(benchmark::State& state) {
  const auto& topo = paper_topology(static_cast<std::size_t>(state.range(0)));
  const auto& compiled = topo.compiled();
  Rng rng(2);
  for (auto _ : state) {
    const auto origin =
        static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    benchmark::DoNotOptimize(compiled.route(origin, chunk));
  }
}
BENCHMARK(BM_RouteCompiled)->Arg(4)->Arg(20);

void BM_ClosestNode(benchmark::State& state) {
  const auto& topo = paper_topology(4);
  Rng rng(3);
  for (auto _ : state) {
    const Address target{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    benchmark::DoNotOptimize(topo.closest_node(target));
  }
}
BENCHMARK(BM_ClosestNode);

void BM_SimulationFile(benchmark::State& state) {
  const auto& topo = paper_topology(static_cast<std::size_t>(state.range(0)));
  auto cfg = core::paper_config(static_cast<std::size_t>(state.range(0)), 1.0);
  core::Simulation sim(topo, cfg.sim, Rng(4));
  for (auto _ : state) {
    sim.step();  // one full file download (100..1000 chunk requests)
  }
}
BENCHMARK(BM_SimulationFile)->Arg(4)->Arg(20)->Unit(benchmark::kMicrosecond);

void BM_GiniSorted(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values(static_cast<std::size_t>(state.range(0)));
  for (auto& v : values) v = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gini(std::span<const double>(values)));
  }
}
BENCHMARK(BM_GiniSorted)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
