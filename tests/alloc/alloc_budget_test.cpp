// Heap-allocation budget of the simulator's per-file path. Once warm, a
// file download reuses the buffers it touches: the grow-only route
// buffer with each route's path and edge vectors, the demand engine's
// request, the ledger's edge arena. What remains is amortised growth,
// such as a route slot meeting a longer path than any before it: well
// under one allocation per file.
//
// Set-up has a budget too: Topology::build samples every bucket straight
// into the router's arena, sized up front, so its allocations do not grow
// with the node or edge count.
//
// The suite counts allocations by replacing the global operator new, so
// it is a test binary of its own: no other suite runs under the counting
// allocator.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/scenarios.hpp"
#include "core/simulation.hpp"
#include "overlay/topology.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// All three stay out of line: inlined into one caller, GCC's
// -Wmismatched-new-delete would see malloc's pointer reach operator
// delete, or operator new's reach free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  std::free(p);
}

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fairswap::core {
namespace {

constexpr std::size_t kWarmupFiles = 200;
constexpr std::size_t kMeasuredFiles = 800;

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

class AllocationBudget : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::size_t before = allocations();
    void* probe = ::operator new(16);
    ::operator delete(probe);
    if (allocations() == before) {
      GTEST_SKIP() << "the replacement operator new is not in effect";
    }
  }

  /// Allocations made by kMeasuredFiles files after kWarmupFiles files of
  /// warm-up, in one simulation seeded as run_experiment seeds it.
  static std::size_t measured_allocations(const ExperimentConfig& cfg) {
    const overlay::Topology topo = build_topology(cfg);
    Simulation sim(topo, cfg.sim, Rng(cfg.seed).split(1));
    for (std::size_t f = 0; f < kWarmupFiles; ++f) sim.step();
    const std::size_t before = allocations();
    for (std::size_t f = 0; f < kMeasuredFiles; ++f) sim.step();
    const std::size_t made = allocations() - before;
    EXPECT_EQ(sim.totals().files, kWarmupFiles + kMeasuredFiles);
    return made;
  }
};

TEST_F(AllocationBudget, PaperGridCellAllocatesLessThanOncePerFile) {
  const std::size_t made = measured_allocations(paper_config(4, 0.2));
  EXPECT_LT(made, kMeasuredFiles)
      << made << " allocations over " << kMeasuredFiles << " files";
}

TEST_F(AllocationBudget, HeavyTrafficCellAllocatesLessThanOncePerFile) {
  // heavy_traffic's composed demand, with the flash crowd inside the
  // measured files.
  ExperimentConfig cfg = paper_config(4, 1.0);
  cfg.sim.demand.kind = workload::DemandConfig::Kind::kZipf;
  cfg.sim.demand.zipf_s = 0.9;
  cfg.sim.demand.catalog = 2048;
  cfg.sim.demand.burst_start = kWarmupFiles;
  cfg.sim.demand.burst_files = kMeasuredFiles / 2;
  cfg.sim.demand.burst_share = 0.5;
  cfg.sim.workload.upload_share = 0.1;
  cfg.sim.stream_metrics = true;
  cfg.sim.policy = "per-hop-swap";
  const std::size_t made = measured_allocations(cfg);
  EXPECT_LT(made, kMeasuredFiles)
      << made << " allocations over " << kMeasuredFiles << " files";
}

TEST_F(AllocationBudget, TopologyBuildMakesAFixedNumberOfAllocations) {
  // The paper's k=4 and k=20 cells, and 10,000 nodes on 20 bits: with a
  // RoutingTable per node, these builds made 49,862 to 955,882.
  constexpr std::size_t kBudget = 64;
  for (const auto& [nodes, bits, k] :
       {std::tuple<std::size_t, int, std::size_t>{1000, 16, 4},
        {1000, 16, 20},
        {10'000, 20, 4},
        {10'000, 20, 20}}) {
    overlay::TopologyConfig cfg;
    cfg.node_count = nodes;
    cfg.address_bits = bits;
    cfg.buckets.k = k;
    Rng rng(7);
    const std::size_t before = allocations();
    const overlay::Topology topo = overlay::Topology::build(cfg, rng);
    const std::size_t made = allocations() - before;
    EXPECT_LE(made, kBudget) << nodes << " nodes, " << bits << " bits, k="
                             << k << ": " << made << " allocations";
    EXPECT_EQ(topo.node_count(), nodes);
  }
}

}  // namespace
}  // namespace fairswap::core
