// The demand-engine contracts: a default DemandConfig reproduces the
// plain DownloadGenerator stream bit-for-bit, every composed process is
// deterministic and replayable, and the diurnal schedule is pure rational
// arithmetic of the request index.
#include "workload/engine.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/simulation.hpp"

namespace fairswap::workload {
namespace {

overlay::Topology make_topology(std::size_t nodes = 100,
                                std::uint64_t seed = 1) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 12;
  cfg.buckets.k = 4;
  Rng rng(seed);
  return overlay::Topology::build(cfg, rng);
}

bool same_request(const DownloadRequest& a, const DownloadRequest& b) {
  return a.originator == b.originator && a.is_upload == b.is_upload &&
         a.chunks == b.chunks;
}

/// FNV-1a, 64-bit, over the first `count` requests of a stream: each
/// request folds its originator, its upload flag and every chunk address.
template <typename Stream>
std::uint64_t stream_hash(Stream& stream, int count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (int i = 0; i < count; ++i) {
    const DownloadRequest& req = stream.next();
    fold(req.originator);
    fold(req.is_upload ? 1 : 0);
    for (const Address c : req.chunks) fold(c.v);
  }
  return h;
}

/// The paper's topology: 1000 nodes, 16-bit addresses, k = 4.
overlay::Topology paper_topology() {
  overlay::TopologyConfig cfg;
  cfg.node_count = 1000;
  cfg.address_bits = 16;
  cfg.buckets.k = 4;
  Rng rng(1);
  return overlay::Topology::build(cfg, rng);
}

// The four request streams below are pinned to hashes of their first
// 2,000 requests. A change to the generators, the Zipf sampler or the
// order of Rng draws moves a hash; a pure speed-up must not.
constexpr int kPinnedRequests = 2'000;

TEST(PinnedStream, PlainGenerator) {
  const auto topo = paper_topology();
  DownloadGenerator gen(topo, {}, Rng(61));
  EXPECT_EQ(stream_hash(gen, kPinnedRequests), 0xcc116cdd773fe608ULL);
}

TEST(PinnedStream, CatalogZipf) {
  const auto topo = paper_topology();
  WorkloadConfig cfg;
  cfg.catalog_size = 5000;
  cfg.catalog_zipf_alpha = 0.8;
  DownloadGenerator gen(topo, cfg, Rng(67));
  EXPECT_EQ(stream_hash(gen, kPinnedRequests), 0x67243604f0bd726aULL);
}

TEST(PinnedStream, OriginatorZipf) {
  const auto topo = paper_topology();
  WorkloadConfig cfg;
  cfg.originator_share = 0.2;
  cfg.originator_zipf_alpha = 1.1;
  DownloadGenerator gen(topo, cfg, Rng(71));
  EXPECT_EQ(stream_hash(gen, kPinnedRequests), 0x5d8f21afff92fbb8ULL);
}

TEST(PinnedStream, HeavyTrafficComposedDemand) {
  // heavy_traffic's defaults: Zipf(0.9) over a 2048-entry catalog, a
  // flash crowd over requests [10, 110) at share 0.5, 10% uploads.
  const auto topo = paper_topology();
  WorkloadConfig base;
  base.upload_share = 0.1;
  DemandConfig demand;
  demand.kind = DemandConfig::Kind::kZipf;
  demand.zipf_s = 0.9;
  demand.catalog = 2048;
  demand.burst_start = 10;
  demand.burst_files = 100;
  demand.burst_share = 0.5;
  DemandEngine engine(topo, base, demand, Rng(73));
  EXPECT_EQ(stream_hash(engine, kPinnedRequests), 0xbec9c85ae91e8a86ULL);
}

TEST(DemandEngine, DefaultConfigReproducesDownloadGeneratorBitForBit) {
  const auto topo = make_topology();
  WorkloadConfig base;
  base.min_chunks_per_file = 5;
  base.max_chunks_per_file = 20;
  DownloadGenerator plain(topo, base, Rng(17));
  DemandEngine engine(topo, base, DemandConfig{}, Rng(17));
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(same_request(plain.next(), engine.next())) << "request " << i;
  }
}

TEST(DemandEngine, SameSeedSameStream) {
  const auto topo = make_topology();
  DemandConfig demand;
  demand.kind = DemandConfig::Kind::kZipf;
  demand.zipf_s = 1.1;
  demand.burst_start = 10;
  demand.burst_files = 30;
  DemandEngine a(topo, {}, demand, Rng(19));
  DemandEngine b(topo, {}, demand, Rng(19));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(same_request(a.next(), b.next())) << "request " << i;
  }
}

TEST(DemandEngine, ZipfDemandDrawsFromFixedCatalog) {
  const auto topo = make_topology();
  WorkloadConfig base;
  base.min_chunks_per_file = 10;
  base.max_chunks_per_file = 10;
  DemandConfig demand;
  demand.kind = DemandConfig::Kind::kZipf;
  demand.catalog = 64;
  DemandEngine engine(topo, base, demand, Rng(23));
  const auto& catalog = engine.base().catalog();
  ASSERT_EQ(catalog.size(), 64u);
  const std::set<Address> allowed(catalog.begin(), catalog.end());
  for (int i = 0; i < 50; ++i) {
    for (const Address c : engine.next().chunks) {
      EXPECT_TRUE(allowed.count(c) > 0);
    }
  }
}

TEST(DemandEngine, ExplicitCatalogSizeWinsOverDemandDefault) {
  const auto topo = make_topology();
  WorkloadConfig base;
  base.catalog_size = 16;
  DemandConfig demand;
  demand.kind = DemandConfig::Kind::kZipf;
  demand.catalog = 4096;
  DemandEngine engine(topo, base, demand, Rng(29));
  EXPECT_EQ(engine.base().catalog().size(), 16u);
}

TEST(DemandEngine, BurstWindowBoundsAreHalfOpen) {
  const auto topo = make_topology();
  DemandConfig demand;
  demand.burst_start = 100;
  demand.burst_files = 50;
  const DemandEngine engine(topo, {}, demand, Rng(31));
  EXPECT_FALSE(engine.burst_window(99));
  EXPECT_TRUE(engine.burst_window(100));
  EXPECT_TRUE(engine.burst_window(149));
  EXPECT_FALSE(engine.burst_window(150));
}

TEST(DemandEngine, FullBurstShareRedirectsEveryWindowRequest) {
  const auto topo = make_topology();
  DemandConfig demand;
  demand.burst_start = 5;
  demand.burst_files = 20;
  demand.burst_share = 1.0;
  DemandEngine engine(topo, {}, demand, Rng(37));
  const auto& hot = engine.hot_chunks();
  ASSERT_FALSE(hot.empty());
  for (std::uint64_t i = 0; i < 30; ++i) {
    const auto req = engine.next();
    if (i >= 5 && i < 25) {
      EXPECT_EQ(req.chunks, hot) << "request " << i;
      EXPECT_FALSE(req.is_upload);
    }
  }
}

TEST(DemandEngine, BurstLeavesBaseStreamUntouched) {
  // Toggling the flash crowd must not perturb the base stream: outside
  // the window the composed engine still emits the plain generator's
  // requests, because burst decisions come from a split side stream.
  // Inside the window a burst request swaps in the hot file but keeps
  // the originator of the base draw it replaces.
  const auto topo = make_topology();
  WorkloadConfig base;
  base.min_chunks_per_file = 3;
  base.max_chunks_per_file = 9;
  DemandConfig burst;
  burst.burst_start = 10;
  burst.burst_files = 5;
  burst.burst_share = 1.0;
  DemandEngine with_burst(topo, base, burst, Rng(41));
  DemandEngine without(topo, base, DemandConfig{}, Rng(41));
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto& a = with_burst.next();
    const auto& b = without.next();
    if (i < 10 || i >= 15) {
      EXPECT_TRUE(same_request(a, b)) << "request " << i;
    } else {
      EXPECT_EQ(a.originator, b.originator) << "request " << i;
      EXPECT_EQ(a.chunks, with_burst.hot_chunks()) << "request " << i;
    }
  }
}

TEST(DemandEngine, DiurnalWaveIsTriangleOverThePeriod) {
  const auto topo = make_topology();
  DemandConfig demand;
  demand.diurnal_period = 100.0;
  demand.diurnal_amp = 0.5;
  const DemandEngine engine(topo, {}, demand, Rng(43));
  EXPECT_TRUE(engine.modulates_interarrival());
  const double base = 200.0;
  // Phase 0 -> factor 1 - amp; quarter period -> factor 1 (wave crosses
  // zero); half period -> 1 + amp; the wave is symmetric.
  EXPECT_DOUBLE_EQ(engine.interarrival_for(0, base), base * 0.5);
  EXPECT_DOUBLE_EQ(engine.interarrival_for(25, base), base);
  EXPECT_DOUBLE_EQ(engine.interarrival_for(50, base), base * 1.5);
  EXPECT_DOUBLE_EQ(engine.interarrival_for(75, base), base);
  // Periodicity, exactly.
  EXPECT_DOUBLE_EQ(engine.interarrival_for(137, base),
                   engine.interarrival_for(37, base));
}

TEST(DemandEngine, NoModulationReturnsBaseInterarrivalExactly) {
  const auto topo = make_topology();
  const DemandEngine engine(topo, {}, DemandConfig{}, Rng(47));
  EXPECT_FALSE(engine.modulates_interarrival());
  EXPECT_EQ(engine.interarrival_for(123, 200.0), 200.0);
}

TEST(DemandEngine, InvalidConfigThrows) {
  const auto topo = make_topology();
  DemandConfig bad_share;
  bad_share.burst_share = 1.5;
  EXPECT_THROW(DemandEngine(topo, {}, bad_share, Rng(1)),
               std::invalid_argument);
  DemandConfig bad_amp;
  bad_amp.diurnal_amp = 1.0;
  EXPECT_THROW(DemandEngine(topo, {}, bad_amp, Rng(1)),
               std::invalid_argument);
}

TEST(DemandKind, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_demand_kind("uniform"), DemandConfig::Kind::kUniform);
  EXPECT_EQ(parse_demand_kind("zipf"), DemandConfig::Kind::kZipf);
  EXPECT_EQ(demand_kind_name(DemandConfig::Kind::kUniform), "uniform");
  EXPECT_EQ(demand_kind_name(DemandConfig::Kind::kZipf), "zipf");
  EXPECT_THROW((void)parse_demand_kind("pareto"), std::invalid_argument);
}

TEST(DemandEngine, SimulationResetReplaysComposedDemandBitForBit) {
  // The record -> replay half of the ISSUE 9 acceptance: a Simulation
  // driven by a fully composed demand process, reset with the same rng,
  // reproduces its streaming aggregates to the bit.
  const auto topo = make_topology(60, 3);
  core::SimulationConfig cfg;
  cfg.workload.min_chunks_per_file = 3;
  cfg.workload.max_chunks_per_file = 12;
  cfg.workload.upload_share = 0.2;
  cfg.demand.kind = DemandConfig::Kind::kZipf;
  cfg.demand.zipf_s = 1.0;
  cfg.demand.burst_start = 20;
  cfg.demand.burst_files = 40;
  cfg.stream_metrics = true;
  const Rng rng(53);
  core::Simulation sim(topo, cfg, rng);
  sim.run(100);
  const auto totals = sim.totals();
  const std::uint64_t hops_fp = sim.stream().hops.fingerprint();
  const std::uint64_t chunks_fp = sim.stream().chunks_per_file.fingerprint();
  ASSERT_GT(sim.stream().hops.count(), 0u);

  sim.reset(rng);
  EXPECT_EQ(sim.stream().hops.count(), 0u);
  sim.run(100);
  EXPECT_EQ(sim.totals(), totals);
  EXPECT_EQ(sim.stream().hops.fingerprint(), hops_fp);
  EXPECT_EQ(sim.stream().chunks_per_file.fingerprint(), chunks_fp);
}

TEST(DemandEngine, StreamSampleCapBoundsTheExactBuffer) {
  const auto topo = make_topology(60, 3);
  core::SimulationConfig cfg;
  cfg.workload.min_chunks_per_file = 5;
  cfg.workload.max_chunks_per_file = 10;
  cfg.stream_metrics = true;
  cfg.stream_sample_cap = 50;
  core::Simulation sim(topo, cfg, Rng(59));
  sim.run(40);
  EXPECT_EQ(sim.stream().hops_sample.size(), 50u);
  EXPECT_GT(sim.stream().hops.count(), 50u);
}

}  // namespace
}  // namespace fairswap::workload
