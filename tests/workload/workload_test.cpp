#include "workload/download_generator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <stdexcept>

#include "workload/trace.hpp"

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

TEST(DownloadGenerator, ChunkCountWithinConfiguredRange) {
  const auto topo = make_topology();
  WorkloadConfig cfg;
  cfg.min_chunks_per_file = 100;
  cfg.max_chunks_per_file = 1000;
  DownloadGenerator gen(topo, cfg, Rng(3));
  for (int i = 0; i < 50; ++i) {
    const auto req = gen.next();
    EXPECT_GE(req.chunks.size(), 100u);
    EXPECT_LE(req.chunks.size(), 1000u);
  }
}

TEST(DownloadGenerator, RejectsAZeroMinimumChunkCount) {
  // With an assert alone, a Release build ran zero requests per file.
  const auto topo = make_topology();
  WorkloadConfig cfg;
  cfg.min_chunks_per_file = 0;
  cfg.max_chunks_per_file = 0;
  EXPECT_THROW(DownloadGenerator(topo, cfg, Rng(3)), std::invalid_argument);
  cfg.min_chunks_per_file = 1;
  cfg.max_chunks_per_file = 1;
  EXPECT_NO_THROW(DownloadGenerator(topo, cfg, Rng(3)));
}

TEST(DownloadGenerator, RejectsAnOriginatorShareOutsideTheUnitInterval) {
  // The share used to be clamped: 0 and -0.5 ran as one originator, 2 ran
  // as 1.0, and NaN reached an undefined float-to-integer cast.
  const auto topo = make_topology();
  WorkloadConfig cfg;
  for (const double share :
       {0.0, -0.5, 2.0, std::numeric_limits<double>::quiet_NaN()}) {
    cfg.originator_share = share;
    EXPECT_THROW(DownloadGenerator(topo, cfg, Rng(3)), std::invalid_argument)
        << "share " << share;
  }
  cfg.originator_share = 1.0;
  EXPECT_NO_THROW(DownloadGenerator(topo, cfg, Rng(3)));
}

TEST(DownloadGenerator, RejectsAMaximumBelowTheMinimum) {
  // With an assert alone, a Release build ended in std::bad_alloc.
  const auto topo = make_topology();
  WorkloadConfig cfg;
  cfg.min_chunks_per_file = 100;
  cfg.max_chunks_per_file = 10;
  EXPECT_THROW(DownloadGenerator(topo, cfg, Rng(3)), std::invalid_argument);
  cfg.max_chunks_per_file = 100;
  EXPECT_NO_THROW(DownloadGenerator(topo, cfg, Rng(3)));
}

TEST(DownloadGenerator, ChunkAddressesInSpace) {
  const auto topo = make_topology();
  DownloadGenerator gen(topo, {}, Rng(5));
  const auto req = gen.next();
  for (const Address c : req.chunks) {
    EXPECT_TRUE(topo.space().contains(c));
  }
}

TEST(DownloadGenerator, FullShareMakesEveryNodeEligible) {
  const auto topo = make_topology(50);
  WorkloadConfig cfg;
  cfg.originator_share = 1.0;
  DownloadGenerator gen(topo, cfg, Rng(7));
  EXPECT_EQ(gen.eligible_originators().size(), 50u);
}

TEST(DownloadGenerator, PartialShareRestrictsOriginators) {
  const auto topo = make_topology(100);
  WorkloadConfig cfg;
  cfg.originator_share = 0.2;
  DownloadGenerator gen(topo, cfg, Rng(9));
  const auto& eligible = gen.eligible_originators();
  EXPECT_EQ(eligible.size(), 20u);
  const std::set<NodeIndex> allowed(eligible.begin(), eligible.end());
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(allowed.count(gen.next().originator));
  }
}

TEST(DownloadGenerator, ShareBelowOneNodeClampsToOne) {
  const auto topo = make_topology(100);
  WorkloadConfig cfg;
  cfg.originator_share = 0.0001;
  DownloadGenerator gen(topo, cfg, Rng(11));
  EXPECT_EQ(gen.eligible_originators().size(), 1u);
}

TEST(DownloadGenerator, AllEligibleOriginatorsGetUsed) {
  const auto topo = make_topology(20);
  WorkloadConfig cfg;
  cfg.originator_share = 1.0;
  cfg.min_chunks_per_file = 1;
  cfg.max_chunks_per_file = 1;
  DownloadGenerator gen(topo, cfg, Rng(13));
  std::set<NodeIndex> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(gen.next().originator);
  EXPECT_EQ(seen.size(), 20u);
}

TEST(DownloadGenerator, DeterministicGivenSeed) {
  const auto topo = make_topology();
  DownloadGenerator a(topo, {}, Rng(21));
  DownloadGenerator b(topo, {}, Rng(21));
  for (int i = 0; i < 10; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    EXPECT_EQ(ra.originator, rb.originator);
    EXPECT_EQ(ra.chunks, rb.chunks);
  }
}

TEST(DownloadGenerator, CatalogModeDrawsFromCatalog) {
  const auto topo = make_topology();
  WorkloadConfig cfg;
  cfg.catalog_size = 50;
  cfg.catalog_zipf_alpha = 1.0;
  cfg.min_chunks_per_file = 10;
  cfg.max_chunks_per_file = 10;
  DownloadGenerator gen(topo, cfg, Rng(23));
  ASSERT_EQ(gen.catalog().size(), 50u);
  const std::set<AddressValue> catalog = [&] {
    std::set<AddressValue> s;
    for (const Address a : gen.catalog()) s.insert(a.v);
    return s;
  }();
  for (int i = 0; i < 20; ++i) {
    for (const Address c : gen.next().chunks) {
      EXPECT_TRUE(catalog.count(c.v));
    }
  }
}

TEST(DownloadGenerator, ZipfOriginatorsAreSkewed) {
  const auto topo = make_topology(100);
  WorkloadConfig cfg;
  cfg.originator_zipf_alpha = 1.5;
  cfg.min_chunks_per_file = 1;
  cfg.max_chunks_per_file = 1;
  DownloadGenerator gen(topo, cfg, Rng(27));
  std::map<NodeIndex, int> counts;
  for (int i = 0; i < 5000; ++i) ++counts[gen.next().originator];
  int max_count = 0;
  for (const auto& [node, count] : counts) {
    max_count = std::max(max_count, count);
  }
  // Under uniform selection each node gets ~50; Zipf(1.5) concentrates
  // heavily on the first rank.
  EXPECT_GT(max_count, 500);
}

TEST(Trace, RoundTripsThroughCsv) {
  const auto topo = make_topology();
  DownloadGenerator gen(topo, {}, Rng(31));
  TraceRecorder rec;
  std::vector<DownloadRequest> original;
  for (int i = 0; i < 5; ++i) {
    const auto req = gen.next();
    rec.record(req);
    original.push_back(req);
  }
  const auto replayed = trace_from_csv(rec.to_csv());
  ASSERT_EQ(replayed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(replayed[i].originator, original[i].originator);
    EXPECT_EQ(replayed[i].chunks, original[i].chunks);
  }
}

// Strict-parsing and record/replay coverage lives in trace_test.cpp.

TEST(Trace, EmptyCsvEmptyTrace) {
  EXPECT_TRUE(trace_from_csv("").empty());
}

}  // namespace
}  // namespace fairswap::workload
