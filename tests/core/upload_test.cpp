#include <gtest/gtest.h>

#include "common/gini.hpp"
#include "core/simulation.hpp"

namespace fairswap::core {
namespace {

overlay::Topology make_topology(std::size_t nodes = 200,
                                std::uint64_t seed = 1) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 12;
  cfg.buckets.k = 4;
  Rng rng(seed);
  return overlay::Topology::build(cfg, rng);
}

SimulationConfig upload_config(double upload_share) {
  SimulationConfig cfg;
  cfg.workload.min_chunks_per_file = 10;
  cfg.workload.max_chunks_per_file = 50;
  cfg.workload.upload_share = upload_share;
  return cfg;
}

TEST(Upload, PureDownloadWorkloadHasNoUploads) {
  const auto topo = make_topology();
  Simulation sim(topo, upload_config(0.0), Rng(2));
  sim.run(30);
  EXPECT_EQ(sim.totals().upload_files, 0u);
  EXPECT_EQ(sim.totals().upload_requests, 0u);
}

TEST(Upload, PureUploadWorkloadIsAllUploads) {
  const auto topo = make_topology();
  Simulation sim(topo, upload_config(1.0), Rng(3));
  sim.run(30);
  EXPECT_EQ(sim.totals().upload_files, 30u);
  EXPECT_EQ(sim.totals().upload_requests, sim.totals().chunk_requests);
}

TEST(Upload, MixedWorkloadSplitsRoughlyByShare) {
  const auto topo = make_topology();
  Simulation sim(topo, upload_config(0.5), Rng(4));
  sim.run(200);
  const double share = static_cast<double>(sim.totals().upload_files) / 200.0;
  EXPECT_NEAR(share, 0.5, 0.12);
  EXPECT_LT(sim.totals().upload_requests, sim.totals().chunk_requests);
}

TEST(Upload, UploadShareZeroDoesNotPerturbWorkloadStream) {
  // chance(0.0) must not consume randomness: a pure-download run with the
  // new knob matches the historical stream bit-for-bit.
  const auto topo = make_topology();
  Simulation a(topo, upload_config(0.0), Rng(5));
  SimulationConfig legacy;
  legacy.workload.min_chunks_per_file = 10;
  legacy.workload.max_chunks_per_file = 50;
  Simulation b(topo, legacy, Rng(5));
  a.run(20);
  b.run(20);
  EXPECT_EQ(a.served_per_node(), b.served_per_node());
  EXPECT_EQ(a.income_per_node(), b.income_per_node());
}

TEST(Upload, UploadsUseSameRoutesAndAccounting) {
  // Upload and download of the same chunk by the same originator traverse
  // the same greedy route and pay the same first hop.
  const auto topo = make_topology();
  SimulationConfig cfg;
  Simulation down(topo, cfg, Rng(6));
  Simulation up(topo, cfg, Rng(6));
  workload::DownloadRequest down_req;
  down_req.originator = 3;
  down_req.chunks = {Address{100}, Address{2000}, Address{3777}};
  workload::DownloadRequest up_req = down_req;
  up_req.is_upload = true;
  down.apply(down_req);
  up.apply(up_req);
  EXPECT_EQ(down.served_per_node(), up.served_per_node());
  EXPECT_EQ(down.first_hop_per_node(), up.first_hop_per_node());
  EXPECT_EQ(down.income_per_node(), up.income_per_node());
  EXPECT_EQ(up.totals().upload_files, 1u);
  EXPECT_EQ(up.totals().upload_requests, 3u);
  // An upload counts as a file, and it pays first hops.
  EXPECT_EQ(up.totals().files, 1u);
  double income = 0;
  for (const double v : up.income_per_node()) income += v;
  EXPECT_GT(income, 0.0);
}

TEST(Upload, FairnessIsWorkloadDirectionAgnostic) {
  // Because uploads mirror downloads, a 100%-upload experiment produces
  // the same fairness structure as a 100%-download one with the same
  // routes; the Gini should be statistically close.
  const auto topo = make_topology(300, 9);
  Simulation down(topo, upload_config(0.0), Rng(7));
  Simulation up(topo, upload_config(1.0), Rng(7));
  down.run(150);
  up.run(150);
  const auto income_gini = [](const Simulation& s) {
    const auto income = s.income_per_node();
    return gini(std::span<const double>(income));
  };
  EXPECT_NEAR(income_gini(down), income_gini(up), 0.05);
}

}  // namespace
}  // namespace fairswap::core
