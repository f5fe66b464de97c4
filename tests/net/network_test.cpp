#include "net/network.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "oracles/forwarding_router.hpp"

namespace fairswap::net {
namespace {

overlay::Topology make_topology(std::size_t nodes = 200, std::size_t k = 4,
                                std::uint64_t seed = 1) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 12;
  cfg.buckets.k = k;
  Rng rng(seed);
  return overlay::Topology::build(cfg, rng);
}

TEST(Network, LocalHitCompletesWithZeroLatency) {
  const auto topo = make_topology();
  Network net(topo, {});
  const overlay::NodeIndex origin = 7;
  const Address own = topo.address_of(origin);
  bool done = false;
  net.retrieve(origin, own, [&](const RetrievalResult& r) {
    done = true;
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.latency, 0u);
    EXPECT_EQ(r.path, (std::vector<overlay::NodeIndex>{origin}));
  });
  net.run();
  EXPECT_TRUE(done);
}

TEST(Network, RetrievalSucceedsAndReturnsChunk) {
  const auto topo = make_topology();
  Network net(topo, {});
  Rng rng(3);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    const auto origin =
        static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    net.retrieve(origin, chunk, [&](const RetrievalResult& r) {
      ++completed;
      EXPECT_TRUE(r.success);
      EXPECT_EQ(r.path.back(), topo.closest_node(r.chunk));
    });
  }
  net.run();
  EXPECT_EQ(completed, 100);
}

TEST(Network, PathMatchesStepBasedRouter) {
  // The message-level and step-based simulators are the same protocol at
  // different granularity: paths must be identical.
  const auto topo = make_topology(300, 4, 5);
  Network net(topo, {});
  const overlay::ForwardingRouter router(topo);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto origin =
        static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const auto expected = router.route(origin, chunk);
    net.retrieve(origin, chunk, [&, expected](const RetrievalResult& r) {
      EXPECT_EQ(r.success, expected.reached_storer);
      if (r.success) {
        EXPECT_EQ(r.path, expected.path);
      }
    });
  }
  net.run();
}

TEST(Network, LatencyIsRoundTripOverLinks) {
  const auto topo = make_topology();
  NetworkConfig cfg;
  cfg.latency.base = 10;
  cfg.latency.jitter = 0;  // constant 10 per hop
  Network net(topo, cfg);
  Rng rng(9);
  int checked = 0;
  for (int i = 0; i < 50; ++i) {
    const auto origin =
        static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    net.retrieve(origin, chunk, [&](const RetrievalResult& r) {
      if (!r.success) return;
      // Request travels hops links, the chunk travels them back.
      const auto hops = r.path.size() - 1;
      EXPECT_EQ(r.latency, 2 * 10 * hops);
      ++checked;
    });
  }
  net.run();
  EXPECT_GT(checked, 0);
}

TEST(Network, JitteredLatencyIsSymmetricAndStable) {
  LatencyModel model({.base = 5, .jitter = 30, .seed = 42});
  for (overlay::NodeIndex a = 0; a < 20; ++a) {
    for (overlay::NodeIndex b = 0; b < 20; ++b) {
      if (a == b) continue;
      EXPECT_EQ(model.latency(a, b), model.latency(b, a));
      EXPECT_GE(model.latency(a, b), 5u);
      EXPECT_LT(model.latency(a, b), 35u);
      EXPECT_EQ(model.latency(a, b), model.latency(a, b));
    }
  }
}

TEST(Network, TrafficCountersConsistent) {
  const auto topo = make_topology();
  Network net(topo, {});
  Rng rng(11);
  std::size_t successes = 0;
  std::size_t path_edges = 0;
  for (int i = 0; i < 100; ++i) {
    const auto origin =
        static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    net.retrieve(origin, chunk, [&](const RetrievalResult& r) {
      if (r.success) {
        ++successes;
        path_edges += r.path.size() - 1;
      }
    });
  }
  net.run();
  // Every path edge corresponds to exactly one chunk transmission.
  std::uint64_t sent = 0;
  for (const auto& t : net.traffic()) sent += t.chunks_sent;
  EXPECT_EQ(sent, path_edges);
  EXPECT_GT(successes, 90u);
}

TEST(Network, ConcurrentRetrievalsInterleaveCorrectly) {
  const auto topo = make_topology();
  NetworkConfig cfg;
  cfg.latency.jitter = 50;
  cfg.latency.seed = 99;
  Network net(topo, cfg);
  Rng rng(13);
  // Issue 500 retrievals at t=0; all must complete with correct storers.
  int completed = 0;
  for (int i = 0; i < 500; ++i) {
    const auto origin =
        static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    net.retrieve(origin, chunk, [&](const RetrievalResult& r) {
      ++completed;
      if (r.success) {
        EXPECT_EQ(r.path.back(), topo.closest_node(r.chunk));
      }
    });
  }
  net.run();
  EXPECT_EQ(completed, 500);
}

TEST(Network, MessagesScaleWithHops) {
  const auto topo = make_topology();
  Network net(topo, {});
  std::size_t edges = 0;
  Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    const auto origin =
        static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    net.retrieve(origin, chunk, [&](const RetrievalResult& r) {
      if (r.success) edges += r.path.size() - 1;
    });
  }
  net.run();
  // Per successful retrieval: hops requests (+1 self-delivery) and hops
  // deliveries; failures add fail messages. Lower bound: 2 * edges.
  EXPECT_GE(net.messages_sent(), 2 * edges);
}

TEST(Network, RunUntilAllowsPartialProgress) {
  const auto topo = make_topology();
  NetworkConfig cfg;
  cfg.latency.base = 100;
  cfg.latency.jitter = 0;
  Network net(topo, cfg);
  bool done = false;
  // Pick an origin whose chunk is not local (forces >= 1 hop).
  Rng rng(17);
  overlay::NodeIndex origin = 0;
  Address chunk{};
  for (;;) {
    origin = static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    chunk = Address{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    if (topo.closest_node(chunk) != origin) break;
  }
  net.retrieve(origin, chunk, [&](const RetrievalResult&) { done = true; });
  net.run_until(50);  // less than one link latency
  EXPECT_FALSE(done);
  net.run();
  EXPECT_TRUE(done);
}

TEST(MessageTypeNames, AllNamed) {
  EXPECT_STREQ(message_type_name(MessageType::kRetrieveRequest), "retrieve");
  EXPECT_STREQ(message_type_name(MessageType::kChunkDelivery), "deliver");
  EXPECT_STREQ(message_type_name(MessageType::kRetrieveFail), "fail");
}

}  // namespace
}  // namespace fairswap::net
