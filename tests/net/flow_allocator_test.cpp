// Property/fuzz suite for the max-min fair allocator: over random link
// graphs and flow sets, (a) no link exceeds its capacity, (b) every flow
// is bottlenecked at a saturated link or its own cap, (c) the allocation
// is invariant to flow insertion order at full floating-point precision,
// (d) rates conserve per link — sum <= capacity with equality on
// saturated links, and (e) under random add/remove/clear churn the
// allocator matches the rescan-everything reference allocator
// (reference_allocator.hpp) bit for bit after every allocate().
#include "net/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference_allocator.hpp"

namespace fairswap::net {
namespace {

constexpr double kTol = 1e-9;

// --- deterministic unit cases -------------------------------------------

TEST(FairShareNetwork, SingleFlowGetsTheWholeLink) {
  FairShareNetwork net;
  const LinkId l = net.add_link(2.5);
  const FlowId f = net.add_flow(std::vector<LinkId>{l});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(f), 2.5);
  EXPECT_TRUE(net.link_saturated(l));
}

TEST(FairShareNetwork, EqualSharesOnASharedLink) {
  FairShareNetwork net;
  const LinkId l = net.add_link(3.0);
  const FlowId a = net.add_flow(std::vector<LinkId>{l});
  const FlowId b = net.add_flow(std::vector<LinkId>{l});
  const FlowId c = net.add_flow(std::vector<LinkId>{l});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(a), 1.0);
  EXPECT_DOUBLE_EQ(net.rate(b), 1.0);
  EXPECT_DOUBLE_EQ(net.rate(c), 1.0);
}

TEST(FairShareNetwork, WaterFillingReleasesSlackToUnbottleneckedFlows) {
  // Classic two-link example: flow A crosses the narrow link only, flow B
  // crosses both. A and B split the narrow link; B is then capped there,
  // and a third flow on the wide link alone soaks up the rest.
  FairShareNetwork net;
  const LinkId narrow = net.add_link(1.0);
  const LinkId wide = net.add_link(10.0);
  const FlowId a = net.add_flow(std::vector<LinkId>{narrow});
  const FlowId b = net.add_flow(std::vector<LinkId>{narrow, wide});
  const FlowId c = net.add_flow(std::vector<LinkId>{wide});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(a), 0.5);
  EXPECT_DOUBLE_EQ(net.rate(b), 0.5);
  EXPECT_DOUBLE_EQ(net.rate(c), 9.5);
  EXPECT_TRUE(net.link_saturated(narrow));
  EXPECT_TRUE(net.link_saturated(wide));
}

TEST(FairShareNetwork, RateCapFreezesBelowTheFairShare) {
  FairShareNetwork net;
  const LinkId l = net.add_link(4.0);
  const FlowId slow = net.add_flow(std::vector<LinkId>{l}, /*rate_cap=*/0.5);
  const FlowId fast = net.add_flow(std::vector<LinkId>{l});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(slow), 0.5);
  EXPECT_DOUBLE_EQ(net.rate(fast), 3.5);
}

TEST(FairShareNetwork, RemoveFlowRecyclesSlotAndFreesBandwidth) {
  FairShareNetwork net;
  const LinkId l = net.add_link(2.0);
  const FlowId a = net.add_flow(std::vector<LinkId>{l});
  const FlowId b = net.add_flow(std::vector<LinkId>{l});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(a), 1.0);
  net.remove_flow(a);
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(b), 2.0);
  const FlowId c = net.add_flow(std::vector<LinkId>{l});
  EXPECT_EQ(c, a);  // slot recycled
  EXPECT_EQ(net.active_flows().size(), 2u);
}

TEST(FairShareNetwork, FlowWithoutLinksOrCapIsRejected) {
  FairShareNetwork net;
  EXPECT_THROW(net.add_flow(std::vector<LinkId>{}), std::invalid_argument);
  const FlowId f =
      net.add_flow(std::vector<LinkId>{}, /*rate_cap=*/1.25);
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(f), 1.25);
}

TEST(FairShareNetwork, UnknownLinkIsRejectedWithoutSideEffects) {
  FairShareNetwork net;
  const LinkId l = net.add_link(1.0);
  EXPECT_THROW(net.add_flow(std::vector<LinkId>{l, 7}), std::out_of_range);
  EXPECT_TRUE(net.active_flows().empty());
  const FlowId f = net.add_flow(std::vector<LinkId>{l});
  EXPECT_EQ(f, 0u);  // the rejected flow took no slot
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(f), 1.0);  // and left no load on the link
}

TEST(FairShareNetwork, ZeroCapacityLinkStarvesItsFlows) {
  FairShareNetwork net;
  const LinkId dead = net.add_link(0.0);
  const LinkId live = net.add_link(1.0);
  const FlowId starved = net.add_flow(std::vector<LinkId>{dead, live});
  const FlowId fine = net.add_flow(std::vector<LinkId>{live});
  net.allocate();
  EXPECT_DOUBLE_EQ(net.rate(starved), 0.0);
  EXPECT_DOUBLE_EQ(net.rate(fine), 1.0);
}

TEST(FairShareNetwork, CapReachedInASaturatingRoundSettlesAtTheCap) {
  // Round 1 stops at the 0.15 cap. In round 2 link b's share
  // (0.9 - 2 * 0.15) / 2 ties the 0.45 cap's distance 0.45 - 0.15, both
  // rounding to 0.30000000000000004, so the level ends at
  // 0.45000000000000007: the uncapped flow on b takes the level, the
  // capped one must take its cap exactly.
  FairShareNetwork net;
  const LinkId a = net.add_link(0.7);
  const LinkId b = net.add_link(0.9);
  const LinkId c = net.add_link(0.3);
  const LinkId d = net.add_link(1.3);
  net.add_flow(std::vector<LinkId>{a});
  net.add_flow(std::vector<LinkId>{d}, /*rate_cap=*/0.7);
  const FlowId uncapped = net.add_flow(std::vector<LinkId>{b});
  net.add_flow(std::vector<LinkId>{a, c}, /*rate_cap=*/0.15);
  const FlowId capped = net.add_flow(std::vector<LinkId>{b}, /*rate_cap=*/0.45);
  net.allocate();
  EXPECT_TRUE(net.link_saturated(b));
  EXPECT_EQ(net.rate(uncapped), 0.15 + (0.45 - 0.15));
  EXPECT_NE(net.rate(uncapped), 0.45);
  EXPECT_EQ(net.rate(capped), 0.45);
}

// --- property / fuzz ----------------------------------------------------

struct RandomCase {
  std::vector<double> capacities;
  /// Per flow: links crossed + optional cap (infinity = none).
  std::vector<std::pair<std::vector<LinkId>, double>> flows;
};

RandomCase random_case(Rng& rng) {
  RandomCase c;
  const std::size_t links = 1 + rng.next_below(20);
  c.capacities.reserve(links);
  for (std::size_t l = 0; l < links; ++l) {
    // 0.1 .. ~10 with occasional zero-capacity links.
    const bool dead = rng.next_below(20) == 0;
    c.capacities.push_back(
        dead ? 0.0
             : 0.1 + static_cast<double>(rng.next_below(1000)) / 100.0);
  }
  const std::size_t flows = 1 + rng.next_below(40);
  for (std::size_t f = 0; f < flows; ++f) {
    std::vector<LinkId> crossed;
    const std::size_t count = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < count; ++i) {
      crossed.push_back(static_cast<LinkId>(rng.next_below(links)));
    }
    const bool capped = rng.next_below(3) == 0;
    const double cap =
        capped ? 0.05 + static_cast<double>(rng.next_below(500)) / 100.0
               : FairShareNetwork::kUncapped;
    c.flows.emplace_back(std::move(crossed), cap);
  }
  return c;
}

/// Builds a network holding the case's flows added in `order` and
/// allocates. Returns the rate of every *case* flow (order-independent
/// indexing).
std::vector<double> allocate_in_order(const RandomCase& c,
                                      const std::vector<std::size_t>& order) {
  FairShareNetwork net;
  for (const double cap : c.capacities) net.add_link(cap);
  std::vector<double> rates(c.flows.size(), -1.0);
  std::vector<FlowId> slot(c.flows.size());
  for (const std::size_t f : order) {
    slot[f] = net.add_flow(c.flows[f].first, c.flows[f].second);
  }
  net.allocate();
  for (std::size_t f = 0; f < c.flows.size(); ++f) {
    rates[f] = net.rate(slot[f]);
  }
  return rates;
}

TEST(FairShareNetworkProperty, RandomCasesSatisfyMaxMinInvariants) {
  Rng rng(0xF10Fu);
  for (int iter = 0; iter < 200; ++iter) {
    const RandomCase c = random_case(rng);

    FairShareNetwork net;
    for (const double cap : c.capacities) net.add_link(cap);
    std::vector<FlowId> slot(c.flows.size());
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      slot[f] = net.add_flow(c.flows[f].first, c.flows[f].second);
    }
    net.allocate();

    // Per-link rate sums.
    std::vector<double> used(c.capacities.size(), 0.0);
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      for (const LinkId l : net.flow_links(slot[f])) {
        used[l] += net.rate(slot[f]);
      }
    }

    for (std::size_t l = 0; l < c.capacities.size(); ++l) {
      // (a) no link over capacity.
      EXPECT_LE(used[l], c.capacities[l] + kTol) << "iter " << iter;
      // (d) equality on saturated links.
      if (net.link_saturated(static_cast<LinkId>(l))) {
        EXPECT_NEAR(used[l], c.capacities[l], kTol) << "iter " << iter;
      }
    }

    // (b) every flow is bottlenecked: rate == own cap, or it crosses a
    // saturated link.
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      const double rate = net.rate(slot[f]);
      EXPECT_GE(rate, 0.0);
      const bool at_cap = c.flows[f].second != FairShareNetwork::kUncapped &&
                          std::abs(rate - c.flows[f].second) <= kTol;
      bool at_link = false;
      for (const LinkId l : net.flow_links(slot[f])) {
        at_link = at_link || net.link_saturated(l);
      }
      EXPECT_TRUE(at_cap || at_link)
          << "iter " << iter << ": flow " << f << " rate " << rate
          << " is not bottlenecked anywhere";
    }
  }
}

TEST(FairShareNetworkProperty, AllocationInvariantToInsertionOrderExactly) {
  Rng rng(0xBEEFu);
  for (int iter = 0; iter < 100; ++iter) {
    const RandomCase c = random_case(rng);

    std::vector<std::size_t> order(c.flows.size());
    std::iota(order.begin(), order.end(), 0);
    const std::vector<double> forward = allocate_in_order(c, order);

    std::reverse(order.begin(), order.end());
    const std::vector<double> reverse = allocate_in_order(c, order);

    // Deterministic shuffle from the fuzz stream.
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    const std::vector<double> shuffled = allocate_in_order(c, order);

    // Bit-identical, not approximately equal: the allocator's arithmetic
    // runs over per-link aggregates in canonical link order, so the
    // result cannot depend on which flow arrived first.
    EXPECT_EQ(forward, reverse) << "iter " << iter;
    EXPECT_EQ(forward, shuffled) << "iter " << iter;
  }
}

TEST(FairShareNetworkProperty, ReallocationAfterRemovalsKeepsInvariants) {
  Rng rng(0xCAFEu);
  for (int iter = 0; iter < 50; ++iter) {
    const RandomCase c = random_case(rng);
    FairShareNetwork net;
    for (const double cap : c.capacities) net.add_link(cap);
    std::vector<FlowId> slot(c.flows.size());
    std::vector<bool> alive(c.flows.size(), true);
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      slot[f] = net.add_flow(c.flows[f].first, c.flows[f].second);
    }
    net.allocate();

    // Remove a random half and reallocate.
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      if (rng.next_below(2) == 0) {
        net.remove_flow(slot[f]);
        alive[f] = false;
      }
    }
    net.allocate();

    std::vector<double> used(c.capacities.size(), 0.0);
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      if (!alive[f]) continue;
      for (const LinkId l : net.flow_links(slot[f])) {
        used[l] += net.rate(slot[f]);
      }
    }
    for (std::size_t l = 0; l < c.capacities.size(); ++l) {
      EXPECT_LE(used[l], c.capacities[l] + kTol) << "iter " << iter;
      if (net.link_saturated(static_cast<LinkId>(l))) {
        EXPECT_NEAR(used[l], c.capacities[l], kTol) << "iter " << iter;
      }
    }
  }
}

// --- churn oracle ----------------------------------------------------------

/// Asserts `net` and the reference hold the same flows at bit-identical
/// rates with the same saturation state.
void expect_same_allocation(const FairShareNetwork& net,
                            const ReferenceFairShareNetwork& ref,
                            const std::string& where) {
  ASSERT_EQ(net.active_flows().size(), ref.active_flows().size()) << where;
  std::size_t i = 0;
  for (const FlowId f : net.active_flows()) {
    ASSERT_EQ(f, ref.active_flows()[i++]) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(net.rate(f)),
              std::bit_cast<std::uint64_t>(ref.rate(f)))
        << where << ": flow " << f << " rate " << net.rate(f)
        << " vs reference " << ref.rate(f);
  }
  for (LinkId l = 0; l < net.link_count(); ++l) {
    EXPECT_EQ(net.link_saturated(l), ref.link_saturated(l))
        << where << ": link " << l;
  }
  EXPECT_EQ(net.ever_saturated_count(), ref.ever_saturated_count()) << where;
}

/// Drives both allocators through one random churn sequence: adds (with
/// duplicate links, caps and link-less capped flows), removals that free
/// slots for reuse, occasional clear_flows, and allocate() checks.
void run_churn(Rng& rng, std::size_t max_links, std::size_t ops,
               const std::string& label) {
  FairShareNetwork net;
  ReferenceFairShareNetwork ref;
  const std::size_t links = 1 + rng.next_below(max_links);
  // Capacities and caps share a small alphabet of decimal fractions that
  // do not round-trip in binary. Exact ties between link shares and cap
  // distances become common (several bottlenecks per round), and the water
  // level picks up rounding, so a cap reached in a saturating round can
  // differ from the level.
  constexpr double kAlphabet[] = {0.05, 0.1, 0.15, 0.3, 0.45, 0.7, 0.9, 1.3};
  const auto from_alphabet = [&] {
    return kAlphabet[rng.next_below(std::size(kAlphabet))];
  };
  for (std::size_t l = 0; l < links; ++l) {
    const std::uint64_t pick = rng.next_below(8);
    const double cap = pick == 0   ? 0.0
                       : pick < 6 ? from_alphabet()
                                  : 0.01 + rng.uniform01() * 5.0;
    ASSERT_EQ(net.add_link(cap), ref.add_link(cap));
  }
  std::vector<FlowId> live;
  std::vector<LinkId> crossed;
  for (std::size_t op = 0; op < ops; ++op) {
    const std::string where = label + " op " + std::to_string(op);
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 55) {
      crossed.clear();
      const std::size_t count = rng.next_below(7);  // 0..6, repeats allowed
      for (std::size_t i = 0; i < count; ++i) {
        crossed.push_back(static_cast<LinkId>(rng.next_below(links)));
      }
      const std::uint64_t pick = rng.next_below(8);
      const double cap = pick < 3 || crossed.empty() ? from_alphabet()
                         : pick < 4 ? 0.05 + rng.uniform01() * 3.0
                                    : FairShareNetwork::kUncapped;
      const FlowId id = net.add_flow(crossed, cap);
      ASSERT_EQ(id, ref.add_flow(crossed, cap)) << where;
      live.push_back(id);
    } else if (kind < 80) {
      if (live.empty()) continue;
      const std::size_t pick = rng.next_below(live.size());
      net.remove_flow(live[pick]);
      ref.remove_flow(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else if (kind < 99) {
      net.allocate();
      ref.allocate();
      expect_same_allocation(net, ref, where);
    } else {
      net.clear_flows();
      ref.clear_flows();
      live.clear();
      expect_same_allocation(net, ref, where + " (cleared)");
    }
  }
  net.allocate();
  ref.allocate();
  expect_same_allocation(net, ref, label + " final");
}

TEST(FairShareNetworkOracle, ChurnMatchesReferenceBitForBit) {
  Rng rng(0x0AC1Eu);
  for (int iter = 0; iter < 150; ++iter) {
    run_churn(rng, /*max_links=*/24, /*ops=*/300,
              "small iter " + std::to_string(iter));
    if (HasFatalFailure()) return;
  }
  // Flow-simulator scale: hundreds of links, thousands of flows alive at
  // once, many saturation rounds per allocate().
  for (int iter = 0; iter < 3; ++iter) {
    run_churn(rng, /*max_links=*/600, /*ops=*/6000,
              "large iter " + std::to_string(iter));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace fairswap::net
