// Routing tables by their dense definition, kept as a test oracle.
//
// Topology::build finds each bucket's candidates as one run of a
// prefix-grouped layout and samples them straight into the compiled
// router's peer arena. This builds the same tables from the definition
// alone: the addresses drawn one by one with repeats rejected; then, node
// by node and bucket by bucket, bucket b's candidates are every other node
// whose address first differs from self's at bit b, in ascending
// NodeIndex, picked by the dense shuffle (reference_sampling.hpp), and
// each pick goes through RoutingTable::try_add. For equal (config, rng) the
// two must agree on every address, every bucket's peers in order and the
// rng's next draw; tests/overlay/topology_oracle_test.cpp checks that they
// do. Nothing outside tests/ and bench_scale links it.
#pragma once

#include <vector>

#include "common/address.hpp"
#include "common/rng.hpp"
#include "overlay/routing_table.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {

/// The addresses and every node's routing table, in NodeIndex order.
struct ReferenceTopology {
  std::vector<Address> addresses;
  std::vector<RoutingTable> tables;
};

/// Builds a valid `config`'s tables by the dense definition, drawing from
/// `rng` what Topology::build draws. O(n^2) time.
[[nodiscard]] ReferenceTopology reference_tables(const TopologyConfig& config,
                                                 Rng& rng);

}  // namespace fairswap::overlay
