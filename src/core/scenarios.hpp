// Canned experiment configurations reproducing the paper's evaluation
// grid: 1000 nodes, 16-bit address space, 16 buckets, 10k file downloads,
// k in {4, 20} x originator share in {20%, 100%} — plus the scale grid
// (10k nodes on a 20-bit space) the compiled routing hot path enables.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"

namespace fairswap::core {

/// One cell of the paper's grid.
[[nodiscard]] ExperimentConfig paper_config(
    std::size_t k, double originator_share, std::size_t files = 10'000,
    std::uint64_t seed = kDefaultSeed);

/// The full 2x2 grid, in the paper's reporting order:
/// (k=4, 20%), (k=4, 100%), (k=20, 20%), (k=20, 100%).
[[nodiscard]] std::vector<ExperimentConfig> paper_grid(
    std::size_t files = 10'000, std::uint64_t seed = kDefaultSeed);

/// "k=4, 20% originators" style label.
[[nodiscard]] std::string scenario_label(std::size_t k,
                                         double originator_share);

/// One cell of the scale grid: `node_count` nodes on an `address_bits`-bit
/// space with the paper's workload shape. Related incentive analyses
/// (PAPERS.md) argue fairness conclusions only become credible well beyond
/// 1000 nodes; this is the configuration bench_scale folds over seeds
/// through harness::run_plan.
[[nodiscard]] ExperimentConfig scale_config(std::size_t node_count,
                                            int address_bits, std::size_t k,
                                            double originator_share = 1.0,
                                            std::size_t files = 1'000,
                                            std::uint64_t seed = kDefaultSeed);

/// The scale grid across the paper's k in {4, 20}: default 10k nodes on a
/// 20-bit address space.
[[nodiscard]] std::vector<ExperimentConfig> scale_grid(
    std::size_t node_count = 10'000, int address_bits = 20,
    std::size_t files = 1'000, std::uint64_t seed = kDefaultSeed);

/// "10000 nodes, 20-bit, k=4" style label.
[[nodiscard]] std::string scale_label(std::size_t node_count, int address_bits,
                                      std::size_t k);

}  // namespace fairswap::core
