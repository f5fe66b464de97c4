// Report helpers: turn ExperimentResults into the CSV series and text
// blocks the benches print, and optionally persist them to disk.
#pragma once

#include <string>
#include <vector>

#include "common/gini.hpp"
#include "common/histogram.hpp"
#include "core/experiment.hpp"

namespace fairswap::core {

/// CSV with one labeled Lorenz curve per result:
/// "label,population_share,value_share".
[[nodiscard]] std::string lorenz_csv(
    const std::vector<const ExperimentResult*>& results, bool f1_curve);

/// CSV of a per-node series: "label,node,value".
[[nodiscard]] std::string per_node_csv(
    const std::string& label, const std::vector<std::uint64_t>& values);

/// CSV of the network-wide totals, one row per result — the route
/// accounting (delivered / refused / failed / truncated) the scale
/// scenarios monitor.
[[nodiscard]] std::string totals_csv(
    const std::vector<const ExperimentResult*>& results);

/// Histogram over served-chunks per node (Fig. 4 panel series) with
/// `bins` equal-width bins spanning all results so curves are comparable.
[[nodiscard]] std::vector<Histogram> served_histograms(
    const std::vector<const ExperimentResult*>& results, std::size_t bins);

/// A one-paragraph text summary of a result (used by examples).
[[nodiscard]] std::string summarize_result(const ExperimentResult& result);

/// Writes `content` to `path`, creating parent directories; throws
/// std::runtime_error naming the path when the write fails.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace fairswap::core
