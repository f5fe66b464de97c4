// Workload generation — the paper's download model (§IV-B):
//
//   "To simulate each download request, a random originator generates
//    random chunk requests (all randomness is generated from the uniform
//    distribution). ... a single originator requests a random number of
//    chunks, between 100 and 1000. We call one such step the download of a
//    file. The addresses of chunks are chosen uniformly at random from the
//    complete address space, 0 to 2^16."
//
//   "We perform different simulations where we pick originators uniformly
//    from either 20% or 100% of the nodes, to evaluate the effect of
//    skewed workloads."
//
// Extensions beyond the paper: a fixed content catalog with Zipf
// popularity (for the §V caching thread), and an optional Zipf weighting
// over originators.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/address.hpp"
#include "common/rng.hpp"
#include "overlay/topology.hpp"

namespace fairswap::workload {

using overlay::NodeIndex;

/// One simulated file transfer: an originator plus the chunk addresses it
/// must fetch (download) or push toward their storers (upload). The paper
/// focuses on downloads; uploads traverse the same routes in the opposite
/// data direction ("Upload is done in a similar fashion, where nodes
/// forward the chunk and eventually return a confirmation", §III-A).
struct DownloadRequest {
  NodeIndex originator{0};
  std::vector<Address> chunks;
  bool is_upload{false};
};

/// Generator parameters (paper defaults).
struct WorkloadConfig {
  /// Chunks per file are drawn uniformly from [min, max].
  std::size_t min_chunks_per_file{100};
  std::size_t max_chunks_per_file{1000};
  /// Fraction of nodes eligible to originate downloads, in (0, 1] (paper:
  /// 0.2 or 1.0).
  double originator_share{1.0};
  /// Fraction of file transfers that are uploads (paper: 0; uploads use
  /// the same routing and pricing in the opposite data direction).
  double upload_share{0.0};
  /// Zipf exponent over the eligible originators; 0 = uniform (paper).
  double originator_zipf_alpha{0.0};
  /// If > 0, chunk addresses come from a fixed catalog of this many
  /// uniformly pre-drawn addresses, selected per request with Zipf
  /// popularity `catalog_zipf_alpha`. If 0 (paper), every chunk address is
  /// drawn fresh and uniform.
  std::size_t catalog_size{0};
  double catalog_zipf_alpha{0.8};
};

/// Deterministic stream of DownloadRequests over a fixed topology.
class DownloadGenerator {
 public:
  /// The eligible-originator subset and the catalog (if any) are sampled
  /// once at construction from `rng`; subsequent requests consume the same
  /// stream, so a (topology, config, seed) triple fully determines the
  /// workload. Throws std::invalid_argument unless
  /// 1 <= min_chunks_per_file <= max_chunks_per_file.
  DownloadGenerator(const overlay::Topology& topo, WorkloadConfig config,
                    Rng rng);

  /// Produces the next file download. The request lives in a buffer the
  /// generator owns: the reference stays valid until the next call to
  /// next() (or the generator's destruction), and the next call
  /// overwrites it. Copy the request to keep it longer.
  [[nodiscard]] const DownloadRequest& next();

  [[nodiscard]] const WorkloadConfig& config() const noexcept {
    return config_;
  }

  /// The nodes eligible to originate (size = ceil(share * node_count)).
  [[nodiscard]] const std::vector<NodeIndex>& eligible_originators()
      const noexcept {
    return originators_;
  }

  /// The fixed catalog (empty when catalog_size == 0).
  [[nodiscard]] const std::vector<Address>& catalog() const noexcept {
    return catalog_;
  }

 private:
  const overlay::Topology* topo_;
  WorkloadConfig config_;
  Rng rng_;
  std::vector<NodeIndex> originators_;
  std::optional<ZipfSampler> originator_zipf_;
  std::vector<Address> catalog_;
  std::optional<ZipfSampler> catalog_zipf_;
  /// The request next() refills and returns.
  DownloadRequest request_;
};

}  // namespace fairswap::workload
