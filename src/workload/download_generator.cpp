#include "workload/download_generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fairswap::workload {

DownloadGenerator::DownloadGenerator(const overlay::Topology& topo,
                                     WorkloadConfig config, Rng rng)
    : topo_(&topo), config_(config), rng_(rng) {
  if (config_.min_chunks_per_file < 1) {
    throw std::invalid_argument(
        "DownloadGenerator: min_chunks_per_file must be at least 1");
  }
  if (config_.max_chunks_per_file < config_.min_chunks_per_file) {
    throw std::invalid_argument(
        "DownloadGenerator: max_chunks_per_file must be >= "
        "min_chunks_per_file");
  }

  // Written so that NaN fails too: it would reach the cast below.
  const double share = config_.originator_share;
  if (!(share > 0.0 && share <= 1.0)) {
    throw std::invalid_argument(
        "DownloadGenerator: originator_share must be in (0, 1]");
  }

  // Eligible originators: a uniformly sampled subset of ceil(share * n).
  const auto n = topo.node_count();
  const auto want = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(n)));
  const auto count = std::max<std::size_t>(1, std::min(want, n));
  const auto picks = rng_.sample_without_replacement(n, count);
  originators_.reserve(count);
  for (std::size_t p : picks) originators_.push_back(static_cast<NodeIndex>(p));
  std::sort(originators_.begin(), originators_.end());

  // Any non-zero exponent goes through the sampler, which rejects a
  // negative or non-finite one; 0 is the paper's uniform pick.
  if (config_.originator_zipf_alpha != 0.0) {
    originator_zipf_.emplace(originators_.size(),
                             config_.originator_zipf_alpha);
  }

  if (config_.catalog_size > 0) {
    // The sampler validates the size before the catalog allocates it.
    catalog_zipf_.emplace(config_.catalog_size, config_.catalog_zipf_alpha);
    catalog_.reserve(config_.catalog_size);
    for (std::size_t i = 0; i < config_.catalog_size; ++i) {
      catalog_.push_back(Address{
          static_cast<AddressValue>(rng_.next_below(topo.space().size()))});
    }
  }
}

const DownloadRequest& DownloadGenerator::next() {
  DownloadRequest& req = request_;
  req.is_upload = rng_.chance(config_.upload_share);

  // Originator.
  if (originator_zipf_) {
    req.originator = originators_[originator_zipf_->sample(rng_)];
  } else {
    req.originator = originators_[rng_.index(originators_.size())];
  }

  // Chunk count: uniform in [min, max]. clear() keeps the buffer's
  // capacity, so once it has held the largest file nothing allocates.
  const auto chunks = static_cast<std::size_t>(rng_.uniform_int(
      static_cast<std::int64_t>(config_.min_chunks_per_file),
      static_cast<std::int64_t>(config_.max_chunks_per_file)));
  req.chunks.clear();
  req.chunks.reserve(chunks);

  if (catalog_zipf_) {
    for (std::size_t c = 0; c < chunks; ++c) {
      req.chunks.push_back(catalog_[catalog_zipf_->sample(rng_)]);
    }
  } else {
    const std::uint64_t space = topo_->space().size();
    for (std::size_t c = 0; c < chunks; ++c) {
      req.chunks.push_back(
          Address{static_cast<AddressValue>(rng_.next_below(space))});
    }
  }
  return req;
}

}  // namespace fairswap::workload
