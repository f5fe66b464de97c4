#include "workload/engine.hpp"

#include <cmath>
#include <stdexcept>

namespace fairswap::workload {

namespace {

/// Side-stream ids on the workload rng (the base generator consumes the
/// parent stream itself; these must never collide with each other).
constexpr std::uint64_t kBurstDecisionStream = 1;
constexpr std::uint64_t kHotFileStream = 2;

}  // namespace

DemandConfig::Kind parse_demand_kind(const std::string& name) {
  if (name == "uniform") return DemandConfig::Kind::kUniform;
  if (name == "zipf") return DemandConfig::Kind::kZipf;
  throw std::invalid_argument("demand: expected uniform|zipf, got '" + name +
                              "'");
}

std::string demand_kind_name(DemandConfig::Kind kind) {
  switch (kind) {
    case DemandConfig::Kind::kUniform:
      return "uniform";
    case DemandConfig::Kind::kZipf:
      return "zipf";
  }
  return "uniform";
}

WorkloadConfig DemandEngine::effective_base(WorkloadConfig base,
                                            const DemandConfig& d) {
  if (d.kind == DemandConfig::Kind::kZipf) {
    // Generalize the generator's catalog hook: the zipf demand process is
    // the catalog machinery with the popularity exponent under demand
    // control. An explicit catalog_size from the base config wins.
    if (base.catalog_size == 0) base.catalog_size = d.catalog;
    base.catalog_zipf_alpha = d.zipf_s;
  }
  return base;
}

DemandEngine::DemandEngine(const overlay::Topology& topo, WorkloadConfig base,
                           DemandConfig demand, Rng rng)
    : demand_(demand),
      // rng passes through unchanged: default demand == the plain
      // generator stream, bit for bit.
      base_(topo, effective_base(base, demand), rng),
      burst_rng_(rng.split(kBurstDecisionStream)) {
  if (demand_.kind == DemandConfig::Kind::kZipf && demand_.catalog == 0 &&
      base.catalog_size == 0) {
    throw std::invalid_argument("demand=zipf requires a catalog size > 0");
  }
  if (demand_.burst_share < 0.0 || demand_.burst_share > 1.0) {
    throw std::invalid_argument("burst_share must be in [0, 1]");
  }
  if (demand_.diurnal_amp < 0.0 || demand_.diurnal_amp >= 1.0) {
    throw std::invalid_argument("diurnal_amp must be in [0, 1)");
  }
  if (demand_.burst_files > 0) {
    // The hot file is one fixed chunk set sampled from its own side
    // stream: same size law as a regular file, addresses uniform over the
    // space (every burst request re-downloads these exact chunks, which
    // is what concentrates load on their storers and relays).
    Rng hot_rng = rng.split(kHotFileStream);
    const auto chunks = static_cast<std::size_t>(hot_rng.uniform_int(
        static_cast<std::int64_t>(base_.config().min_chunks_per_file),
        static_cast<std::int64_t>(base_.config().max_chunks_per_file)));
    hot_.chunks.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      hot_.chunks.push_back(Address{static_cast<AddressValue>(
          hot_rng.next_below(topo.space().size()))});
    }
  }
}

const DownloadRequest& DemandEngine::next() {
  const std::uint64_t i = index_++;
  // Always pull the base stream first: its rng consumption is identical
  // whether or not the burst fires, so demand knobs never perturb the
  // underlying request sequence.
  const DownloadRequest& req = base_.next();
  if (burst_window(i) && burst_rng_.chance(demand_.burst_share)) {
    // The hot file replaces the base draw's chunks and upload flag; the
    // originator stays the base draw's.
    hot_.originator = req.originator;
    if (counters_ != nullptr) {
      counters_->bump(telemetry::Counter::kBurstDraws);
    }
    return hot_;
  }
  return req;
}

double DemandEngine::interarrival_for(std::uint64_t request_index,
                                      double base_interarrival) const {
  if (!modulates_interarrival()) return base_interarrival;
  if (counters_ != nullptr) {
    counters_->bump(telemetry::Counter::kDiurnalDraws);
  }
  // Triangle wave in the request index: phase 0 -> -amp (rush hour,
  // arrivals packed), phase 0.5 -> +amp (night, arrivals sparse), back
  // down to -amp. Plain rational arithmetic — unlike sin(), identical on
  // every libm — keeps the modulated schedule inside the bit-identity
  // contract.
  const double phase =
      std::fmod(static_cast<double>(request_index), demand_.diurnal_period) /
      demand_.diurnal_period;
  const double wave =
      phase < 0.5 ? 4.0 * phase - 1.0 : 3.0 - 4.0 * phase;  // [-1, 1]
  return base_interarrival * (1.0 + demand_.diurnal_amp * wave);
}

}  // namespace fairswap::workload
