// The heavy-traffic demand engine — a composable layer of demand
// processes over the paper's base workload (ROADMAP: "Heavy-traffic
// workload engine + streaming metrics").
//
// The paper's model (§IV-B) is uniform-random requests, which is exactly
// the regime where incentives are least stressed; "You Share, I Share"
// (PAPERS.md) motivates heterogeneous, network-effect demand as the
// interesting regime. DemandEngine composes four processes on top of
// DownloadGenerator, all pull-based (requests are generated lazily, one
// at a time — nothing is ever materialized):
//
//  * Zipfian content popularity — requests draw chunks from a fixed
//    catalog with Zipf(s) popularity (generalizing the generator's
//    catalog hook; `demand=zipf zipf_s=... catalog=...`).
//  * Flash-crowd burst — for a bounded request-index window
//    [burst_start, burst_start + burst_files), each request is
//    redirected with probability burst_share to one fixed hot file
//    sampled at construction.
//  * Diurnal modulation — the flow-level interarrival follows a
//    deterministic triangle wave of the request index (period/amplitude
//    configurable); pure rational arithmetic, no libm transcendentals,
//    so the modulated schedule is bit-identical everywhere.
//  * Upload/download mix — forwarded to the base generator's
//    upload_share (`upload_mix=` is the harness alias).
//
// Determinism contract: the incoming rng is handed to the base generator
// UNCHANGED, and every extension draws from side streams derived via the
// pure `Rng::split`. A default DemandConfig therefore reproduces the
// plain DownloadGenerator stream bit-for-bit, and any composition is
// bit-identical for any `threads=` and across record -> replay
// (tests/workload/demand_engine_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/telemetry/counters.hpp"
#include "overlay/topology.hpp"
#include "workload/download_generator.hpp"

namespace fairswap::workload {

/// Demand-process composition parameters. Defaults select the paper's
/// plain uniform workload (every process off).
struct DemandConfig {
  enum class Kind : std::uint8_t {
    kUniform,  ///< paper default: fresh uniform chunk addresses
    kZipf,     ///< fixed catalog with Zipf(zipf_s) popularity
  };

  Kind kind{Kind::kUniform};
  /// Zipf exponent over catalog ranks (kind == kZipf).
  double zipf_s{0.8};
  /// Catalog size used when kind == kZipf and the base workload does not
  /// already pin one via catalog_size.
  std::size_t catalog{2048};

  /// Flash crowd: request index at which the burst window opens.
  std::uint64_t burst_start{0};
  /// Burst window length in file requests; 0 disables the burst.
  std::uint64_t burst_files{0};
  /// Probability a request inside the window hits the hot file.
  double burst_share{0.5};

  /// Diurnal cycle length in file requests; 0 disables modulation.
  double diurnal_period{0.0};
  /// Peak-to-mean interarrival swing in [0, 1): the interarrival ranges
  /// over [base * (1 - amp), base * (1 + amp)].
  double diurnal_amp{0.0};

  friend bool operator==(const DemandConfig&, const DemandConfig&) = default;
};

/// Parses "uniform" / "zipf" (throws std::invalid_argument otherwise).
[[nodiscard]] DemandConfig::Kind parse_demand_kind(const std::string& name);
[[nodiscard]] std::string demand_kind_name(DemandConfig::Kind kind);

/// Pull-based deterministic request stream: DownloadGenerator plus the
/// demand processes above. A (topology, workload config, demand config,
/// seed) tuple fully determines the stream.
class DemandEngine {
 public:
  DemandEngine(const overlay::Topology& topo, WorkloadConfig base,
               DemandConfig demand, Rng rng);

  /// Produces the next file request (request index advances by one). The
  /// request lives in a buffer the engine owns: the reference stays valid
  /// until the next call to next() (or the engine's destruction). Copy
  /// the request to keep it longer. A burst request is the engine's
  /// hot-file request, not a copy of the hot file.
  [[nodiscard]] const DownloadRequest& next();

  /// The flow-level interarrival ahead of request `request_index`:
  /// `base_interarrival` scaled by the diurnal triangle wave, or exactly
  /// `base_interarrival` when modulation is off.
  [[nodiscard]] double interarrival_for(std::uint64_t request_index,
                                        double base_interarrival) const;

  /// True when diurnal modulation is configured (the simulation switches
  /// its flow arrival clock to the cumulative modulated schedule).
  [[nodiscard]] bool modulates_interarrival() const noexcept {
    return demand_.diurnal_period > 0.0 && demand_.diurnal_amp > 0.0;
  }

  /// True when `request_index` falls inside the flash-crowd window.
  [[nodiscard]] bool burst_window(std::uint64_t request_index) const noexcept {
    return demand_.burst_files > 0 && request_index >= demand_.burst_start &&
           request_index - demand_.burst_start < demand_.burst_files;
  }

  /// Points the engine at the owning simulation's sim-plane counter
  /// block (burst redirects, diurnal modulations). Null detaches.
  void set_counters(telemetry::CounterBlock* counters) noexcept {
    counters_ = counters;
  }

  [[nodiscard]] const DemandConfig& demand() const noexcept { return demand_; }
  [[nodiscard]] const DownloadGenerator& base() const noexcept {
    return base_;
  }
  [[nodiscard]] DownloadGenerator& base_mut() noexcept { return base_; }
  /// Requests generated so far (== the next request's index).
  [[nodiscard]] std::uint64_t requests_generated() const noexcept {
    return index_;
  }
  /// The flash-crowd hot file (empty when the burst is disabled).
  [[nodiscard]] const std::vector<Address>& hot_chunks() const noexcept {
    return hot_.chunks;
  }

 private:
  /// Folds the Zipf catalog knobs into the base workload config.
  [[nodiscard]] static WorkloadConfig effective_base(WorkloadConfig base,
                                                     const DemandConfig& d);

  DemandConfig demand_;
  DownloadGenerator base_;
  /// Burst redirect decisions; a side stream so toggling the burst never
  /// perturbs the base request stream.
  Rng burst_rng_;
  /// The request a burst returns: the hot file's chunks, built once, with
  /// the originator of the base draw it replaces. is_upload stays false:
  /// flash crowds are download stampedes.
  DownloadRequest hot_;
  std::uint64_t index_{0};
  /// Sim-plane counters (not owned); null until attached. Mutable slots
  /// behind a pointer so const queries like interarrival_for can count.
  telemetry::CounterBlock* counters_{nullptr};
};

}  // namespace fairswap::workload
