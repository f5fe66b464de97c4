#include "core/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "common/log.hpp"
#include "net/flow_sim.hpp"
#include "overlay/compiled_router.hpp"

namespace fairswap::core {

namespace {

/// A flow arrival past the end of the tick clock is an error, not a wrap
/// back to an earlier tick.
[[noreturn]] void throw_arrival_overflow(std::uint64_t file) {
  throw std::overflow_error(
      "flow arrival tick of file " + std::to_string(file) +
      " overflows the tick clock (flow_interarrival too large)");
}

}  // namespace

Simulation::Simulation(const overlay::Topology& topo, SimulationConfig config,
                       Rng rng)
    : topo_(&topo),
      config_(std::move(config)),
      router_(topo.compiled_shared()),
      swap_(*router_, config_.swap),
      pricer_(accounting::make_pricer(config_.pricer)),
      policy_(incentives::make_policy(config_.policy)),
      counters_(topo.node_count()),
      free_riders_(topo.node_count(), 0) {
  if (!pricer_) {
    throw std::invalid_argument("unknown pricer: " + config_.pricer);
  }
  if (!policy_) {
    throw std::invalid_argument("unknown policy: " + config_.policy);
  }

  if (config_.cache_capacity > 0) {
    stores_.reserve(topo.node_count());
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      stores_.emplace_back(config_.cache_capacity);
    }
  }

  seed_state(rng);

  if (config_.flow_level) {
    flow_sim_ = std::make_unique<net::FlowSimulator>(
        *router_, topo.node_count(), config_.flow);
  }

  // Attach the sim-plane counter block to the subsystems this simulation
  // owns. telem_ never moves (Simulation is pinned once constructed), so
  // the raw pointers stay valid for the simulation's lifetime.
  swap_.set_counters(&telem_);
  if (flow_sim_) flow_sim_->set_counters(&telem_);

  ctx_.topo = topo_;
  ctx_.swap = &swap_;
  ctx_.pricer = pricer_.get();
  ctx_.free_rider = &free_riders_;
  ctx_.refuses_service = &refuse_service_;
}

Simulation::~Simulation() = default;

std::vector<std::uint8_t> Simulation::sample_free_riders(
    std::size_t node_count, double share, Rng rng) {
  if (!(share >= 0.0 && share <= 1.0)) {
    throw std::invalid_argument("free-rider share must be in [0, 1], got " +
                                std::to_string(share));
  }
  std::vector<std::uint8_t> flags(node_count, 0);
  if (share == 0.0) return flags;
  // Round to nearest so e.g. 10% of 999 nodes selects 100, not the 99 a
  // plain truncation would give.
  const auto want = std::min<std::size_t>(
      node_count, static_cast<std::size_t>(std::llround(
                      share * static_cast<double>(node_count))));
  for (std::size_t idx : rng.sample_without_replacement(node_count, want)) {
    flags[idx] = 1;
  }
  return flags;
}

void Simulation::seed_state(Rng rng) {
  // Split the seed stream: workload and free-rider selection must not
  // perturb each other when one is reconfigured.
  Rng workload_rng = rng.split(1);
  Rng free_rider_rng = rng.split(2);

  engine_ = std::make_unique<workload::DemandEngine>(
      *topo_, config_.workload, config_.demand, workload_rng);
  engine_->set_counters(&telem_);

  free_riders_ = sample_free_riders(topo_->node_count(),
                                    config_.free_rider_share, free_rider_rng);
}

void Simulation::reset(Rng rng) {
  swap_.reset();
  policy_->reset();
  for (auto& counters : counters_) counters = NodeCounters{};
  totals_ = SimulationTotals{};
  for (auto& store : stores_) {
    store = storage::ChunkStore(config_.cache_capacity);
  }
  refuse_service_.clear();
  stream_ = StreamAggregates();
  telem_.clear();
  arrival_tick_ = 0.0;
  if (flow_sim_) flow_sim_->reset();
  seed_state(rng);
}

void Simulation::set_behavior(std::span<const std::uint8_t> free_ride,
                              bool refuse_service) {
  if (free_ride.size() != free_riders_.size()) {
    throw std::invalid_argument(
        "behavior vector size does not match the node count");
  }
  free_riders_.assign(free_ride.begin(), free_ride.end());
  if (refuse_service) {
    refuse_service_.assign(free_ride.begin(), free_ride.end());
  } else {
    refuse_service_.clear();
  }
}

void Simulation::note_request(NodeIndex originator, bool is_upload) {
  ++totals_.chunk_requests;
  if (is_upload) ++totals_.upload_requests;
  ++counters_[originator].chunks_requested;
}

bool Simulation::request_chunk(NodeIndex originator, Address chunk,
                               bool is_upload) {
  note_request(originator, is_upload);
  telem_.bump(telemetry::Counter::kRouteWalks);

  // The whole greedy walk, then a cut at the first node short of the
  // storer whose relay cache holds the chunk. The walk reads no cache, so
  // probing its nodes in path order afterwards hits the caches in the
  // same order, with the same LRU effects, as a walk that probes each
  // node before leaving it. A route that ends short of the storer (a dead
  // end or the hop cap) probes its last node too.
  overlay::Route& route = route_;
  router_->route_into(originator, chunk, route, config_.max_route_hops);
  const std::size_t probes =
      route.reached_storer ? route.hops() : route.path.size();
  for (std::size_t i = 0; i < probes; ++i) {
    if (stores_[route.path[i]].lookup(chunk)) {
      route.path.resize(i + 1);
      route.edges.resize(i);
      route.truncated = false;
      route.reached_storer = true;
      return account(route, /*from_cache=*/true, is_upload);
    }
  }
  return account(route, /*from_cache=*/false, is_upload);
}

bool Simulation::account(const overlay::Route& route, bool from_cache,
                         bool is_upload) {
  if (!route.reached_storer) {
    if (route.truncated) {
      ++totals_.truncated_routes;
      telem_.bump(telemetry::Counter::kRoutesTruncated);
    } else {
      ++totals_.failed_routes;
      telem_.bump(telemetry::Counter::kRoutesFailed);
    }
    return false;
  }

  if (route.hops() == 0) {
    // The originator itself stores (or cached) the chunk: no bandwidth is
    // consumed and nobody is paid.
    ++totals_.local_hits;
    ++totals_.delivered;
    telem_.bump(telemetry::Counter::kLocalHits);
    telem_.bump(telemetry::Counter::kChunksDelivered);
    ++counters_[route.originator()].local_hits;
    if (config_.stream_metrics) record_hops(0.0);
    return true;
  }

  // Strategic service refusal (set_behavior with refuse_service): the
  // chunk dies at the first refusing node along the data direction —
  // storer -> originator for a download, originator -> storer for an
  // upload. Everyone the chunk passed first already transmitted it —
  // their bandwidth was spent even though the transfer fails — so those
  // serves are counted; nobody is paid (payment happens on delivery
  // only).
  if (const std::size_t refusal = ctx_.first_refusing_server(route, is_upload);
      refusal != 0) {
    if (is_upload) {
      for (std::size_t i = 1; i < refusal; ++i) {
        ++counters_[route.path[i]].chunks_served;
        ++totals_.total_transmissions;
      }
    } else {
      for (std::size_t i = refusal + 1; i < route.path.size(); ++i) {
        ++counters_[route.path[i]].chunks_served;
        ++totals_.total_transmissions;
      }
    }
    ++totals_.refused;
    telem_.bump(telemetry::Counter::kServiceRefusals);
    return false;
  }

  if (!policy_->admit(ctx_, route)) {
    ++totals_.refused;
    telem_.bump(telemetry::Counter::kServiceRefusals);
    return false;
  }

  // The chunk travels back along the path: every node except the
  // originator transmits it once.
  for (std::size_t i = 1; i < route.path.size(); ++i) {
    ++counters_[route.path[i]].chunks_served;
    ++totals_.total_transmissions;
  }
  if (from_cache) ++counters_[route.terminal()].cache_serves;
  ++counters_[route.first_hop()].chunks_served_first_hop;
  ++totals_.delivered;
  telem_.bump(telemetry::Counter::kChunksDelivered);
  if (config_.stream_metrics) {
    record_hops(static_cast<double>(route.hops()));
  }
  // The flow layer rides behind the final accounting decision: a flow
  // exists exactly for each delivered multi-hop chunk, so it can never
  // perturb counters or payments.
  if (flow_sim_) flow_sim_->start_chunk(route, is_upload);

  // Relay nodes opportunistically cache what they handled — on download
  // the chunk flows back through them, on upload it flows forward.
  if (config_.cache_capacity > 0) {
    for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
      stores_[route.path[i]].cache(route.target);
    }
  }

  policy_->on_delivery(ctx_, route);
  return true;
}

void Simulation::record_hops(double hops) {
  stream_.hops.add(hops);
  if (stream_.hops_sample.size() < config_.stream_sample_cap) {
    stream_.hops_sample.push_back(hops);
  }
}

void Simulation::apply(const workload::DownloadRequest& request) {
  if (request.is_upload) ++totals_.upload_files;
  // File i arrives at flow time i * interarrival: finish everything the
  // link capacities allowed before then, so this file's flows contend
  // only with transfers genuinely still in the air. Under diurnal
  // modulation the arrival clock is the cumulative modulated schedule
  // instead; the unmodulated product form is kept verbatim so default
  // flow runs stay bit-identical to the pre-engine path.
  if (flow_sim_) {
    if (engine_->modulates_interarrival()) {
      if (!(arrival_tick_ < 0x1p64)) throw_arrival_overflow(totals_.files);
      flow_sim_->advance_to(static_cast<net::SimTime>(arrival_tick_));
      arrival_tick_ +=
          engine_->interarrival_for(totals_.files, config_.flow.interarrival);
    } else {
      const net::SimTime interarrival = config_.flow.interarrival;
      if (interarrival != 0 &&
          totals_.files > net::kForever / interarrival) {
        throw_arrival_overflow(totals_.files);
      }
      flow_sim_->advance_to(interarrival * totals_.files);
    }
  }
  if (config_.stream_metrics) {
    stream_.chunks_per_file.add(static_cast<double>(request.chunks.size()));
  }
  // Without caches a route never depends on accounting state, so the
  // file's chunks can be routed as one interleaved batch (overlapping the
  // walks' cache misses) and accounted afterwards in request order —
  // bit-identical to the per-chunk path.
  if (config_.cache_capacity == 0) {
    const std::size_t n = request.chunks.size();
    if (routes_buf_.size() < n) routes_buf_.resize(n);
    const std::span<overlay::Route> routes = std::span(routes_buf_).first(n);
    origins_buf_.assign(n, request.originator);
    router_->route_batch(origins_buf_, request.chunks, routes,
                         config_.max_route_hops);
    telem_.bump(telemetry::Counter::kRouteBatches);
    telem_.bump(telemetry::Counter::kRouteWalks, n);
    for (const auto& route : routes) {
      note_request(request.originator, request.is_upload);
      account(route, /*from_cache=*/false, request.is_upload);
    }
  } else {
    for (const Address chunk : request.chunks) {
      request_chunk(request.originator, chunk, request.is_upload);
    }
  }
  if (flow_sim_) flow_sim_->commit();
  policy_->on_step_end(ctx_);
  if (config_.amortize_each_step) {
    swap_.amortize_tick();
  } else {
    swap_.advance_tick();
  }
  ++totals_.files;
}

void Simulation::step() { apply(engine_->next()); }

void Simulation::run(std::size_t files) {
  for (std::size_t f = 0; f < files; ++f) step();
  FAIRSWAP_LOG(kInfo, "core") << "simulated " << files << " files, "
                              << totals_.chunk_requests << " chunk requests, "
                              << totals_.total_transmissions
                              << " transmissions";
}

void Simulation::finish_flows() {
  if (!flow_sim_) return;
  flow_sim_->drain();
  const net::FlowReport report = flow_sim_->report();
  totals_.flows_started = report.started;
  totals_.flows_completed = report.completed;
  totals_.flows_timed_out = report.timed_out;
  totals_.saturated_links = report.saturated_links;
  totals_.flow_makespan = report.makespan;
  totals_.fct_p50 = report.fct_p50;
  totals_.fct_p90 = report.fct_p90;
  totals_.fct_p99 = report.fct_p99;
  totals_.fct_mean = report.fct_mean;
  totals_.max_link_utilization = report.max_link_utilization;
}

std::vector<std::uint64_t> Simulation::served_per_node() const {
  std::vector<std::uint64_t> out(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out[i] = counters_[i].chunks_served;
  }
  return out;
}

std::vector<std::uint64_t> Simulation::first_hop_per_node() const {
  std::vector<std::uint64_t> out(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out[i] = counters_[i].chunks_served_first_hop;
  }
  return out;
}

std::vector<double> Simulation::income_per_node() const {
  const auto& income = swap_.income();
  std::vector<double> out(income.size());
  for (std::size_t i = 0; i < income.size(); ++i) {
    out[i] = static_cast<double>(income[i].base_units());
  }
  return out;
}

}  // namespace fairswap::core
