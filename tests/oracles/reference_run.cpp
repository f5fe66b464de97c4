#include "oracles/reference_run.hpp"

#include <stdexcept>

#include "overlay/compiled_router.hpp"

namespace fairswap::core {

ReferenceRun::ReferenceRun(const overlay::Topology& topo,
                           const SimulationConfig& config, Rng rng)
    : topo_(&topo),
      greedy_(topo),
      config_(config),
      ledger_(topo.compiled(), config.swap),
      pricer_(accounting::make_pricer(config.pricer)),
      policy_(incentives::make_policy(config.policy)),
      // The seed splits of Simulation::seed_state: 1 for the workload, 2
      // for the free riders.
      engine_(topo, config.workload, config.demand, rng.split(1)),
      counters_(topo.node_count()),
      free_riders_(Simulation::sample_free_riders(
          topo.node_count(), config.free_rider_share, rng.split(2))) {
  if (!pricer_ || !policy_) {
    throw std::invalid_argument("reference run: unknown pricer or policy");
  }
  stores_.reserve(topo.node_count());
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    stores_.emplace_back(config_.cache_capacity);
  }
  ctx_.topo = topo_;
  ctx_.swap = &ledger_;
  ctx_.pricer = pricer_.get();
  ctx_.free_rider = &free_riders_;
}

void ReferenceRun::run(std::size_t files) {
  for (std::size_t f = 0; f < files; ++f) apply(engine_.next());
}

void ReferenceRun::apply(const workload::DownloadRequest& request) {
  if (request.is_upload) ++totals_.upload_files;
  for (const Address chunk : request.chunks) {
    request_chunk(request.originator, chunk, request.is_upload);
  }
  policy_->on_step_end(ctx_);
  if (config_.amortize_each_step) {
    ledger_.amortize_tick();
  } else {
    ledger_.advance_tick();
  }
  ++totals_.files;
}

void ReferenceRun::request_chunk(NodeIndex originator, Address chunk,
                                 bool is_upload) {
  ++totals_.chunk_requests;
  if (is_upload) ++totals_.upload_requests;
  ++counters_[originator].chunks_requested;

  const NodeIndex storer = greedy_.storer_of(chunk);
  const bool caching = config_.cache_capacity > 0;

  // The greedy walk re-scans the Address-keyed buckets per hop.
  overlay::Route& route = route_;
  route.reset(chunk);
  route.path.push_back(originator);
  NodeIndex cur = originator;
  bool found = false;
  bool from_cache = false;
  const std::size_t max_hops =
      config_.max_route_hops != 0
          ? config_.max_route_hops
          : static_cast<std::size_t>(topo_->space().bits()) * 4;
  for (;;) {
    if (cur == storer) {
      found = true;
      break;
    }
    if (caching && stores_[cur].lookup(chunk)) {
      found = true;
      from_cache = true;
      break;
    }
    if (route.hops() >= max_hops) {
      route.truncated = true;
      break;
    }
    const auto peer = greedy_.table(cur).next_hop(chunk);
    if (!peer) break;  // dead end short of the storer
    // A table address no network member owns (stale or poisoned entry)
    // fails the route.
    const auto idx = greedy_.index_of(*peer);
    if (!idx) break;
    cur = *idx;
    route.path.push_back(cur);
  }
  route.reached_storer = found;

  account(route, from_cache);
}

void ReferenceRun::account(const overlay::Route& route, bool from_cache) {
  if (!route.reached_storer) {
    if (route.truncated) {
      ++totals_.truncated_routes;
    } else {
      ++totals_.failed_routes;
    }
    return;
  }
  if (route.hops() == 0) {
    ++totals_.local_hits;
    ++totals_.delivered;
    ++counters_[route.originator()].local_hits;
    return;
  }
  if (!policy_->admit(ctx_, route)) {
    ++totals_.refused;
    return;
  }
  for (std::size_t i = 1; i < route.path.size(); ++i) {
    ++counters_[route.path[i]].chunks_served;
    ++totals_.total_transmissions;
  }
  if (from_cache) ++counters_[route.terminal()].cache_serves;
  ++counters_[route.first_hop()].chunks_served_first_hop;
  ++totals_.delivered;
  if (config_.cache_capacity > 0) {
    for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
      stores_[route.path[i]].cache(route.target);
    }
  }
  policy_->on_delivery(ctx_, route);
}

std::vector<double> ReferenceRun::income_per_node() const {
  const auto& income = ledger_.income();
  std::vector<double> out(income.size());
  for (std::size_t i = 0; i < income.size(); ++i) {
    out[i] = static_cast<double>(income[i].base_units());
  }
  return out;
}

}  // namespace fairswap::core
