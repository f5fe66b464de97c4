#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"chunk_requests_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"overlay.build_ms", "ms"},
    {"overlay.ns_per_route", "ns"},
    {"overlay.route_walks", "count"},
    {"overlay.hops_per_route", "hops"},
    {"overlay.route_success", "ratio"},
    {"overlay.router_mb", "MB"},
    {"workload.ns_per_chunk", "ns"},
    {"workload.chunks_per_file", "chunks"},
    {"workload.burst_draws", "count"},
    {"accounting.ns_per_debit", "ns"},
    {"accounting.debits", "count"},
    {"accounting.settlements", "count"},
    {"accounting.refused_payments", "count"},
    {"accounting.ledger_mb", "MB"},
    {"net.ns_per_event", "ns"},
    {"net.us_per_recompute", "us"},
    {"net.flows", "count"},
    {"net.events_popped", "count"},
    {"net.rate_recomputes", "count"},
    {"net.flows_timed_out", "count"},
    {"net.drain_ms", "ms"},
    {"net.useful_event_ratio", "ratio"},
    {"net.active_flows", "count"},
    {"core.ns_per_chunk_request", "ns"},
    {"core.construct_ms", "ms"},
    {"core.package_ms", "ms"},
    {"core.reset_ms", "ms"},
    {"common.ns_per_sketch_add", "ns"},
    {"common.sketch_bins", "count"},
    {"agents.epochs", "count"},
    {"agents.revisions", "count"},
    {"agents.ms_per_epoch", "ms"},
    {"agents.revise_ms", "ms"},
    {"trace.overhead", "ratio"},
};

std::string format_number(double v) {
  if (!std::isfinite(v)) {
    throw std::logic_error("metric value is not finite");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

namespace {

/// A pass's pieces, with an empty list standing for one piece, `total`.
std::span<const double> pieces_of(const std::vector<double>& pieces,
                                  const double& total) {
  return pieces.empty() ? std::span<const double>(&total, 1)
                        : std::span<const double>(pieces);
}

void keep_fastest(std::vector<double>& best, std::span<const double> pieces,
                  bool first) {
  if (first) {
    best.assign(pieces.begin(), pieces.end());
    return;
  }
  for (std::size_t i = 0; i < best.size(); ++i) {
    best[i] = std::min(best[i], pieces[i]);
  }
}

}  // namespace

bool pass_valid(const PassSample& pass, const PassSample& warm) noexcept {
  return pass.checks_ok && pass.fingerprint == warm.fingerprint &&
         pass.run_s > 0.0 && pass.chunk_requests > 0 &&
         pass.run_pieces_s.size() == warm.run_pieces_s.size() &&
         pass.setup_pieces_s.size() == warm.setup_pieces_s.size();
}

RunAccumulator::RunAccumulator(const PassSample& warm) : warm_(warm) {}

bool RunAccumulator::add(const PassSample& pass) {
  ++summary_.attempted;
  if (!pass_valid(pass, warm_)) {
    ++summary_.failed;
    return false;
  }
  keep_fastest(run_best_, pieces_of(pass.run_pieces_s, pass.run_s),
               !any_valid_);
  keep_fastest(setup_best_, pieces_of(pass.setup_pieces_s, pass.setup_s),
               !any_valid_);
  // Valid passes share the warm fingerprint, so they all did this many
  // chunk requests.
  chunk_requests_ = static_cast<double>(pass.chunk_requests);
  summary_.fastest_pass_per_s =
      std::max(summary_.fastest_pass_per_s, chunk_requests_ / pass.run_s);
  any_valid_ = true;
  return true;
}

RunSummary RunAccumulator::summary() const {
  RunSummary s = summary_;
  if (!any_valid_) return s;
  const double run_s =
      std::accumulate(run_best_.begin(), run_best_.end(), 0.0);
  s.chunk_requests_per_s = run_s > 0.0 ? chunk_requests_ / run_s : 0.0;
  s.setup_s = std::accumulate(setup_best_.begin(), setup_best_.end(), 0.0);
  return s;
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, std::span<const MetricSpec> specs,
                        std::span<const MetricValue> values) {
  if (values.size() != specs.size()) {
    throw std::logic_error("result does not name every metric");
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it =
        std::find_if(values.begin(), values.end(), [&](const MetricValue& v) {
          return v.name == specs[i].name;
        });
    if (it == values.end()) {
      throw std::logic_error("missing metric " + std::string(specs[i].name));
    }
    // Sequential appends: GCC 12 flags operator+ chains here with a
    // -Wrestrict false positive.
    if (i > 0) out += ", ";
    out += '"';
    out += specs[i].name;
    out += "\": {\"value\": ";
    out += format_number(it->value);
    out += ", \"unit\": \"";
    out += specs[i].unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

void Fingerprint::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

}  // namespace perfbench
