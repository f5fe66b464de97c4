#include "guard.hpp"

#include <cmath>
#include <cstdio>
#include <map>

#include "common/json.hpp"

namespace fairswap::guard {
namespace {

/// The guarded hot-path costs: route walks, debits, the flow plane and
/// the demand layer. Each is a ratio of two loops that bench_scale times
/// back to back in one process, so a host that runs slower for seconds at
/// a time moves both sides alike; absolute ns rows drift with host speed
/// and stay ungated. Everything else in the document (speedups, memory,
/// correctness booleans) is covered by its own tests.
struct GuardedMetric {
  const char* section;
  const char* metric;
  /// True for an array of sweep points matched by their "k" member,
  /// false for a single object ("workload").
  bool per_k;
};

/// In the order drifts are reported: by section, then metric.
constexpr GuardedMetric kGuarded[] = {
    // Flow-level over counter-based wall time, same runs alternating.
    {"flow", "overhead", true},
    // The edge-arena ledger and the compiled walks over their test
    // oracles (the hash-map SwapNetwork and the greedy ForwardingRouter),
    // median of the interleaved repetitions.
    {"ledger", "edge_over_map", true},
    {"routing", "batched_over_greedy", true},
    {"routing", "compiled_over_greedy", true},
    // Composed over plain ns per request.
    {"workload", "overhead", false},
};

/// The sweep points of a per-k section, by their "k" member. An element
/// without a numeric k is not a sweep point; a repeated k keeps the last.
std::map<std::uint64_t, const JsonValue*> sweep_points(
    const JsonValue& section) {
  std::map<std::uint64_t, const JsonValue*> points;
  for (const JsonValue& point : section.array) {
    const JsonValue& k = point.at("k");
    if (k.kind == JsonValue::Kind::kNumber) {
      points[static_cast<std::uint64_t>(std::llround(k.number))] = &point;
    }
  }
  return points;
}

}  // namespace

GuardResult compare(const std::string& baseline_json,
                    const std::string& fresh_json, const Options& options) {
  GuardResult result;
  if (!std::isfinite(options.tolerance) || options.tolerance < 0) {
    result.error = "tolerance must be a finite number >= 0";
    return result;
  }
  JsonValue baseline;
  JsonValue fresh;
  std::string error;
  if (!parse_json(baseline_json, baseline, &error)) {
    result.error = "baseline: " + error;
    return result;
  }
  if (!parse_json(fresh_json, fresh, &error)) {
    result.error = "fresh: " + error;
    return result;
  }

  // Gates metric g of one baseline point against the same point of the
  // fresh document; a point that is not numeric on both sides is skipped.
  const auto gate = [&](const GuardedMetric& g, std::optional<std::uint64_t> k,
                        const JsonValue& base_point,
                        const JsonValue& fresh_point) {
    const JsonValue& base = base_point.at(g.metric);
    const JsonValue& now = fresh_point.at(g.metric);
    if (base.kind != JsonValue::Kind::kNumber ||
        now.kind != JsonValue::Kind::kNumber) {
      return;
    }
    ++result.compared;
    if (base.number <= 0) return;  // degenerate baseline: nothing to gate
    const double ratio = now.number / base.number;
    if (ratio > 1.0 + options.tolerance) {
      result.drifts.push_back(
          {g.section, k, g.metric, base.number, now.number, ratio});
    }
  };
  for (const GuardedMetric& g : kGuarded) {
    const JsonValue& base_section = baseline.at(g.section);
    const JsonValue& fresh_section = fresh.at(g.section);
    if (!g.per_k) {
      gate(g, std::nullopt, base_section, fresh_section);
      continue;
    }
    const auto fresh_points = sweep_points(fresh_section);
    for (const auto& [k, base_point] : sweep_points(base_section)) {
      const auto it = fresh_points.find(k);
      if (it != fresh_points.end()) gate(g, k, *base_point, *it->second);
    }
  }
  if (result.compared == 0) {
    result.error =
        "no comparable routing/ledger/flow/workload metrics between baseline "
        "and fresh documents (wrong schema?)";
  }
  return result;
}

std::string format(const Drift& d, const Options& options) {
  std::string where = d.section;
  if (d.k) where += " k=" + std::to_string(*d.k);
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %s: %.2f -> %.2f (%.2fx, limit %.2fx)",
                where.c_str(), d.metric.c_str(), d.baseline, d.fresh, d.ratio,
                1.0 + options.tolerance);
  return buf;
}

}  // namespace fairswap::guard
