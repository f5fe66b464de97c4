#include "harness/binding.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace fairswap::harness {

namespace {

/// Shortest decimal rendering that round-trips the double exactly, so a
/// snapshot re-applied through the (strict) parser reproduces the config
/// bit-for-bit.
std::string format_double(double v) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (parse_double(buf) == v) break;
  }
  return buf;
}

std::string bad(const std::string& key, const std::string& value,
                const char* expected) {
  return key + ": '" + value + "' is not " + expected;
}

// Setter builders. Each returns "" on success and leaves the config
// untouched on failure. They are plain function templates so the Binding
// entries below stay one line per key.

using Cfg = core::ExperimentConfig;

std::string set_share(double& field, const std::string& key,
                      const std::string& v, bool allow_zero) {
  const auto parsed = parse_double(v);
  if (!parsed) return bad(key, v, "a number");
  if (*parsed < 0.0 || *parsed > 1.0 || (!allow_zero && *parsed == 0.0)) {
    return key + ": must be in " + (allow_zero ? "[0, 1]" : "(0, 1]");
  }
  field = *parsed;
  return {};
}

/// A Zipf exponent: a finite, non-negative number.
std::string set_exponent(double& field, const std::string& key,
                         const std::string& v) {
  const auto parsed = parse_double(v);
  if (!parsed) return bad(key, v, "a finite number");
  if (*parsed < 0.0) return key + ": must be non-negative";
  field = *parsed;
  return {};
}

std::string set_token(Token& field, const std::string& key,
                      const std::string& v, bool allow_zero) {
  const auto parsed = parse_i64(v);
  if (!parsed) return bad(key, v, "an integer (token base units)");
  if (*parsed < 0 || (!allow_zero && *parsed == 0)) {
    return key + ": must be " + (allow_zero ? "non-negative" : "positive");
  }
  field = Token(*parsed);
  return {};
}

std::string set_bool(bool& field, const std::string& key,
                     const std::string& v) {
  const auto parsed = parse_bool(v);
  if (!parsed) return bad(key, v, "a boolean (true/false/1/0/yes/no/on/off)");
  field = *parsed;
  return {};
}

std::string set_name(std::string& field, const std::string& key,
                     const std::string& v,
                     std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (v == a) {
      field = v;
      return {};
    }
  }
  std::string msg = key + ": unknown value '" + v + "' (expected one of";
  for (const char* a : allowed) msg += std::string(" ") + a;
  return msg + ")";
}

}  // namespace

BindingTable::BindingTable() {
  // One entry per knob, kept in rough config-struct order so a snapshot
  // reads like an ExperimentConfig literal. Setters are captureless
  // lambdas so Binding stays a plain function-pointer struct.
  const auto add = [this](const char* key, const char* description,
                          std::string (*set)(Cfg&, const std::string&),
                          std::string (*get)(const Cfg&)) {
    bindings_.push_back(Binding{key, description, set, get});
  };

  add("label", "run label shown in tables and sinks",
      +[](Cfg& c, const std::string& v) -> std::string {
        c.label = v;
        return {};
      },
      +[](const Cfg& c) { return c.label; });

  add("nodes", "overlay node count (>= 2)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("nodes", v, "a node count");
        if (*p < 2) return "nodes: must be at least 2";
        c.topology.node_count = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.topology.node_count); });

  add("bits", "address-space width in bits (1..30)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("bits", v, "a bit width");
        if (*p < 1 || *p > 30) return "bits: must be in [1, 30]";
        c.topology.address_bits = static_cast<int>(*p);
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.topology.address_bits); });

  add("k", "routing-table bucket capacity (the paper's k)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("k", v, "a bucket capacity");
        if (*p < 1) return "k: must be at least 1";
        c.topology.buckets.k = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.topology.buckets.k); });

  add("k_bucket0", "bucket-0-only capacity override (0 = none)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("k_bucket0", v, "a bucket capacity");
        c.topology.buckets.k_bucket0 = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) {
        return std::to_string(c.topology.buckets.k_bucket0);
      });

  add("files", "file transfers to simulate",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("files", v, "a file count");
        c.files = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.files); });

  add("seed", "root RNG seed",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("seed", v, "an unsigned integer");
        c.seed = *p;
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.seed); });

  add("lorenz_points", "Lorenz curve resolution (0 = per node)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("lorenz_points", v, "a point count");
        c.lorenz_points = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.lorenz_points); });

  add("originators", "share of nodes eligible to originate, (0, 1]",
      +[](Cfg& c, const std::string& v) {
        return set_share(c.sim.workload.originator_share, "originators", v,
                         /*allow_zero=*/false);
      },
      +[](const Cfg& c) {
        return format_double(c.sim.workload.originator_share);
      });

  add("min_chunks", "minimum chunks per file",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("min_chunks", v, "a chunk count");
        if (*p < 1) return "min_chunks: must be at least 1";
        c.sim.workload.min_chunks_per_file = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) {
        return std::to_string(c.sim.workload.min_chunks_per_file);
      });

  add("max_chunks", "maximum chunks per file",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("max_chunks", v, "a chunk count");
        if (*p < 1) return "max_chunks: must be at least 1";
        c.sim.workload.max_chunks_per_file = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) {
        return std::to_string(c.sim.workload.max_chunks_per_file);
      });

  add("upload_share", "share of transfers that are uploads, [0, 1]",
      +[](Cfg& c, const std::string& v) {
        return set_share(c.sim.workload.upload_share, "upload_share", v,
                         /*allow_zero=*/true);
      },
      +[](const Cfg& c) { return format_double(c.sim.workload.upload_share); });

  add("zipf", "Zipf exponent over originators (0 = uniform)",
      +[](Cfg& c, const std::string& v) {
        return set_exponent(c.sim.workload.originator_zipf_alpha, "zipf", v);
      },
      +[](const Cfg& c) {
        return format_double(c.sim.workload.originator_zipf_alpha);
      });

  add("catalog", "fixed content-catalog size (0 = fresh uniform chunks)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("catalog", v, "a catalog size");
        // The Zipf sampler indexes its guide table with 32-bit ranks.
        if (*p > std::numeric_limits<std::uint32_t>::max()) {
          return "catalog: must be at most 4294967295";
        }
        c.sim.workload.catalog_size = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) {
        return std::to_string(c.sim.workload.catalog_size);
      });

  add("catalog_zipf", "Zipf exponent over the catalog",
      +[](Cfg& c, const std::string& v) {
        return set_exponent(c.sim.workload.catalog_zipf_alpha, "catalog_zipf",
                            v);
      },
      +[](const Cfg& c) {
        return format_double(c.sim.workload.catalog_zipf_alpha);
      });

  // --- heavy-traffic demand processes (src/workload/engine) --------------

  add("demand", "demand process: uniform | zipf (catalog popularity)",
      +[](Cfg& c, const std::string& v) -> std::string {
        if (v != "uniform" && v != "zipf") {
          return "demand: unknown value '" + v +
                 "' (expected one of uniform zipf)";
        }
        c.sim.demand.kind = workload::parse_demand_kind(v);
        return {};
      },
      +[](const Cfg& c) {
        return workload::demand_kind_name(c.sim.demand.kind);
      });

  add("zipf_s", "Zipf exponent over catalog ranks (demand=zipf)",
      +[](Cfg& c, const std::string& v) {
        return set_exponent(c.sim.demand.zipf_s, "zipf_s", v);
      },
      +[](const Cfg& c) { return format_double(c.sim.demand.zipf_s); });

  add("burst_start", "request index opening the flash-crowd window",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("burst_start", v, "a request index");
        c.sim.demand.burst_start = *p;
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.sim.demand.burst_start); });

  add("burst_files", "flash-crowd window length in requests (0 = off)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("burst_files", v, "a request count");
        c.sim.demand.burst_files = *p;
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.sim.demand.burst_files); });

  add("burst_share", "probability a window request hits the hot file, [0, 1]",
      +[](Cfg& c, const std::string& v) {
        return set_share(c.sim.demand.burst_share, "burst_share", v,
                         /*allow_zero=*/true);
      },
      +[](const Cfg& c) { return format_double(c.sim.demand.burst_share); });

  add("diurnal_period", "diurnal cycle length in requests (0 = off)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_double(v);
        if (!p) return bad("diurnal_period", v, "a number");
        if (*p < 0.0) return "diurnal_period: must be non-negative";
        c.sim.demand.diurnal_period = *p;
        return {};
      },
      +[](const Cfg& c) { return format_double(c.sim.demand.diurnal_period); });

  add("diurnal_amp", "interarrival swing around the mean, [0, 1)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_double(v);
        if (!p) return bad("diurnal_amp", v, "a number");
        if (*p < 0.0 || *p >= 1.0) return "diurnal_amp: must be in [0, 1)";
        c.sim.demand.diurnal_amp = *p;
        return {};
      },
      +[](const Cfg& c) { return format_double(c.sim.demand.diurnal_amp); });

  add("stream_metrics",
      "maintain bounded-memory streaming aggregates (hop/file sketches)",
      +[](Cfg& c, const std::string& v) {
        return set_bool(c.sim.stream_metrics, "stream_metrics", v);
      },
      +[](const Cfg& c) {
        return std::string(c.sim.stream_metrics ? "true" : "false");
      });

  add("pricer", "chunk pricer: xor-distance | proximity | flat",
      +[](Cfg& c, const std::string& v) {
        return set_name(c.sim.pricer, "pricer", v,
                        {"xor-distance", "proximity", "flat"});
      },
      +[](const Cfg& c) { return c.sim.pricer; });

  add("policy",
      "payment policy: zero-proximity | per-hop-swap | tit-for-tat | "
      "effort-based | none",
      +[](Cfg& c, const std::string& v) {
        return set_name(c.sim.policy, "policy", v,
                        {"zero-proximity", "per-hop-swap", "tit-for-tat",
                         "effort-based", "none"});
      },
      +[](const Cfg& c) { return c.sim.policy; });

  add("cache", "per-node LRU cache capacity in chunks (0 = off)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("cache", v, "a chunk count");
        c.sim.cache_capacity = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.sim.cache_capacity); });

  add("free_riders", "share of nodes that never pay, [0, 1]",
      +[](Cfg& c, const std::string& v) {
        return set_share(c.sim.free_rider_share, "free_riders", v,
                         /*allow_zero=*/true);
      },
      +[](const Cfg& c) { return format_double(c.sim.free_rider_share); });

  add("amortize_each_step", "apply one amortization tick per file",
      +[](Cfg& c, const std::string& v) {
        return set_bool(c.sim.amortize_each_step, "amortize_each_step", v);
      },
      +[](const Cfg& c) {
        return std::string(c.sim.amortize_each_step ? "true" : "false");
      });

  add("amortization", "base units forgiven per pair per tick",
      +[](Cfg& c, const std::string& v) {
        return set_token(c.sim.swap.amortization_per_tick, "amortization", v,
                         /*allow_zero=*/true);
      },
      +[](const Cfg& c) {
        return std::to_string(c.sim.swap.amortization_per_tick.base_units());
      });

  add("payment_threshold", "SWAP payment threshold in base units",
      +[](Cfg& c, const std::string& v) {
        return set_token(c.sim.swap.payment_threshold, "payment_threshold", v,
                         /*allow_zero=*/false);
      },
      +[](const Cfg& c) {
        return std::to_string(c.sim.swap.payment_threshold.base_units());
      });

  add("disconnect_threshold", "SWAP disconnect threshold in base units",
      +[](Cfg& c, const std::string& v) {
        return set_token(c.sim.swap.disconnect_threshold,
                         "disconnect_threshold", v, /*allow_zero=*/false);
      },
      +[](const Cfg& c) {
        return std::to_string(c.sim.swap.disconnect_threshold.base_units());
      });

  add("max_hops", "route hop cap (0 = default 4x address bits)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("max_hops", v, "a hop count");
        c.sim.max_route_hops = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.sim.max_route_hops); });

  // --- flow-level bandwidth simulation (src/net/flow_sim) ----------------

  add("flow_level", "simulate transfers as max-min fair flows over links",
      +[](Cfg& c, const std::string& v) {
        return set_bool(c.sim.flow_level, "flow_level", v);
      },
      +[](const Cfg& c) {
        return std::string(c.sim.flow_level ? "true" : "false");
      });

  add("link_capacity", "per-edge link capacity in chunks per tick (> 0)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_double(v);
        if (!p) return bad("link_capacity", v, "a number");
        if (!(*p > 0.0)) return "link_capacity: must be positive";
        c.sim.flow.link_capacity = *p;
        return {};
      },
      +[](const Cfg& c) { return format_double(c.sim.flow.link_capacity); });

  add("flow_interarrival", "ticks between file arrivals (>= 1)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("flow_interarrival", v, "a tick count");
        if (*p < 1) return "flow_interarrival: must be at least 1";
        c.sim.flow.interarrival = *p;
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.sim.flow.interarrival); });

  add("flow_timeout", "ticks before an unfinished flow is abandoned (0 = off)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("flow_timeout", v, "a tick count");
        c.sim.flow.timeout = *p;
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.sim.flow.timeout); });

  add("bounded_fct", "record FCTs in a bounded-memory percentile sketch",
      +[](Cfg& c, const std::string& v) {
        return set_bool(c.sim.flow.bounded_fct, "bounded_fct", v);
      },
      +[](const Cfg& c) {
        return std::string(c.sim.flow.bounded_fct ? "true" : "false");
      });

  // --- strategic-agents epoch game (src/agents) --------------------------

  add("epochs", "strategy-revision epochs (0 = no epoch game)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("epochs", v, "an epoch count");
        c.agents.epochs = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.agents.epochs); });

  add("files_per_epoch", "file transfers simulated per epoch",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_u64(v);
        if (!p) return bad("files_per_epoch", v, "a file count");
        if (*p < 1) return "files_per_epoch: must be at least 1";
        c.agents.files_per_epoch = static_cast<std::size_t>(*p);
        return {};
      },
      +[](const Cfg& c) { return std::to_string(c.agents.files_per_epoch); });

  add("dynamics", "strategy-revision dynamics: imitate | best-response",
      +[](Cfg& c, const std::string& v) {
        return set_name(c.agents.dynamics, "dynamics", v,
                        {"imitate", "best-response"});
      },
      +[](const Cfg& c) { return c.agents.dynamics; });

  add("revision_rate", "share of nodes revising per epoch, [0, 1]",
      +[](Cfg& c, const std::string& v) {
        return set_share(c.agents.revision_rate, "revision_rate", v,
                         /*allow_zero=*/true);
      },
      +[](const Cfg& c) { return format_double(c.agents.revision_rate); });

  add("noise", "epsilon-noise per revision (random strategy), [0, 1]",
      +[](Cfg& c, const std::string& v) {
        return set_share(c.agents.noise, "noise", v, /*allow_zero=*/true);
      },
      +[](const Cfg& c) { return format_double(c.agents.noise); });

  add("bandwidth_cost", "cost per chunk served, token base units (>= 0)",
      +[](Cfg& c, const std::string& v) -> std::string {
        const auto p = parse_double(v);
        if (!p) return bad("bandwidth_cost", v, "a number");
        if (*p < 0.0) return "bandwidth_cost: must be non-negative";
        c.agents.bandwidth_cost = *p;
        return {};
      },
      +[](const Cfg& c) { return format_double(c.agents.bandwidth_cost); });

  add("initial_free_riders", "share of nodes starting as FREE_RIDE, [0, 1]",
      +[](Cfg& c, const std::string& v) {
        return set_share(c.agents.initial_free_riders, "initial_free_riders",
                         v, /*allow_zero=*/true);
      },
      +[](const Cfg& c) {
        return format_double(c.agents.initial_free_riders);
      });

  // --- workload traces (src/workload/trace) ------------------------------

  add("trace_out", "record the generated workload to this CSV path",
      +[](Cfg& c, const std::string& v) -> std::string {
        c.trace_out = v;
        return {};
      },
      +[](const Cfg& c) { return c.trace_out; });

  add("trace_in", "replay the workload trace at this CSV path",
      +[](Cfg& c, const std::string& v) -> std::string {
        c.trace_in = v;
        return {};
      },
      +[](const Cfg& c) { return c.trace_in; });

  // Mark the workload-generation keys (see Binding::workload_generation).
  // The diurnal keys are deliberately absent: they modulate flow *timing*
  // only, never the request stream, so they stay sweepable under replay.
  for (const char* key : {"files", "originators", "min_chunks", "max_chunks",
                          "upload_share", "zipf", "catalog", "catalog_zipf",
                          "demand", "zipf_s", "burst_start", "burst_files",
                          "burst_share"}) {
    for (Binding& binding : bindings_) {
      if (binding.key == key) binding.workload_generation = true;
    }
  }
}

const BindingTable& BindingTable::instance() {
  static const BindingTable table;
  return table;
}

const Binding* BindingTable::find(const std::string& key) const {
  for (const Binding& b : bindings_) {
    if (b.key == key) return &b;
  }
  return nullptr;
}

std::string BindingTable::apply(core::ExperimentConfig& cfg,
                                const std::string& key,
                                const std::string& value) const {
  const Binding* binding = find(key);
  if (!binding) return "unknown parameter '" + key + "'";
  return binding->set(cfg, value);
}

std::vector<std::string> BindingTable::apply_all(
    core::ExperimentConfig& cfg, const Config& args,
    std::span<const std::string> reserved) const {
  std::vector<std::string> errors;
  for (const auto& [key, value] : args.entries()) {
    if (std::find(reserved.begin(), reserved.end(), key) != reserved.end()) {
      continue;
    }
    std::string err = apply(cfg, key, value);
    if (!err.empty()) errors.push_back(std::move(err));
  }
  return errors;
}

std::vector<std::pair<std::string, std::string>> BindingTable::snapshot(
    const core::ExperimentConfig& cfg) const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(bindings_.size());
  for (const Binding& b : bindings_) {
    out.emplace_back(b.key, b.get(cfg));
  }
  return out;
}

std::string validate(const core::ExperimentConfig& cfg) {
  if (cfg.topology.address_bits < 64 &&
      cfg.topology.node_count >
          (std::uint64_t{1} << cfg.topology.address_bits)) {
    return "nodes: " + std::to_string(cfg.topology.node_count) +
           " nodes do not fit a " + std::to_string(cfg.topology.address_bits) +
           "-bit address space";
  }
  if (cfg.sim.workload.min_chunks_per_file >
      cfg.sim.workload.max_chunks_per_file) {
    return "min_chunks: must not exceed max_chunks";
  }
  if (cfg.sim.swap.payment_threshold > cfg.sim.swap.disconnect_threshold) {
    return "payment_threshold: must not exceed disconnect_threshold";
  }
  if (!cfg.trace_in.empty() && !cfg.trace_out.empty()) {
    return "trace_in: cannot record and replay in the same run (drop "
           "trace_out)";
  }
  if (cfg.sim.demand.diurnal_amp > 0.0 &&
      cfg.sim.demand.diurnal_period <= 0.0) {
    return "diurnal_amp: requires diurnal_period > 0";
  }
  // One Zipf exponent applies per demand kind; the other would be a
  // silent no-op (DemandEngine::effective_base).
  const workload::DemandConfig& demand = cfg.sim.demand;
  const double catalog_zipf = cfg.sim.workload.catalog_zipf_alpha;
  const bool zipf_demand = demand.kind == workload::DemandConfig::Kind::kZipf;
  if (!zipf_demand && demand.zipf_s != workload::DemandConfig{}.zipf_s) {
    return "zipf_s: applies only under demand=zipf; the catalog's exponent "
           "is catalog_zipf=";
  }
  if (zipf_demand &&
      catalog_zipf != workload::WorkloadConfig{}.catalog_zipf_alpha) {
    return "catalog_zipf: demand=zipf overrides it; the exponent is zipf_s=";
  }
  if (zipf_demand && demand.catalog == 0 &&
      cfg.sim.workload.catalog_size == 0) {
    return "demand: zipf demand needs a catalog (set catalog=)";
  }
  return {};
}

void apply_and_validate(core::ExperimentConfig& cfg, const Config& args,
                        std::span<const std::string> reserved) {
  std::string errors;
  for (const std::string& err :
       BindingTable::instance().apply_all(cfg, args, reserved)) {
    if (!errors.empty()) errors += "; ";
    errors += err;
  }
  if (errors.empty()) errors = validate(cfg);
  if (!errors.empty()) throw std::invalid_argument(errors);
}

}  // namespace fairswap::harness
