// The heavy-traffic scenario: a 10M+-request demand stream (Zipf catalog
// popularity + flash crowd + upload mix) pushed through sharded
// simulations whose distributions are kept as bounded-memory streaming
// sketches (common/stream_stats) instead of per-request vectors. The
// scenario is its own acceptance harness: it checks the sketch against an
// exact sort oracle on a subsample, replays shard 0 through
// Simulation::reset for bit-identity, re-merges the shards in reverse
// order to witness merge-order invariance, checks that a configured
// flash-crowd window opened in every shard, and (optionally) gates peak
// RSS — the CI smoke runs it with max_rss_mb= set.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/mem.hpp"
#include "common/table.hpp"
#include "common/telemetry/counters.hpp"
#include "common/telemetry/span.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"
#include "core/simulation.hpp"
#include "core/task_pool.hpp"
#include "harness/binding.hpp"
#include "harness/scenario.hpp"

namespace fairswap::harness {

namespace {

/// How many leading hop values shard 0 keeps exactly as the oracle
/// subsample (ISSUE 9: "a 100k-request subsample").
constexpr std::size_t kOracleSample = 100'000;

/// One shard's outcome: the streaming aggregates plus the totals needed
/// for the conservation check and the report.
struct ShardResult {
  core::StreamAggregates stream;
  core::SimulationTotals totals;
  /// Sim-plane telemetry counters — merged in canonical shard order
  /// alongside the sketches and held to the same invariance gates.
  telemetry::CounterBlock counters;
  /// Hop-sketch fingerprint of the record -> reset -> replay rerun
  /// (shard 0 only; 0 elsewhere).
  std::uint64_t replay_fingerprint{0};
  bool replayed{false};
  /// Requests the shard's demand engine generated (its last request
  /// index + 1); the flash-crowd window opened iff this passed
  /// burst_start.
  std::uint64_t requests_generated{0};
};

/// Runs one shard to its chunk-request quota. The quota is a lower bound
/// hit at a file boundary (a file's last chunks may overshoot), which is
/// deterministic for a given (config, rng) regardless of who runs it.
ShardResult run_shard(const overlay::Topology& topo,
                      const core::SimulationConfig& sim_cfg, Rng rng,
                      std::uint64_t quota, bool replay_check) {
  TELEM_SPAN("run_shard");
  core::Simulation sim(topo, sim_cfg, rng);
  while (sim.totals().chunk_requests < quota) sim.step();
  ShardResult r;
  r.stream = sim.stream();
  r.totals = sim.totals();
  r.counters = sim.telem();
  r.requests_generated = sim.demand().requests_generated();
  if (replay_check) {
    sim.reset(rng);
    while (sim.totals().chunk_requests < quota) sim.step();
    r.replay_fingerprint = sim.stream().hops.fingerprint();
    r.replayed = true;
  }
  return r;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

// --- heavy_traffic ------------------------------------------------------
//
// "A 10M-request heavy_traffic run completes with bounded aggregation
// memory, reports streaming percentiles within the sketch's documented
// error bound of the exact oracle on a 100k-request subsample, and is
// bit-identical across threads=1 vs threads=8 and across record -> replay
// via Simulation::reset" (ISSUE 9 acceptance).
int scenario_heavy_traffic(ScenarioContext& ctx) {
  if (ctx.args.has("files")) {
    throw std::invalid_argument(
        "heavy_traffic is request-quota driven; use requests=, not files=");
  }
  const auto requests = ctx.args.get_u64("requests", 1'000'000, /*min=*/1);
  // Shard count is a workload parameter, deliberately independent of
  // threads=: the shard seeds and the canonical merge order are fixed, so
  // any thread count produces the same bits.
  const auto shards = ctx.args.get_u64("shards", 8, /*min=*/1);
  const auto max_rss_mb = ctx.args.get_u64("max_rss_mb", 0);

  // Scenario defaults: the paper grid cell plus a fully composed demand
  // process. Every knob below is a regular binding, so CLI overrides run
  // through the same strict table as sweeps.
  core::ExperimentConfig cfg = core::paper_config(4, 1.0, /*files=*/0,
                                                  ctx.seed);
  cfg.label = "heavy_traffic";
  cfg.sim.demand.kind = workload::DemandConfig::Kind::kZipf;
  cfg.sim.demand.zipf_s = 0.9;
  // The flash crowd opens early enough that every shard reaches it: at
  // the default 1M requests x 8 shards a shard applies ~230 files, and
  // even the 50k x 4 CI smoke applies ~20.
  cfg.sim.demand.burst_start = 10;
  cfg.sim.demand.burst_files = 100;
  cfg.sim.demand.burst_share = 0.5;
  cfg.sim.workload.upload_share = 0.1;
  cfg.sim.stream_metrics = true;

  static const std::vector<std::string> reserved = {
      "files", "seed", "out", "threads", "verbose",
      "requests", "shards", "max_rss_mb"};
  apply_and_validate(cfg, ctx.args, reserved);

  banner(ctx.os(), "Heavy traffic: streaming bounded-memory aggregation");
  print(ctx.os(),
        "%" PRIu64 " chunk requests across %" PRIu64 " shards "
        "(seed %" PRIu64 ")...\n",
        requests, shards, ctx.seed);
  ctx.os().flush();

  const overlay::Topology topo = core::build_topology(cfg);
  const Rng root(cfg.seed);

  std::vector<ShardResult> results(shards);
  const auto shard_task = [&](std::size_t s) {
    // Quota split: remainder spread over the leading shards.
    const std::uint64_t quota =
        requests / shards + (s < requests % shards ? 1 : 0);
    core::SimulationConfig sim_cfg = cfg.sim;
    // Shard 0 keeps the exact subsample the oracle check reads.
    sim_cfg.stream_sample_cap = s == 0 ? kOracleSample : 0;
    results[s] = run_shard(topo, sim_cfg, root.split(1).split(s), quota,
                           /*replay_check=*/s == 0);
  };

  std::size_t threads = ctx.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads <= 1 || shards <= 1) {
    for (std::size_t s = 0; s < shards; ++s) shard_task(s);
  } else {
    core::TaskPool pool(std::min<std::size_t>(threads, shards));
    // fairswap-lint: allow(shared-capture) -- shard_task writes only
    // results[s] and each s runs exactly once; the merge below runs after
    // parallel_for's barrier, single-threaded.
    pool.parallel_for(shards, shard_task);
  }

  // Canonical fold: shard order 0..S-1. Integer-count sketch merges are
  // exact, so this is the same result any thread schedule produces.
  TELEM_SPAN("fold_shards");
  core::StreamAggregates merged;
  telemetry::CounterBlock merged_counters;
  std::uint64_t chunk_requests = 0, delivered = 0, refused = 0;
  std::uint64_t failed = 0, truncated = 0, files = 0, uploads = 0;
  for (const ShardResult& r : results) {
    merged.merge(r.stream);
    merged_counters.merge(r.counters);
    chunk_requests += r.totals.chunk_requests;
    delivered += r.totals.delivered;
    refused += r.totals.refused;
    failed += r.totals.failed_routes;
    truncated += r.totals.truncated_routes;
    files += r.totals.files;
    uploads += r.totals.upload_files;
  }
  // Witness merge-order invariance on the real data: reverse-order fold
  // must produce the same bits (the unit suite proves it in general).
  core::StreamAggregates reversed;
  telemetry::CounterBlock reversed_counters;
  for (std::size_t s = shards; s-- > 0;) {
    reversed.merge(results[s].stream);
    reversed_counters.merge(results[s].counters);
  }
  const bool merge_invariant =
      merged.hops.fingerprint() == reversed.hops.fingerprint() &&
      merged.chunks_per_file.fingerprint() ==
          reversed.chunks_per_file.fingerprint() &&
      merged_counters == reversed_counters;

  // Sketch-vs-oracle differential on shard 0's exact subsample: a sketch
  // fed exactly those values must land every quantile within the
  // documented relative error bound of the sorted-order statistic.
  const std::vector<double>& sample = results[0].stream.hops_sample;
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  PercentileSketch sample_sketch;
  for (const double v : sample) sample_sketch.add(v);
  const double bound = sample_sketch.relative_error_bound();
  bool oracle_ok = !sorted.empty();
  const double quantiles[] = {0.50, 0.90, 0.99};
  double oracle_exact[3] = {0, 0, 0}, oracle_sketch[3] = {0, 0, 0};
  for (std::size_t i = 0; i < 3; ++i) {
    const double q = quantiles[i];
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::max<std::size_t>(1, std::min(rank, sorted.size()));
    oracle_exact[i] = sorted.empty() ? 0.0 : sorted[rank - 1];
    oracle_sketch[i] = sample_sketch.quantile(q);
    oracle_ok = oracle_ok &&
                std::abs(oracle_sketch[i] - oracle_exact[i]) <=
                    bound * std::abs(oracle_exact[i]) + 1e-12;
  }

  const bool replay_identical =
      results[0].replayed &&
      results[0].replay_fingerprint == results[0].stream.hops.fingerprint();
  const bool conserved =
      delivered + refused + failed + truncated == chunk_requests;
  // A configured flash crowd that some shard never reached would silently
  // thin the run's demand; judged from request indices, so builds without
  // telemetry counters check it too.
  const bool burst_configured = cfg.sim.demand.burst_files > 0;
  std::uint64_t burst_opened = 0;
  for (const ShardResult& r : results) {
    if (r.requests_generated > cfg.sim.demand.burst_start) ++burst_opened;
  }
  const bool burst_ok = !burst_configured || burst_opened == shards;
  const std::uint64_t peak_rss = peak_rss_bytes();
  const double peak_rss_mb =
      static_cast<double>(peak_rss) / (1024.0 * 1024.0);
  // In whole MB, rounded up: the same verdict as peak_rss <= max_rss_mb
  // MiB, without a product that wraps for max_rss_mb >= 2^44.
  constexpr std::uint64_t kMiB = 1024 * 1024;
  const bool rss_ok =
      max_rss_mb == 0 || (peak_rss + kMiB - 1) / kMiB <= max_rss_mb;

  TextTable table({"metric", "value"});
  table.add_row({"chunk requests", std::to_string(chunk_requests)});
  table.add_row({"files (uploads)", std::to_string(files) + " (" +
                                        std::to_string(uploads) + ")"});
  table.add_row({"hops p50", TextTable::num(merged.hops.quantile(0.50), 3)});
  table.add_row({"hops p90", TextTable::num(merged.hops.quantile(0.90), 3)});
  table.add_row({"hops p99", TextTable::num(merged.hops.quantile(0.99), 3)});
  table.add_row({"chunks/file p50",
                 TextTable::num(merged.chunks_per_file.quantile(0.50), 3)});
  table.add_row({"sketch rel. error bound", TextTable::num(bound, 5)});
  table.add_row({"peak RSS (MB)", TextTable::num(peak_rss_mb, 1)});
  table.add_row({"oracle within bound", oracle_ok ? "yes" : "NO"});
  table.add_row({"reset replay identical", replay_identical ? "yes" : "NO"});
  table.add_row({"merge order invariant", merge_invariant ? "yes" : "NO"});
  table.add_row({"request conservation", conserved ? "yes" : "NO"});
  if (burst_configured) {
    table.add_row({"flash crowd opened (shards)",
                   std::to_string(burst_opened) + "/" +
                       std::to_string(shards) + (burst_ok ? "" : " NO")});
  }
  if (max_rss_mb > 0) {
    table.add_row({"RSS gate (<= " + std::to_string(max_rss_mb) + " MB)",
                   rss_ok ? "yes" : "NO"});
  }
  print(ctx.os(), "%s", table.render().c_str());

  std::ostringstream doc;
  {
    JsonWriter json(doc);
    json.open();
    json.field("schema", "fairswap.heavy_traffic.v1");
    json.field("requests", chunk_requests);
    json.field("requested_quota", requests);
    json.field("shards", shards);
    json.field("seed", cfg.seed);
    json.field("files", files);
    json.field("upload_files", uploads);
    json.open("hops");
    json.field("count", merged.hops.count());
    json.field("p50", merged.hops.quantile(0.50));
    json.field("p90", merged.hops.quantile(0.90));
    json.field("p99", merged.hops.quantile(0.99));
    json.field("fingerprint", hex64(merged.hops.fingerprint()));
    json.close();
    json.open("chunks_per_file");
    json.field("count", merged.chunks_per_file.count());
    json.field("p50", merged.chunks_per_file.quantile(0.50));
    json.field("p99", merged.chunks_per_file.quantile(0.99));
    json.close();
    // Sim-plane counters, canonical fold over shards — same
    // bit-identity contract as the sketch fingerprints above.
    json.open("counters");
    merged_counters.for_each([&](std::string_view name, std::uint64_t value) {
      json.field(std::string(name).c_str(), value);
    });
    json.field("fingerprint", hex64(merged_counters.fingerprint()));
    json.close();
    json.open("oracle");
    json.field("sample", sorted.size());
    json.field("relative_error_bound", bound);
    json.field("p50_exact", oracle_exact[0]);
    json.field("p50_sketch", oracle_sketch[0]);
    json.field("p90_exact", oracle_exact[1]);
    json.field("p90_sketch", oracle_sketch[1]);
    json.field("p99_exact", oracle_exact[2]);
    json.field("p99_sketch", oracle_sketch[2]);
    json.field("within_bound", oracle_ok);
    json.close();
    json.field("replay_identical", replay_identical);
    json.field("merge_order_invariant", merge_invariant);
    json.field("request_conservation", conserved);
    json.field("burst_opened_shards", burst_opened);
    json.field("peak_rss_mb", peak_rss_mb);
    json.field("max_rss_mb", max_rss_mb);
    json.field("rss_within_gate", rss_ok);
    json.close();
  }
  doc << "\n";
  const std::string path = ctx.out_dir + "/RUN_heavy_traffic.json";
  core::write_text_file(path, doc.str());
  print(ctx.os(), "wrote %s (schema fairswap.heavy_traffic.v1)\n",
        path.c_str());

  if (!oracle_ok || !replay_identical || !merge_invariant || !conserved) {
    print(ctx.os(), "ERROR: streaming-aggregation invariant violated (see "
                    "table above)\n");
    return 1;
  }
  if (!burst_ok) {
    print(ctx.os(),
          "ERROR: the flash-crowd window [%" PRIu64 ", %" PRIu64
          ") never opened in %" PRIu64 " of %" PRIu64
          " shards — raise requests= or lower burst_start=\n",
          cfg.sim.demand.burst_start,
          cfg.sim.demand.burst_start + cfg.sim.demand.burst_files,
          shards - burst_opened, shards);
    return 1;
  }
  if (!rss_ok) {
    print(ctx.os(),
          "ERROR: peak RSS %.1f MB exceeds the max_rss_mb=%" PRIu64
          " gate — aggregation memory is not bounded\n",
          peak_rss_mb, max_rss_mb);
    return 1;
  }
  return 0;
}

}  // namespace

void register_heavy_scenarios() {
  ScenarioRegistry::instance().add(
      {"heavy_traffic",
       "sharded 1M+-request demand stream with streaming sketch metrics "
       "(+ oracle, replay, memory checks)",
       0, &scenario_heavy_traffic,
       {"requests", "shards", "max_rss_mb", "nodes", "bits", "k",
        "originators", "min_chunks", "max_chunks", "catalog", "catalog_zipf",
        "demand", "zipf_s", "burst_start", "burst_files", "burst_share",
        "diurnal_period", "diurnal_amp", "upload_mix", "upload_share",
        "policy", "pricer", "cache"}});
}

}  // namespace fairswap::harness
