// Scale scenario suite + routing and ledger hot-path microbenchmarks.
//
// Part 1 — routing microbenchmark: on the 1000-node paper grid
// (k in {4, 20}), routes a batch of random (origin, chunk) pairs through
// the Address-keyed greedy walk (the ForwardingRouter test oracle) and
// through the compiled NodeIndex path (Topology::compiled()), verifies the
// routes are bit-identical, and reports ns/route plus the speedup
// (target: >= 5x).
//
// Part 2 — ledger (debit path) microbenchmark: replays the SWAP debit
// sequence of those routes through the hash-map SwapNetwork test oracle
// and through the edge-arena Ledger (slots resolved from the routes' edge
// ids), verifies identical ledger state, and reports ns/debit plus the
// speedup and the memory cost of each.
//
// Part 3 — flow-level overhead: on the same grid, runs one cell
// counter-based and once with SimulationConfig::flow_level, verifies the
// accounting is bit-identical (the flow layer is purely temporal) and
// reports the wall-clock overhead plus the FCT/saturation outputs.
//
// Part 4 — workload engine throughput: pulls a request stream from the
// plain DownloadGenerator and from a fully composed DemandEngine
// (Zipf + flash crowd + diurnal modulation + upload mix), verifies the
// default DemandConfig reproduces the plain stream bit-for-bit, and
// reports ns/request for both plus the streaming-sketch summary of the
// stream (chunks-per-request percentiles, occupied bins — the memory
// bound — and the sketch fingerprint).
//
// Part 5 — scale scenarios: nodes (default 10'000) on a bits (default 20)
// -bit address space across k in {4, 20}, driven through the parallel
// multi-seed run_seeds path; prints fairness aggregates with error bars
// plus the route accounting (delivered / failed / truncated). Each cell
// additionally runs single-seed through the simulation and through the
// ReferenceRun test oracle (greedy walk, edge-less routes accounted by
// slot scans) and cross-checks every counter and ledger observable at
// scale.
//
// Outputs: scale_routing.csv, scale_totals.csv, and the machine-readable
// BENCH_scale.json (schema fairswap.bench_scale.v1 — routing + ledger +
// workload throughput, equivalence verdicts, memory) that CI uploads as
// the repo's bench trajectory artifact.
//
// Overrides: nodes=<n> bits=<n> files=<n> seeds=<count> threads=<max>
//            routes=<n> flow_files=<n> workload_requests=<n> seed=<n>
//            out=<dir>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "accounting/ledger.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/stream_stats.hpp"
#include "common/table.hpp"
#include "core/multi_run.hpp"
#include "core/simulation.hpp"
#include "oracles/forwarding_router.hpp"
#include "oracles/reference_run.hpp"
#include "oracles/swap_network.hpp"
#include "overlay/compiled_router.hpp"
#include "workload/engine.hpp"

namespace {

using namespace fairswap;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Every micro-benchmark loop runs this many times and reports the
/// fastest pass. Scheduling noise and cold caches only ever add time, so
/// best-of-N is the stable estimate the bench_guard drift gate compares
/// against its committed baseline.
constexpr int kTimingReps = 5;

struct RoutePair {
  overlay::NodeIndex origin;
  Address chunk;
};

struct MicroResult {
  std::size_t k{0};
  double greedy_ns{0};
  double compiled_ns{0};
  double batched_ns{0};
  bool identical{true};
  std::size_t hops{0};

  /// Old hot path (sequential greedy walk) vs new hot path (the batched
  /// compiled walk the simulation actually runs).
  [[nodiscard]] double speedup() const { return greedy_ns / batched_ns; }
};

MicroResult route_microbench(std::size_t k, std::size_t route_count,
                             std::uint64_t seed) {
  const auto cfg = core::paper_config(k, 1.0, 1, seed);
  const auto topo = core::build_topology(cfg);
  const overlay::ForwardingRouter greedy(topo);
  const overlay::CompiledRouter& compiled = topo.compiled();

  Rng rng(seed + k);
  std::vector<RoutePair> pairs(route_count);
  for (auto& p : pairs) {
    p.origin = static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    p.chunk = Address{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
  }

  MicroResult result;
  result.k = k;

  // Bit-identity spot check over a prefix (sequential and batched
  // compiled walks against the greedy reference), hop checksum over the
  // whole batch.
  const std::size_t verify = std::min<std::size_t>(2'000, route_count);
  {
    std::vector<overlay::NodeIndex> vorigins(verify);
    std::vector<Address> vchunks(verify);
    for (std::size_t i = 0; i < verify; ++i) {
      vorigins[i] = pairs[i].origin;
      vchunks[i] = pairs[i].chunk;
    }
    std::vector<overlay::Route> batched;
    compiled.route_batch(vorigins, vchunks, batched);
    for (std::size_t i = 0; i < verify; ++i) {
      const auto a = greedy.route(pairs[i].origin, pairs[i].chunk);
      const auto b = compiled.route(pairs[i].origin, pairs[i].chunk);
      if (a.path != b.path || a.reached_storer != b.reached_storer ||
          a.truncated != b.truncated || b.path != batched[i].path ||
          b.reached_storer != batched[i].reached_storer ||
          b.truncated != batched[i].truncated) {
        result.identical = false;
      }
    }
  }

  // Both sides reuse one path buffer so the comparison isolates the
  // routing machinery rather than per-route allocation. Every timed loop
  // runs kTimingReps times and keeps the fastest pass: scheduling noise
  // only ever adds time, so the minimum is the stable estimate the
  // bench_guard baseline comparison needs (the loops are read-only, so
  // repetition cannot change results).
  overlay::Route buf;
  std::size_t greedy_hops = 0;
  result.greedy_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    greedy_hops = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& p : pairs) {
      greedy.route_into(p.origin, p.chunk, buf);
      greedy_hops += buf.hops();
    }
    result.greedy_ns =
        std::min(result.greedy_ns,
                 seconds_since(start) * 1e9 / static_cast<double>(route_count));
  }

  std::size_t compiled_hops = 0;
  result.compiled_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    compiled_hops = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& p : pairs) {
      compiled.route_into(p.origin, p.chunk, buf);
      compiled_hops += buf.hops();
    }
    result.compiled_ns =
        std::min(result.compiled_ns,
                 seconds_since(start) * 1e9 / static_cast<double>(route_count));
  }

  // Batched walk — the per-file shape the simulation routes with. Batches
  // of 512 approximate a paper file's chunk count.
  std::vector<overlay::NodeIndex> origins(pairs.size());
  std::vector<Address> chunks(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    origins[i] = pairs[i].origin;
    chunks[i] = pairs[i].chunk;
  }
  std::vector<overlay::Route> batch;
  std::size_t batched_hops = 0;
  constexpr std::size_t kBatch = 512;
  result.batched_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    batched_hops = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t at = 0; at < pairs.size(); at += kBatch) {
      const std::size_t n = std::min(kBatch, pairs.size() - at);
      compiled.route_batch({origins.data() + at, n}, {chunks.data() + at, n},
                           batch);
      for (const auto& r : batch) batched_hops += r.hops();
    }
    result.batched_ns =
        std::min(result.batched_ns,
                 seconds_since(start) * 1e9 / static_cast<double>(route_count));
  }

  if (greedy_hops != compiled_hops || greedy_hops != batched_hops) {
    result.identical = false;
  }
  result.hops = compiled_hops;
  return result;
}

struct LedgerResult {
  std::size_t k{0};
  std::size_t debits{0};
  double map_ns{0};
  double edge_ns{0};
  bool identical{true};
  std::size_t map_bytes{0};
  std::size_t edge_bytes{0};
  std::size_t pair_slots{0};

  [[nodiscard]] double speedup() const { return map_ns / edge_ns; }
};

/// Replays the per-hop SWAP debit sequence of a route batch through both
/// ledgers: the hash lookup per hop (the SwapNetwork oracle) vs the
/// edge-id slot load (Ledger). The debit sequence, prices and settlement
/// pattern are identical by construction, so any state divergence is a
/// ledger bug.
LedgerResult ledger_microbench(std::size_t k, std::size_t route_count,
                               std::uint64_t seed) {
  const auto cfg = core::paper_config(k, 1.0, 1, seed);
  const auto topo = core::build_topology(cfg);
  const overlay::CompiledRouter& router = topo.compiled();

  Rng rng(seed + 31 * k);
  std::vector<overlay::NodeIndex> origins(route_count);
  std::vector<Address> chunks(route_count);
  for (std::size_t i = 0; i < route_count; ++i) {
    origins[i] = static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    chunks[i] = Address{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
  }
  std::vector<overlay::Route> routes;
  router.route_batch(origins, chunks, routes);

  // Thresholds low enough that settlements fire regularly: the replay
  // exercises accrual, settle-to-zero and reactivation, not just inserts.
  accounting::SwapConfig swap_cfg;
  swap_cfg.payment_threshold = Token(20'000);
  swap_cfg.disconnect_threshold = Token(30'000);
  const Token price(1'000);

  LedgerResult result;
  result.k = k;
  for (const auto& r : routes) {
    if (r.reached_storer) result.debits += r.hops();
  }

  // Best-of-kTimingReps, like the routing micro: the replay mutates
  // ledger state, so each rep starts from a fresh ledger and replays the
  // identical deterministic sequence — every rep ends in the same state,
  // and the fastest pass is the noise-robust estimate bench_guard
  // compares against its baseline. The ledgers from the last rep feed
  // the state-identity check below.
  accounting::SwapNetwork map_ledger(topo.node_count(), swap_cfg);
  result.map_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    map_ledger = accounting::SwapNetwork(topo.node_count(), swap_cfg);
    const auto start = std::chrono::steady_clock::now();
    for (const auto& r : routes) {
      if (!r.reached_storer) continue;
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        (void)map_ledger.debit(r.path[i], r.path[i + 1], price);
      }
    }
    result.map_ns = std::min(
        result.map_ns,
        seconds_since(start) * 1e9 /
            static_cast<double>(std::max<std::size_t>(1, result.debits)));
  }

  accounting::Ledger edge_ledger(router, swap_cfg);
  result.edge_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    edge_ledger = accounting::Ledger(router, swap_cfg);
    const auto start = std::chrono::steady_clock::now();
    for (const auto& r : routes) {
      if (!r.reached_storer) continue;
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        (void)edge_ledger.debit(r.path[i], r.path[i + 1], price,
                                /*can_settle=*/true, r.edges[i]);
      }
    }
    result.edge_ns = std::min(
        result.edge_ns,
        seconds_since(start) * 1e9 /
            static_cast<double>(std::max<std::size_t>(1, result.debits)));
  }

  result.identical = map_ledger.income() == edge_ledger.income() &&
                     map_ledger.spent() == edge_ledger.spent() &&
                     map_ledger.settlements() == edge_ledger.settlements() &&
                     map_ledger.outstanding_debt() ==
                         edge_ledger.outstanding_debt() &&
                     map_ledger.active_pairs() == edge_ledger.active_pairs();
  result.map_bytes = map_ledger.memory_bytes();
  result.edge_bytes = edge_ledger.memory_bytes();
  result.pair_slots = edge_ledger.pair_count();
  return result;
}

struct CellReferenceCheck {
  double edge_wall_s{0};
  double reference_wall_s{0};
  bool identical{true};
  std::size_t edge_bytes{0};
  std::uint64_t settlements{0};
  std::size_t active_pairs{0};
  /// The simulation's run packaged as the cell's representative
  /// single-seed result (reused for totals_csv — no third run).
  core::ExperimentResult edge_result;

  [[nodiscard]] double speedup() const {
    return reference_wall_s / edge_wall_s;
  }
};

/// Runs one scale cell single-seed through the simulation and through the
/// reference run and cross-checks every counter and ledger observable —
/// the 10k-node leg of the differential equivalence suite.
CellReferenceCheck scale_reference_check(const core::ExperimentConfig& cfg,
                                         const overlay::Topology& topo) {
  const Rng sim_rng = Rng(cfg.seed).split(1);
  CellReferenceCheck check;
  core::Simulation sim(topo, cfg.sim, sim_rng);
  auto start = std::chrono::steady_clock::now();
  sim.run(cfg.files);
  check.edge_wall_s = seconds_since(start);
  core::ReferenceRun reference(topo, cfg.sim, sim_rng);
  start = std::chrono::steady_clock::now();
  reference.run(cfg.files);
  check.reference_wall_s = seconds_since(start);

  const auto& a = sim.swap();
  const auto& b = reference.swap();
  check.identical = sim.totals() == reference.totals() &&
                    sim.counters() == reference.counters() &&
                    a.income() == b.income() && a.spent() == b.spent() &&
                    a.settlements() == b.settlements() &&
                    a.outstanding_debt() == b.outstanding_debt() &&
                    a.active_pairs() == b.active_pairs();
  check.edge_bytes = a.memory_bytes();
  check.settlements = a.settlements().size();
  check.active_pairs = a.active_pairs();
  check.edge_result = core::package_experiment(cfg, sim, check.edge_wall_s);
  return check;
}

struct FlowBenchResult {
  std::size_t k{0};
  double counter_wall_s{0};
  double flow_wall_s{0};
  /// Counter-based and flow-level runs agree on every accounting field.
  bool identical{true};
  std::uint64_t flows{0};
  double fct_p50{0};
  double fct_p99{0};
  std::uint64_t saturated_links{0};
  double max_utilization{0};

  [[nodiscard]] double overhead() const {
    return flow_wall_s / counter_wall_s;
  }
  /// Flow-level wall time per started flow — the unit cost bench_guard
  /// gates for the flow plane.
  [[nodiscard]] double ns_per_flow() const {
    return flows > 0 ? flow_wall_s * 1e9 / static_cast<double>(flows) : 0.0;
  }
};

/// Runs one paper-grid cell counter-based and flow-level (same seed), times
/// both, cross-checks the accounting and reports the temporal outputs —
/// the bench leg of tests/net/flow_equivalence_test.cpp. The flow-level
/// time is the best of three identical runs, since bench_guard gates it.
FlowBenchResult flow_bench(std::size_t k, std::size_t files,
                           std::uint64_t seed) {
  auto cfg = core::paper_config(k, 1.0, files, seed);
  cfg.sim.flow.link_capacity = 0.01;  // congested enough to saturate links
  const auto topo = core::build_topology(cfg);

  auto run_one = [&](bool flow_level, double& wall_s) {
    auto sim_cfg = cfg.sim;
    sim_cfg.flow_level = flow_level;
    Rng root(cfg.seed);
    Rng sim_rng = root.split(1);
    auto sim = std::make_unique<core::Simulation>(topo, sim_cfg, sim_rng);
    const auto start = std::chrono::steady_clock::now();
    sim->run(cfg.files);
    sim->finish_flows();
    wall_s = seconds_since(start);
    return sim;
  };

  FlowBenchResult result;
  result.k = k;
  const auto counter_sim = run_one(false, result.counter_wall_s);
  std::unique_ptr<core::Simulation> flow_sim;
  result.flow_wall_s = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    double wall_s = 0;
    flow_sim = run_one(true, wall_s);
    result.flow_wall_s = std::min(result.flow_wall_s, wall_s);
  }
  const auto& a = counter_sim->totals();
  const auto& b = flow_sim->totals();
  result.identical =
      a.files == b.files && a.chunk_requests == b.chunk_requests &&
      a.delivered == b.delivered && a.refused == b.refused &&
      a.failed_routes == b.failed_routes &&
      a.truncated_routes == b.truncated_routes &&
      a.local_hits == b.local_hits &&
      a.total_transmissions == b.total_transmissions &&
      counter_sim->counters() == flow_sim->counters() &&
      counter_sim->income_per_node() == flow_sim->income_per_node() &&
      counter_sim->swap().income() == flow_sim->swap().income() &&
      counter_sim->swap().spent() == flow_sim->swap().spent() &&
      counter_sim->swap().settlements() == flow_sim->swap().settlements() &&
      counter_sim->swap().outstanding_debt() ==
          flow_sim->swap().outstanding_debt();
  result.flows = b.flows_started;
  result.fct_p50 = b.fct_p50;
  result.fct_p99 = b.fct_p99;
  result.saturated_links = b.saturated_links;
  result.max_utilization = b.max_link_utilization;
  return result;
}

struct WorkloadBenchResult {
  std::size_t requests{0};
  double plain_ns{0};
  double composed_ns{0};
  /// A default DemandConfig reproduces the plain generator bit-for-bit.
  bool default_identical{true};
  double chunks_p50{0};
  double chunks_p99{0};
  std::size_t sketch_bins{0};
  std::uint64_t sketch_fingerprint{0};

  [[nodiscard]] double overhead() const { return composed_ns / plain_ns; }
};

/// Pulls `requests` from the plain DownloadGenerator and from a fully
/// composed DemandEngine (Zipf + flash crowd + diurnal + upload mix) on
/// the 1000-node paper topology, spot-checks the default-config
/// bit-identity contract, and summarizes the composed stream through a
/// PercentileSketch — the lazy-stream analogue of the routing/ledger
/// microbenchmarks above.
WorkloadBenchResult workload_bench(std::size_t requests, std::uint64_t seed) {
  const auto cfg = core::paper_config(4, 1.0, 1, seed);
  const auto topo = core::build_topology(cfg);
  const workload::WorkloadConfig base = cfg.sim.workload;

  WorkloadBenchResult result;
  result.requests = requests;

  // Contract spot check: the engine with a default DemandConfig is the
  // plain generator, request for request.
  {
    workload::DownloadGenerator plain(topo, base, Rng(seed));
    workload::DemandEngine engine(topo, base, workload::DemandConfig{},
                                  Rng(seed));
    const std::size_t verify = std::min<std::size_t>(2'000, requests);
    for (std::size_t i = 0; i < verify; ++i) {
      const auto a = plain.next();
      const auto b = engine.next();
      if (a.originator != b.originator || a.is_upload != b.is_upload ||
          a.chunks != b.chunks) {
        result.default_identical = false;
      }
    }
  }

  std::size_t plain_chunks = 0;
  {
    workload::DownloadGenerator plain(topo, base, Rng(seed));
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < requests; ++i) {
      plain_chunks += plain.next().chunks.size();
    }
    result.plain_ns =
        seconds_since(start) * 1e9 / static_cast<double>(requests);
  }

  workload::DemandConfig demand;
  demand.kind = workload::DemandConfig::Kind::kZipf;
  demand.zipf_s = 0.9;
  demand.burst_start = requests / 4;
  demand.burst_files = std::max<std::uint64_t>(1, requests / 10);
  demand.burst_share = 0.5;
  demand.diurnal_period = 10'000.0;
  demand.diurnal_amp = 0.3;
  workload::WorkloadConfig mixed = base;
  mixed.upload_share = 0.1;

  std::size_t composed_chunks = 0;
  PercentileSketch chunks_per_request;
  double interarrival_sum = 0.0;
  {
    workload::DemandEngine engine(topo, mixed, demand, Rng(seed));
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < requests; ++i) {
      const auto req = engine.next();
      composed_chunks += req.chunks.size();
      chunks_per_request.add(static_cast<double>(req.chunks.size()));
      interarrival_sum += engine.interarrival_for(i, 1.0);
    }
    result.composed_ns =
        seconds_since(start) * 1e9 / static_cast<double>(requests);
  }
  // Keep both accumulation loops observable.
  if (plain_chunks == 0 || composed_chunks == 0 || interarrival_sum <= 0.0) {
    result.default_identical = false;
  }

  result.chunks_p50 = chunks_per_request.quantile(0.50);
  result.chunks_p99 = chunks_per_request.quantile(0.99);
  result.sketch_bins = chunks_per_request.histogram().bin_count();
  result.sketch_fingerprint = chunks_per_request.fingerprint();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fairswap;
  auto args = bench::BenchArgs::parse(argc, argv);
  // A 10k-node multi-seed run multiplies cost; default files down.
  args.files = args.cfg.get_or("files", std::uint64_t{1'000});
  const auto nodes =
      static_cast<std::size_t>(args.cfg.get_or("nodes", std::uint64_t{10'000}));
  const auto bits =
      static_cast<int>(args.cfg.get_or("bits", std::uint64_t{20}));
  const auto seed_count =
      static_cast<std::size_t>(args.cfg.get_or("seeds", std::uint64_t{3}));
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const auto threads = static_cast<std::size_t>(
      args.cfg.get_or("threads", static_cast<std::uint64_t>(hw)));
  const auto route_count = static_cast<std::size_t>(
      args.cfg.get_or("routes", std::uint64_t{200'000}));

  // --- Part 1: routing microbenchmark on the 1000-node paper grid. ---
  bench::banner("Routing hot path: greedy reference vs compiled (1000 nodes, " +
                std::to_string(route_count) + " routes)");
  TextTable micro({"grid cell", "greedy ns/route", "compiled ns/route",
                   "batched ns/route", "speedup", "bit-identical"});
  std::ostringstream micro_csv_text;
  CsvWriter micro_csv(micro_csv_text);
  micro_csv.cells("k", "greedy_ns_per_route", "compiled_ns_per_route",
                  "batched_ns_per_route", "speedup", "identical");
  bool all_identical = true;
  double min_speedup = 1e9;
  std::vector<MicroResult> micro_results;
  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    const auto r = route_microbench(k, route_count, args.seed);
    all_identical = all_identical && r.identical;
    min_speedup = std::min(min_speedup, r.speedup());
    micro.add_row({"k=" + std::to_string(k), TextTable::num(r.greedy_ns, 1),
                   TextTable::num(r.compiled_ns, 1),
                   TextTable::num(r.batched_ns, 1),
                   TextTable::num(r.speedup(), 2),
                   r.identical ? "yes" : "NO"});
    micro_csv.cells(k, r.greedy_ns, r.compiled_ns, r.batched_ns, r.speedup(),
                    r.identical ? 1 : 0);
    micro_results.push_back(r);
  }
  std::printf("%s", micro.render().c_str());
  if (min_speedup < 5.0) {
    std::printf("WARNING: compiled speedup %.2fx below the 5x target\n",
                min_speedup);
  }

  // --- Part 2: SWAP debit path, hash-map ledger vs edge-arena ledger. ---
  bench::banner("Ledger hot path: SwapNetwork (hash oracle) vs Ledger "
                "(arena) (1000 nodes, debit replay)");
  TextTable ledger_table({"grid cell", "debits", "map ns/debit",
                          "edge ns/debit", "speedup", "map KiB", "edge KiB",
                          "bit-identical"});
  std::vector<LedgerResult> ledger_results;
  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    const auto r = ledger_microbench(k, route_count, args.seed);
    all_identical = all_identical && r.identical;
    ledger_table.add_row(
        {"k=" + std::to_string(k), std::to_string(r.debits),
         TextTable::num(r.map_ns, 1), TextTable::num(r.edge_ns, 1),
         TextTable::num(r.speedup(), 2),
         TextTable::num(static_cast<double>(r.map_bytes) / 1024.0, 0),
         TextTable::num(static_cast<double>(r.edge_bytes) / 1024.0, 0),
         r.identical ? "yes" : "NO"});
    ledger_results.push_back(r);
  }
  std::printf("%s", ledger_table.render().c_str());

  // --- Part 3: flow-level overhead + differential on the 1000-node grid. ---
  const auto flow_files = static_cast<std::size_t>(
      args.cfg.get_or("flow_files", std::uint64_t{100}));
  bench::banner("Flow-level simulation: counter vs flow-level (1000 nodes, " +
                std::to_string(flow_files) + " files)");
  TextTable flow_table({"grid cell", "counter wall (s)", "flow wall (s)",
                        "overhead", "flows", "FCT p50", "FCT p99",
                        "saturated links", "max util", "bit-identical"});
  std::vector<FlowBenchResult> flow_results;
  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    const auto r = flow_bench(k, flow_files, args.seed);
    all_identical = all_identical && r.identical;
    flow_table.add_row(
        {"k=" + std::to_string(k), TextTable::num(r.counter_wall_s, 2),
         TextTable::num(r.flow_wall_s, 2), TextTable::num(r.overhead(), 2),
         std::to_string(r.flows), TextTable::num(r.fct_p50, 0),
         TextTable::num(r.fct_p99, 0), std::to_string(r.saturated_links),
         TextTable::num(r.max_utilization, 2), r.identical ? "yes" : "NO"});
    flow_results.push_back(r);
  }
  std::printf("%s", flow_table.render().c_str());

  // --- Part 4: workload-engine throughput on the paper topology. ---
  const auto workload_requests = static_cast<std::size_t>(
      args.cfg.get_or("workload_requests", std::uint64_t{200'000}));
  bench::banner("Workload engine: plain generator vs composed demand "
                "(1000 nodes, " +
                std::to_string(workload_requests) + " requests)");
  const auto wl = workload_bench(workload_requests, args.seed);
  all_identical = all_identical && wl.default_identical;
  TextTable workload_table({"stream", "ns/request", "overhead",
                            "chunks p50", "chunks p99", "sketch bins",
                            "default bit-identical"});
  workload_table.add_row({"plain generator", TextTable::num(wl.plain_ns, 1),
                          "1.00", "-", "-", "-",
                          wl.default_identical ? "yes" : "NO"});
  workload_table.add_row(
      {"zipf+burst+diurnal+uploads", TextTable::num(wl.composed_ns, 1),
       TextTable::num(wl.overhead(), 2), TextTable::num(wl.chunks_p50, 0),
       TextTable::num(wl.chunks_p99, 0), std::to_string(wl.sketch_bins),
       wl.default_identical ? "yes" : "NO"});
  std::printf("%s", workload_table.render().c_str());

  // --- Part 5: scale scenarios through the parallel run_seeds path. ---
  bench::banner("Scale scenarios (" + std::to_string(nodes) + " nodes, " +
                std::to_string(bits) + "-bit space, " +
                std::to_string(seed_count) + " seeds x " +
                std::to_string(args.files) + " files, " +
                std::to_string(threads) + " threads)");
  TextTable table({"scenario", "Gini F2 (income)", "Gini F1", "routing success",
                   "avg forwarded", "wall clock (s)"});
  TextTable cell_ledger_table({"scenario", "simulation wall (s)",
                               "reference wall (s)", "speedup", "ledger MiB",
                               "bit-identical"});
  std::vector<core::ExperimentResult> singles;
  struct CellRow {
    std::string label;
    core::AggregateResult agg;
    std::size_t router_bytes{0};
    double wall_s{0};
    CellReferenceCheck ledger;
  };
  std::vector<CellRow> cell_rows;
  for (const auto& cfg :
       core::scale_grid(nodes, bits, args.files, args.seed)) {
    std::printf("running %s (%zu seeds)...\n", cfg.label.c_str(), seed_count);
    std::fflush(stdout);
    const auto topo = core::build_topology(cfg);
    std::printf("  compiled routing memory: %.1f MiB\n",
                static_cast<double>(topo.compiled().memory_bytes()) /
                    (1024.0 * 1024.0));
    std::fflush(stdout);
    const auto start = std::chrono::steady_clock::now();
    const auto agg = core::run_seeds(cfg, seed_count, threads);
    const double elapsed = seconds_since(start);
    table.add_row({cfg.label, core::mean_pm_std(agg.gini_f2),
                   core::mean_pm_std(agg.gini_f1),
                   core::mean_pm_std(agg.routing_success),
                   core::mean_pm_std(agg.avg_forwarded, 0),
                   TextTable::num(elapsed, 1)});
    // Single-seed simulation-vs-reference differential at full scale; the
    // simulation's run doubles as the representative single for the
    // route-accounting CSV.
    const auto check = scale_reference_check(cfg, topo);
    singles.push_back(check.edge_result);
    all_identical = all_identical && check.identical;
    cell_ledger_table.add_row(
        {cfg.label, TextTable::num(check.edge_wall_s, 2),
         TextTable::num(check.reference_wall_s, 2),
         TextTable::num(check.speedup(), 2),
         TextTable::num(
             static_cast<double>(check.edge_bytes) / (1024.0 * 1024.0), 1),
         check.identical ? "yes" : "NO"});
    cell_rows.push_back(
        {cfg.label, agg, topo.compiled().memory_bytes(), elapsed, check});
  }
  std::printf("%s", table.render().c_str());
  bench::banner(
      "Simulation vs reference run at scale (single seed per cell)");
  std::printf("%s", cell_ledger_table.render().c_str());
  for (const auto& r : singles) {
    std::printf("%s", core::summarize_result(r).c_str());
  }

  // --- Machine-readable roll-up: BENCH_scale.json (emitted through the
  // shared common/json writer, the same escaping/formatting path as the
  // harness's fairswap.run.v1 sink). ---
  std::ostringstream json_text;
  JsonWriter json(json_text);
  json.open();
  json.field("schema", std::string("fairswap.bench_scale.v1"));
  json.open("config");
  json.field("nodes", nodes);
  json.field("bits", static_cast<std::uint64_t>(bits));
  json.field("files", static_cast<std::uint64_t>(args.files));
  json.field("seeds", seed_count);
  json.field("threads", threads);
  json.field("routes", route_count);
  json.field("workload_requests", workload_requests);
  json.field("seed", args.seed);
  json.close();
  json.open_list("routing");
  for (const auto& r : micro_results) {
    json.open();
    json.field("k", r.k);
    json.field("greedy_ns_per_route", r.greedy_ns);
    json.field("compiled_ns_per_route", r.compiled_ns);
    json.field("batched_ns_per_route", r.batched_ns);
    json.field("speedup", r.speedup());
    json.field("identical", r.identical);
    json.close();
  }
  json.close_list();
  json.open_list("ledger");
  for (const auto& r : ledger_results) {
    json.open();
    json.field("k", r.k);
    json.field("debits", r.debits);
    json.field("map_ns_per_debit", r.map_ns);
    json.field("edge_ns_per_debit", r.edge_ns);
    json.field("speedup", r.speedup());
    json.field("identical", r.identical);
    json.field("map_memory_bytes", r.map_bytes);
    json.field("edge_memory_bytes", r.edge_bytes);
    json.field("pair_slots", r.pair_slots);
    json.close();
  }
  json.close_list();
  json.open_list("flow");
  for (const auto& r : flow_results) {
    json.open();
    json.field("k", r.k);
    json.field("counter_wall_s", r.counter_wall_s);
    json.field("flow_wall_s", r.flow_wall_s);
    json.field("overhead", r.overhead());
    json.field("flows", r.flows);
    json.field("ns_per_flow", r.ns_per_flow());
    json.field("fct_p50", r.fct_p50);
    json.field("fct_p99", r.fct_p99);
    json.field("saturated_links", r.saturated_links);
    json.field("max_link_utilization", r.max_utilization);
    json.field("identical", r.identical);
    json.close();
  }
  json.close_list();
  json.open("workload");
  json.field("requests", wl.requests);
  json.field("plain_ns_per_request", wl.plain_ns);
  json.field("composed_ns_per_request", wl.composed_ns);
  json.field("overhead", wl.overhead());
  json.field("chunks_p50", wl.chunks_p50);
  json.field("chunks_p99", wl.chunks_p99);
  json.field("sketch_bins", wl.sketch_bins);
  json.field("sketch_fingerprint", wl.sketch_fingerprint);
  json.field("default_identical", wl.default_identical);
  json.close();
  json.open_list("scale");
  for (const auto& c : cell_rows) {
    json.open();
    json.field("label", c.label);
    json.field("gini_f2_mean", c.agg.gini_f2.mean());
    json.field("gini_f2_std", c.agg.gini_f2.stddev());
    json.field("gini_f1_mean", c.agg.gini_f1.mean());
    json.field("routing_success_mean", c.agg.routing_success.mean());
    json.field("avg_forwarded_mean", c.agg.avg_forwarded.mean());
    json.field("wall_clock_s", c.wall_s);
    json.field("compiled_router_bytes", c.router_bytes);
    json.open("ledger");
    json.field("edge_wall_s", c.ledger.edge_wall_s);
    json.field("reference_wall_s", c.ledger.reference_wall_s);
    json.field("speedup", c.ledger.speedup());
    json.field("identical", c.ledger.identical);
    json.field("edge_memory_bytes", c.ledger.edge_bytes);
    json.field("settlements", c.ledger.settlements);
    json.field("active_pairs", c.ledger.active_pairs);
    json.close();
    json.close();
  }
  json.close_list();
  json.close();

  core::write_text_file(args.out_dir + "/scale_routing.csv",
                        micro_csv_text.str());
  core::write_text_file(args.out_dir + "/scale_totals.csv",
                        core::totals_csv(bench::as_ptrs(singles)));
  core::write_text_file(args.out_dir + "/BENCH_scale.json",
                        json_text.str() + "\n");
  std::printf(
      "wrote %s/{scale_routing.csv, scale_totals.csv, BENCH_scale.json}\n",
      args.out_dir.c_str());

  if (!all_identical) {
    std::printf("ERROR: a derived path diverged from its reference "
                "(routing, ledger, flow accounting and/or workload "
                "default-config identity)\n");
    return 1;
  }
  return 0;
}
