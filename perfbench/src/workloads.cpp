#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>

#include "agents/epoch.hpp"
#include "common/telemetry/span.hpp"
#include "core/scenarios.hpp"
#include "net/flow_sim.hpp"

namespace perfbench {

namespace fs = fairswap;
using fs::core::ExperimentConfig;
using fs::core::ExperimentResult;
using fs::core::Simulation;
using fs::telemetry::Counter;
using fs::telemetry::TraceRecorder;
using fs::telemetry::wall_now_ns;

namespace {

/// Files per paper-grid cell. The paper runs 10k; 1000 keeps one pass of
/// the four cells near a second, so a run holds enough passes for each
/// piece's fastest time to be steady.
constexpr std::size_t kPaperGridFiles = 1000;

/// flow_fct: at capacity 0.08 the links saturate, so thousands of flows
/// queue, yet the active-flow backlog levels off at about 5-7k after
/// about 20 files (at 0.01 it grows without bound). Interarrival and
/// timeout are the flow_fct scenario's defaults. The backlog, and with
/// it the cost per request, varies from seed to seed (8-13% coefficient
/// of variation per cell): a pass runs four cells with seeds derived from
/// the run's seed and reports their combined rate. Capacity 0.04 (a
/// backlog of 10-13k after 40 files) varied 15-19% per cell at more than
/// twice the cost per request, too much to average out and still repeat
/// the pass often within one run.
constexpr std::size_t kFlowCells = 4;
constexpr std::size_t kFlowFiles = 60;
constexpr double kFlowCapacity = 0.08;
constexpr std::uint64_t kFlowInterarrival = 200;
constexpr std::uint64_t kFlowTimeout = 50'000;
/// The backlog has levelled off when, between the third and the last
/// quarter of the files, it grows by less than this share of the flows
/// that arrived in one quarter. Measured at 60 files: at most 0.19 over
/// 24 cells at capacity 0.08, 0.36 over 20 at 0.04; at 0.01, where the
/// backlog never levels off, 0.93.
constexpr double kLevelOffShare = 0.6;

/// heavy_traffic: the heavy_traffic scenario's composed demand, split
/// into shards over one topology and seeded like the scenario's shards.
/// Each shard draws its own Zipf catalog, whose hottest chunks dominate
/// the cost; eight shards average that out. The flash-crowd window sits
/// where every shard reaches it (the scenario's default window opens at
/// file 1000, which none of its 1M/8-shard runs ever reach).
constexpr std::uint64_t kHeavyQuota = 3'000'000;
constexpr std::uint64_t kHeavyShards = 8;
constexpr std::uint64_t kBurstStart = 200;
constexpr std::uint64_t kBurstFiles = 400;

ExperimentConfig flow_cell(std::uint64_t seed) {
  ExperimentConfig cfg = fs::core::paper_config(4, 1.0, kFlowFiles, seed);
  cfg.label = "flow_fct";
  cfg.sim.flow_level = true;
  cfg.sim.flow.link_capacity = kFlowCapacity;
  cfg.sim.flow.interarrival = kFlowInterarrival;
  cfg.sim.flow.timeout = kFlowTimeout;
  return cfg;
}

ExperimentConfig heavy_cell(std::uint64_t seed) {
  ExperimentConfig cfg = fs::core::paper_config(4, 1.0, /*files=*/0, seed);
  cfg.label = "heavy_traffic";
  cfg.sim.demand.kind = fs::workload::DemandConfig::Kind::kZipf;
  cfg.sim.demand.zipf_s = 0.9;
  cfg.sim.demand.catalog = 2048;
  cfg.sim.demand.burst_start = kBurstStart;
  cfg.sim.demand.burst_files = kBurstFiles;
  cfg.sim.demand.burst_share = 0.5;
  cfg.sim.workload.upload_share = 0.1;
  cfg.sim.stream_metrics = true;
  cfg.sim.policy = "per-hop-swap";
  return cfg;
}

/// The registered `equilibrium` scenario's game at its defaults.
ExperimentConfig equilibrium_cell(std::uint64_t seed) {
  ExperimentConfig cfg = fs::core::paper_config(4, 1.0, /*files=*/0, seed);
  cfg.label = "equilibrium";
  cfg.agents.epochs = 40;
  cfg.agents.files_per_epoch = 200;
  cfg.agents.dynamics = "imitate";
  cfg.agents.revision_rate = 0.25;
  cfg.agents.bandwidth_cost = 100.0;
  cfg.agents.initial_free_riders = 0.3;
  return cfg;
}

void add_accounting(Fingerprint& fp, const ExperimentResult& r) {
  const auto& t = r.totals;
  for (const std::uint64_t v :
       {t.files, t.upload_files, t.chunk_requests, t.upload_requests,
        t.delivered, t.refused, t.failed_routes, t.truncated_routes,
        t.local_hits, t.total_transmissions, r.settlement_count}) {
    fp.add(v);
  }
  for (const std::uint64_t v : r.served_per_node) fp.add(v);
  for (const std::uint64_t v : r.first_hop_per_node) fp.add(v);
  for (const double v : r.income_per_node) fp.add(v);
  fp.add(r.outstanding_debt);
}

/// The flow-level backlog after each file: active flows, and flows
/// started so far.
struct Backlog {
  std::vector<double> active;
  std::vector<double> started;
};

/// Drives one cell the way run_experiment and the heavy_traffic shards
/// do: `files` steps, or steps until the chunk-request quota. Each step
/// (one file) is timed as one piece, appended to `pieces`. Flow-level
/// cells record their backlog after each file for the level-off guard.
void drive(Simulation& sim, const ExperimentConfig& cell, std::uint64_t quota,
           Backlog& backlog, std::vector<double>& pieces) {
  const bool flow_level = sim.flow_simulator() != nullptr;
  std::uint64_t mark = wall_now_ns();
  for (std::size_t f = 0;
       quota > 0 ? sim.totals().chunk_requests < quota : f < cell.files;
       ++f) {
    sim.step();
    const std::uint64_t now = wall_now_ns();
    pieces.push_back(seconds_between(mark, now));
    mark = now;
    if (flow_level) {
      const auto& t = sim.totals();
      backlog.active.push_back(
          static_cast<double>(sim.flow_simulator()->active_flows()));
      backlog.started.push_back(
          static_cast<double>(t.delivered - t.local_hits));
    }
  }
}

std::string check_level_off(const Backlog& backlog) {
  const std::size_t n = backlog.active.size();
  const std::size_t q = n / 4;
  if (q == 0) return "too few files to judge the flow backlog";
  const auto mean = [&](std::size_t from) {
    const auto begin = backlog.active.begin() + static_cast<long>(from);
    return std::accumulate(begin, begin + static_cast<long>(q), 0.0) /
           static_cast<double>(q);
  };
  const double growth = mean(n - q) - mean(n - 2 * q);
  const double arrived = backlog.started[n - 1] - backlog.started[n - 1 - q];
  if (growth > kLevelOffShare * arrived) {
    return "active flows did not level off (grew by " +
           std::to_string(growth) + " of " + std::to_string(arrived) +
           " arrivals)";
  }
  return {};
}

PassOutcome run_simulation_pass(const WorkloadSpec& spec) {
  PassOutcome out;
  Fingerprint fp;
  Fingerprint accounting;
  std::optional<fs::overlay::Topology> topo;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const ExperimentConfig& cell = spec.cells[i].config;
    const bool new_topology = i == 0 || new_topology_at(spec, i);
    if (new_topology) topo.reset();
    const std::uint64_t t0 = wall_now_ns();
    if (new_topology) topo.emplace(fs::core::build_topology(cell));
    Simulation sim(*topo, cell.sim, spec.cells[i].sim_rng);
    const std::uint64_t t1 = wall_now_ns();
    Backlog backlog;
    drive(sim, cell, spec.cells[i].quota, backlog, out.sample.run_pieces_s);
    const std::uint64_t driven = wall_now_ns();
    sim.finish_flows();
    const ExperimentResult result =
        fs::core::package_experiment(cell, sim,
                                      seconds_between(t1, wall_now_ns()));
    const std::uint64_t t2 = wall_now_ns();
    out.sample.run_pieces_s.push_back(seconds_between(driven, t2));
    out.sample.setup_pieces_s.push_back(seconds_between(t0, t1));

    out.sample.setup_s += seconds_between(t0, t1);
    out.sample.run_s += seconds_between(t1, t2);
    out.sample.chunk_requests += result.totals.chunk_requests;
    add_result(fp, result, sim);
    add_accounting(accounting, result);

    std::string failure = check_cell(spec.workload, result, sim);
    if (failure.empty() && cell.sim.flow_level) {
      failure = check_level_off(backlog);
    }
    if (failure.empty()) continue;
    if (out.failure.empty()) out.failure = cell.label + ": " + failure;
  }
  out.sample.fingerprint = fp.value();
  out.sample.checks_ok = out.failure.empty();
  out.accounting_digest = accounting.value();
  return out;
}

/// EpochDriver::run in pieces: the library's own `epoch` spans, one per
/// epoch, and the rest of the run as a last piece. Recording a span per
/// epoch costs microseconds against a run of about a second. Without
/// telemetry compiled in there are no spans, and the run is one piece.
std::vector<double> epoch_pieces(double run_s,
                                 std::span<const fs::telemetry::SpanRecord>
                                     spans) {
  std::vector<double> pieces;
  double rest = run_s;
  for (const fs::telemetry::SpanRecord& span : spans) {
    if (span.name != "epoch") continue;
    pieces.push_back(static_cast<double>(span.dur_ns) * 1e-9);
    rest -= pieces.back();
  }
  pieces.push_back(std::max(rest, 0.0));
  return pieces;
}

PassOutcome run_epoch_pass(const WorkloadSpec& spec) {
  const ExperimentConfig& cfg = spec.cells.front().config;
  PassOutcome out;
  TraceRecorder& recorder = TraceRecorder::instance();
  const std::uint64_t t0 = wall_now_ns();
  const fs::overlay::Topology topo = fs::core::build_topology(cfg);
  const std::uint64_t built = wall_now_ns();
  fs::agents::EpochDriver game(topo, cfg);
  // A traced run's recorder is already on; leave it to its owner.
  const bool own_recorder = !recorder.enabled();
  if (own_recorder) recorder.enable();
  const std::size_t first_span = recorder.span_count();
  const std::uint64_t t1 = wall_now_ns();
  const fs::agents::EpochSeries series = game.run();
  const std::uint64_t t2 = wall_now_ns();
  const std::vector<fs::telemetry::SpanRecord> spans = recorder.snapshot();
  if (own_recorder) {
    recorder.disable();
    recorder.clear();
  }
  const EpochOutputs outputs = check_epoch_game(cfg, game, series);
  out.sample.setup_s = seconds_between(t0, t1);
  out.sample.run_s = seconds_between(t1, t2);
  out.sample.setup_pieces_s = {seconds_between(t0, built),
                               seconds_between(built, t1)};
  out.sample.run_pieces_s = epoch_pieces(
      out.sample.run_s,
      std::span(spans).subspan(std::min(first_span, spans.size())));
  out.sample.chunk_requests = outputs.chunk_requests;
  out.sample.fingerprint = outputs.fingerprint;
  out.sample.checks_ok = outputs.failure.empty();
  out.failure = outputs.failure;
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kPaperGrid, Workload::kFlowFct,
                           Workload::kHeavyTraffic, Workload::kEquilibrium}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperGrid: return "paper_grid";
    case Workload::kFlowFct: return "flow_fct";
    case Workload::kHeavyTraffic: return "heavy_traffic";
    case Workload::kEquilibrium: return "equilibrium";
  }
  return "invalid";
}

WorkloadSpec make_spec(Workload w, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.workload = w;
  const auto add = [&](const ExperimentConfig& cfg) {
    spec.cells.push_back({cfg, fs::Rng(cfg.seed).split(1), 0});
  };
  switch (w) {
    case Workload::kPaperGrid:
      for (const auto& cfg : fs::core::paper_grid(kPaperGridFiles, seed)) {
        add(cfg);
      }
      break;
    case Workload::kFlowFct:
      for (std::uint64_t c = 0; c < kFlowCells; ++c) {
        add(flow_cell(fs::Rng(seed).split(c).next()));
      }
      break;
    case Workload::kHeavyTraffic:
      for (std::uint64_t s = 0; s < kHeavyShards; ++s) {
        const ExperimentConfig cfg = heavy_cell(seed);
        spec.cells.push_back({cfg, fs::Rng(seed).split(1).split(s),
                              kHeavyQuota / kHeavyShards});
      }
      break;
    case Workload::kEquilibrium:
      add(equilibrium_cell(seed));
      break;
  }
  return spec;
}

PassOutcome run_pass(const WorkloadSpec& spec) {
  return spec.workload == Workload::kEquilibrium ? run_epoch_pass(spec)
                                                 : run_simulation_pass(spec);
}

std::uint64_t counter_reference_digest(const WorkloadSpec& spec) {
  Fingerprint accounting;
  for (const Cell& cell : spec.cells) {
    ExperimentConfig counter_based = cell.config;
    counter_based.sim.flow_level = false;
    add_accounting(accounting, fs::core::run_experiment(counter_based));
  }
  return accounting.value();
}

std::string check_cell(Workload w, const ExperimentResult& r,
                       const Simulation& sim) {
  const auto& t = r.totals;
  if (t.delivered + t.refused + t.failed_routes + t.truncated_routes !=
      t.chunk_requests) {
    return "delivered + refused + failed + truncated != chunk requests";
  }
  const std::uint64_t served =
      std::accumulate(r.served_per_node.begin(), r.served_per_node.end(),
                      std::uint64_t{0});
  if (served != t.total_transmissions) {
    return "chunks served != total transmissions";
  }
  if (r.config.sim.flow_level &&
      t.flows_started != t.flows_completed + t.flows_timed_out) {
    return "flows started != completed + timed out";
  }
  if (w == Workload::kHeavyTraffic) {
    // The flash crowd must fire and the per-hop settle path must run.
    // Burst draws are only counted when telemetry is compiled in.
    if (sim.demand().requests_generated() <= kBurstStart ||
        (fs::telemetry::kEnabled &&
         r.counters.value(Counter::kBurstDraws) == 0)) {
      return "the flash-crowd window never fired";
    }
    if (r.settlement_count == 0) return "no threshold settlement happened";
  }
  return {};
}

EpochOutputs check_epoch_game(const ExperimentConfig& cfg,
                              const fs::agents::EpochDriver& game,
                              const fs::agents::EpochSeries& series) {
  EpochOutputs out;
  Fingerprint fp;
  std::uint64_t switched = 0;
  std::uint64_t refused = 0;
  for (const fs::agents::EpochPoint& p : series.points) {
    out.chunk_requests += p.chunk_requests;
    switched += p.switched;
    refused += p.refused;
    for (const std::uint64_t v :
         {std::uint64_t{p.epoch}, std::uint64_t{p.free_riders},
          std::uint64_t{p.switched}, p.delivered, p.refused,
          p.chunk_requests}) {
      fp.add(v);
    }
    for (const double v : {p.prevalence, p.share_utility,
                           p.free_ride_utility, p.total_welfare,
                           p.total_income, p.gini_f2, p.gini_f1_income}) {
      fp.add(v);
    }
    if (p.delivered + p.refused > p.chunk_requests && out.failure.empty()) {
      out.failure = "epoch " + std::to_string(p.epoch) +
                    ": delivered + refused exceeds its chunk requests";
    }
  }
  fp.add(std::uint64_t{series.converged});
  fp.add(std::uint64_t{series.converged_epoch});
  fp.add(series.final_prevalence);
  fp.add(game.telem().fingerprint());

  // The simulation still holds the last epoch: check its outputs fully.
  const Simulation& sim = game.simulation();
  const ExperimentResult last = fs::core::package_experiment(cfg, sim, 0.0);
  add_result(fp, last, sim);
  out.fingerprint = fp.value();
  if (out.failure.empty()) {
    out.failure = check_cell(Workload::kEquilibrium, last, sim);
  }
  // Revision opportunities are only counted when telemetry is compiled
  // in; without it, applied revisions stand in.
  const std::uint64_t revisions =
      fs::telemetry::kEnabled
          ? game.telem().value(Counter::kAgentRevisions)
          : switched;
  if (out.failure.empty() && revisions == 0) {
    out.failure = "no agent revised its strategy";
  }
  if (out.failure.empty() && refused == 0) {
    out.failure = "no service was refused";
  }
  if (!out.failure.empty()) out.failure = cfg.label + ": " + out.failure;
  return out;
}

void add_result(Fingerprint& fp, const ExperimentResult& r,
                const Simulation& sim) {
  add_accounting(fp, r);
  fp.add(r.counters.fingerprint());
  const auto& t = r.totals;
  for (const std::uint64_t v :
       {t.flows_started, t.flows_completed, t.flows_timed_out,
        t.saturated_links, t.flow_makespan}) {
    fp.add(v);
  }
  for (const double v :
       {t.fct_p50, t.fct_p90, t.fct_p99, t.fct_mean, t.max_link_utilization,
        r.total_income, r.served_p99, r.income_p99}) {
    fp.add(v);
  }
  fp.add(sim.stream().hops.fingerprint());
  fp.add(sim.stream().chunks_per_file.fingerprint());
}

bool new_topology_at(const WorkloadSpec& spec, std::size_t i) {
  const ExperimentConfig& a = spec.cells[i - 1].config;
  const ExperimentConfig& b = spec.cells[i].config;
  return !(a.topology == b.topology) || a.seed != b.seed;
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

}  // namespace perfbench
