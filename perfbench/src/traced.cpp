#include "traced.hpp"

#include <array>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "accounting/ledger.hpp"
#include "accounting/pricing.hpp"
#include "common/stream_stats.hpp"
#include "common/telemetry/span.hpp"
#include "incentives/policy.hpp"
#include "net/flow_sim.hpp"
#include "overlay/compiled_router.hpp"

namespace perfbench {

namespace fs = fairswap;
using fs::core::ExperimentConfig;
using fs::core::ExperimentResult;
using fs::core::Simulation;
using fs::telemetry::Counter;
using fs::telemetry::TraceRecorder;
using fs::telemetry::wall_now_ns;

namespace {

/// The benchmark's spans, one per call into a layer. The names double as
/// Chrome-trace event names.
enum Span : std::size_t {
  kBuild,      // core::build_topology (overlay build + router compile)
  kConstruct,  // Simulation / EpochDriver constructor
  kNext,       // DemandEngine::next
  kApply,      // Simulation::apply
  kRoute,      // CompiledRouter::route_batch replay
  kAccount,    // PaymentPolicy + Ledger replay
  kNet,        // FlowSimulator advance_to/start_chunk/commit replay
  kDrain,      // FlowSimulator::drain replay
  kSketch,     // PercentileSketch::add replay
  kFinish,     // Simulation::finish_flows
  kPackage,    // core::package_experiment
  kReset,      // standalone Simulation::reset
  kEpochs,     // EpochDriver::run
  kSpanCount,
};

constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "overlay.build_topology", "core.construct",     "workload.next",
    "core.apply",             "overlay.route_batch", "accounting.replay",
    "net.replay",             "net.drain",          "common.sketch_add",
    "core.finish_flows",      "core.package",       "core.reset",
    "agents.run"};

/// Wall time and call count of one span kind.
struct Clock {
  std::uint64_t ns{0};
  std::uint64_t calls{0};
};

/// Standalone resets timed per cell.
constexpr int kResets = 3;

/// Everything one traced pass measured.
struct PassTrace {
  std::array<Clock, kSpanCount> clocks{};
  /// The spans around the simulation's own calls (next, apply,
  /// finish_flows, package, or EpochDriver::run): the traced counterpart
  /// of an untraced pass's run time.
  double sim_s{0.0};
  std::uint64_t fingerprint{0};
  std::string failure;

  std::uint64_t chunk_requests{0};
  std::uint64_t files{0};
  std::uint64_t walks{0};
  std::uint64_t hops{0};
  std::uint64_t reached{0};
  std::uint64_t sketch_adds{0};
  std::uint64_t sketch_bins{0};
  double active_sum{0.0};
  std::uint64_t arrivals{0};
  fs::net::FlowReport flow{};
  double router_bytes{0.0};
  double ledger_bytes{0.0};
  /// Sim-plane counters of the simulations, folded over the pass.
  fs::telemetry::CounterBlock counters;
  std::uint64_t epochs{0};
  std::uint64_t play_ns{0};
  std::uint64_t revise_ns{0};

  /// Times `fn` as one `span`.
  template <typename Fn>
  void time(Span span, Fn&& fn) {
    const std::uint64_t t0 = wall_now_ns();
    fn();
    const std::uint64_t t1 = wall_now_ns();
    clocks[span].ns += t1 - t0;
    ++clocks[span].calls;
    TraceRecorder::instance().record(kSpanNames[span], t0, t1);
  }
};

/// Replays one simulation's files through the lower layers' public
/// functions, from fresh state, and checks the replay reproduced the
/// simulation.
class Replay {
 public:
  Replay(const Simulation& sim, const ExperimentConfig& cell)
      : router_(*sim.compiled_router()),
        config_(cell.sim),
        ledger_(router_, cell.sim.swap),
        pricer_(fs::accounting::make_pricer(cell.sim.pricer)),
        policy_(fs::incentives::make_policy(cell.sim.policy)) {
    if (!config_.compiled_routing || !config_.compiled_ledger ||
        config_.cache_capacity != 0 || !pricer_ || !policy_ ||
        sim.demand().modulates_interarrival()) {
      throw std::logic_error(
          "the replay covers compiled routing and the edge ledger without "
          "caches or diurnal modulation");
    }
    ledger_.set_counters(&counters_);
    ctx_.topo = &sim.topology();
    ctx_.swap = &ledger_;
    ctx_.pricer = pricer_.get();
    ctx_.free_rider = &sim.free_riders();
    if (config_.flow_level) {
      flow_.emplace(router_, sim.topology().node_count(), config_.flow);
      flow_->set_counters(&counters_);
    }
  }

  /// Replays file `index` (0-based), which the simulation just applied.
  void file(const fs::workload::DownloadRequest& request, std::uint64_t index,
            PassTrace& t) {
    origins_.assign(request.chunks.size(), request.originator);
    t.time(kRoute, [&] {
      router_.route_batch(origins_, request.chunks, routes_,
                          config_.max_route_hops);
    });
    for (const fs::overlay::Route& route : routes_) {
      t.hops += route.hops();
      t.reached += route.reached_storer ? 1 : 0;
    }
    t.walks += routes_.size();

    // Simulation::account's decisions, in request order: a delivered
    // chunk reached its storer, and either stayed local or was admitted.
    t.time(kAccount, [&] {
      delivered_.clear();
      for (std::size_t i = 0; i < routes_.size(); ++i) {
        const fs::overlay::Route& route = routes_[i];
        if (!route.reached_storer) continue;
        if (route.hops() > 0) {
          if (!policy_->admit(ctx_, route)) continue;
          policy_->on_delivery(ctx_, route);
        }
        delivered_.push_back(i);
      }
      policy_->on_step_end(ctx_);
      if (config_.amortize_each_step) {
        ledger_.amortize_tick();
      } else {
        ledger_.advance_tick();
      }
    });

    if (flow_) {
      t.time(kNet, [&] {
        flow_->advance_to(config_.flow.interarrival * index);
        t.active_sum += static_cast<double>(flow_->active_flows());
        for (const std::size_t i : delivered_) {
          if (routes_[i].hops() > 0) {
            flow_->start_chunk(routes_[i], request.is_upload);
          }
        }
        flow_->commit();
      });
      ++t.arrivals;
    }
    if (config_.stream_metrics) {
      t.time(kSketch, [&] {
        for (const std::size_t i : delivered_) {
          hops_.add(static_cast<double>(routes_[i].hops()));
        }
      });
      t.sketch_adds += delivered_.size();
    }
  }

  void drain(PassTrace& t) {
    if (flow_) t.time(kDrain, [&] { flow_->drain(); });
  }

  /// Folds the replay's outputs into `t` and returns the first way the
  /// replay differs from `sim`, or an empty string.
  std::string compare(const Simulation& sim, PassTrace& t) const {
    const auto& swap = sim.swap();
    if (ledger_.income() != swap.income() || ledger_.spent() != swap.spent() ||
        ledger_.outstanding_debt() != swap.outstanding_debt() ||
        ledger_.settlements().size() != swap.settlements().size()) {
      return "accounting replay: ledger differs from the simulation";
    }
    for (const Counter c : {Counter::kDebits, Counter::kSettlements,
                            Counter::kRefusedPayments}) {
      if (counters_.value(c) != sim.telem().value(c)) {
        return "accounting replay: counters differ from the simulation";
      }
    }
    if (flow_) {
      const fs::net::FlowReport a = flow_->report();
      const fs::net::FlowReport b = sim.flow_simulator()->report();
      if (a.started != b.started || a.completed != b.completed ||
          a.timed_out != b.timed_out || a.fct_p50 != b.fct_p50 ||
          a.fct_p90 != b.fct_p90 || a.fct_p99 != b.fct_p99 ||
          a.fct_mean != b.fct_mean || a.saturated_links != b.saturated_links ||
          a.max_link_utilization != b.max_link_utilization ||
          a.makespan != b.makespan ||
          counters_.value(Counter::kFlowEventsPopped) !=
              sim.telem().value(Counter::kFlowEventsPopped)) {
        return "flow replay: FlowReport or events popped differ";
      }
      t.flow.started += a.started;
      t.flow.completed += a.completed;
      t.flow.timed_out += a.timed_out;
    }
    if (config_.stream_metrics) {
      if (hops_.fingerprint() != sim.stream().hops.fingerprint()) {
        return "sketch replay: hop sketch differs from the simulation";
      }
      t.sketch_bins += hops_.histogram().bin_count();
    }
    return {};
  }

 private:
  const fs::overlay::CompiledRouter& router_;
  const fs::core::SimulationConfig& config_;
  fs::accounting::Ledger ledger_;
  std::unique_ptr<fs::accounting::Pricer> pricer_;
  std::unique_ptr<fs::incentives::PaymentPolicy> policy_;
  fs::incentives::PolicyContext ctx_;
  std::optional<fs::net::FlowSimulator> flow_;
  fs::PercentileSketch hops_;
  fs::telemetry::CounterBlock counters_;
  std::vector<fs::overlay::NodeIndex> origins_;
  std::vector<fs::overlay::Route> routes_;
  std::vector<std::size_t> delivered_;
};

PassTrace traced_simulation_pass(const WorkloadSpec& spec) {
  PassTrace t;
  Fingerprint fp;
  std::optional<fs::overlay::Topology> topo;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const Cell& c = spec.cells[i];
    const ExperimentConfig& cell = c.config;
    if (i == 0 || new_topology_at(spec, i)) {
      topo.reset();
      t.time(kBuild, [&] { topo.emplace(fs::core::build_topology(cell)); });
      t.router_bytes += static_cast<double>(topo->compiled().memory_bytes());
    }
    std::optional<Simulation> sim;
    t.time(kConstruct, [&] { sim.emplace(*topo, cell.sim, c.sim_rng); });
    Replay replay(*sim, cell);

    const std::uint64_t sim_ns_before = t.clocks[kNext].ns +
                                        t.clocks[kApply].ns +
                                        t.clocks[kFinish].ns +
                                        t.clocks[kPackage].ns;
    for (std::uint64_t f = 0;
         c.quota > 0 ? sim->totals().chunk_requests < c.quota
                     : f < cell.files;
         ++f) {
      fs::workload::DownloadRequest request;
      t.time(kNext, [&] { request = sim->demand_mut().next(); });
      t.time(kApply, [&] { sim->apply(request); });
      replay.file(request, f, t);
    }
    t.time(kFinish, [&] { sim->finish_flows(); });
    replay.drain(t);
    std::optional<ExperimentResult> result;
    t.time(kPackage, [&] {
      result.emplace(fs::core::package_experiment(cell, *sim, 0.0));
    });
    t.sim_s += static_cast<double>(t.clocks[kNext].ns + t.clocks[kApply].ns +
                                   t.clocks[kFinish].ns +
                                   t.clocks[kPackage].ns - sim_ns_before) *
               1e-9;

    add_result(fp, *result, *sim);
    std::string failure = check_cell(spec.workload, *result, *sim);
    if (failure.empty()) failure = replay.compare(*sim, t);
    if (!failure.empty() && t.failure.empty()) {
      t.failure = cell.label + ": " + failure;
    }
    t.chunk_requests += result->totals.chunk_requests;
    t.files += result->totals.files;
    t.counters.merge(sim->telem());
    t.ledger_bytes += static_cast<double>(sim->swap().memory_bytes());
    for (int r = 0; r < kResets; ++r) {
      t.time(kReset, [&] { sim->reset(c.sim_rng); });
    }
  }
  t.fingerprint = fp.value();
  return t;
}

PassTrace traced_epoch_pass(const WorkloadSpec& spec) {
  const Cell& c = spec.cells.front();
  const ExperimentConfig& cfg = c.config;
  PassTrace t;
  std::optional<fs::overlay::Topology> topo;
  t.time(kBuild, [&] { topo.emplace(fs::core::build_topology(cfg)); });
  std::optional<fs::agents::EpochDriver> game;
  t.time(kConstruct, [&] { game.emplace(*topo, cfg); });
  const std::size_t first_span = TraceRecorder::instance().span_count();
  fs::agents::EpochSeries series;
  t.time(kEpochs, [&] { series = game->run(); });
  t.sim_s = static_cast<double>(t.clocks[kEpochs].ns) * 1e-9;

  // The library's own epoch spans (recorded only with telemetry on).
  const auto spans = TraceRecorder::instance().snapshot();
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    if (spans[i].name == "play") t.play_ns += spans[i].dur_ns;
    if (spans[i].name == "revise") t.revise_ns += spans[i].dur_ns;
  }

  const EpochOutputs outputs = check_epoch_game(cfg, *game, series);
  t.fingerprint = outputs.fingerprint;
  t.failure = outputs.failure;
  t.chunk_requests = outputs.chunk_requests;
  t.epochs = series.points.size();
  t.counters = game->telem();
  const Simulation& played = game->simulation();
  t.router_bytes =
      static_cast<double>(played.compiled_router()->memory_bytes());
  t.ledger_bytes = static_cast<double>(played.swap().memory_bytes());

  Simulation standalone(*topo, cfg.sim, c.sim_rng);
  for (int r = 0; r < kResets; ++r) {
    t.time(kReset, [&] { standalone.reset(c.sim_rng); });
  }
  return t;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<MetricValue> layer_metrics(const PassTrace& t,
                                       double untraced_run_s) {
  const auto ns = [&](Span s) { return static_cast<double>(t.clocks[s].ns); };
  const auto mean_ms = [&](Span s) {
    return per(ns(s), static_cast<double>(t.clocks[s].calls)) * 1e-6;
  };
  const auto count = [&](Counter c) {
    return static_cast<double>(t.counters.value(c));
  };
  const double requests = static_cast<double>(t.chunk_requests);
  // Replayed walks; the epoch game is not replayed, so its walks come
  // from the sim-plane counter.
  const double walks = t.walks > 0 ? static_cast<double>(t.walks)
                                   : count(Counter::kRouteWalks);
  const double events = count(Counter::kFlowEventsPopped);
  const double net_ns = ns(kNet) + ns(kDrain);
  const double epochs = static_cast<double>(t.epochs);
  constexpr double kMiB = 1024.0 * 1024.0;
  const double apply_ns = t.epochs > 0 ? static_cast<double>(t.play_ns)
                                       : ns(kApply);
  return {
      {"overlay.build_ms", mean_ms(kBuild)},
      {"overlay.ns_per_route", per(ns(kRoute), static_cast<double>(t.walks))},
      {"overlay.route_walks", walks},
      {"overlay.hops_per_route",
       per(static_cast<double>(t.hops), static_cast<double>(t.walks))},
      {"overlay.route_success",
       per(static_cast<double>(t.reached), static_cast<double>(t.walks))},
      {"overlay.router_mb", t.router_bytes / kMiB},
      {"workload.ns_per_chunk", per(ns(kNext), requests)},
      {"workload.chunks_per_file",
       per(requests, static_cast<double>(t.files))},
      {"workload.burst_draws", count(Counter::kBurstDraws)},
      {"accounting.ns_per_debit",
       t.walks > 0 ? per(ns(kAccount), count(Counter::kDebits)) : 0.0},
      {"accounting.debits", count(Counter::kDebits)},
      {"accounting.settlements", count(Counter::kSettlements)},
      {"accounting.refused_payments", count(Counter::kRefusedPayments)},
      {"accounting.ledger_mb", t.ledger_bytes / kMiB},
      {"net.ns_per_event", per(net_ns, events)},
      {"net.us_per_recompute",
       per(net_ns, count(Counter::kFlowRateRecomputes)) * 1e-3},
      {"net.flows", static_cast<double>(t.flow.started)},
      {"net.events_popped", events},
      {"net.rate_recomputes", count(Counter::kFlowRateRecomputes)},
      {"net.flows_timed_out", static_cast<double>(t.flow.timed_out)},
      {"net.drain_ms", ns(kDrain) * 1e-6},
      {"net.useful_event_ratio",
       per(static_cast<double>(t.flow.completed + t.flow.timed_out), events)},
      {"net.active_flows",
       per(t.active_sum, static_cast<double>(t.arrivals))},
      {"core.ns_per_chunk_request", per(apply_ns, requests)},
      {"core.construct_ms", mean_ms(kConstruct)},
      {"core.package_ms", mean_ms(kPackage)},
      {"core.reset_ms", mean_ms(kReset)},
      {"common.ns_per_sketch_add",
       per(ns(kSketch), static_cast<double>(t.sketch_adds))},
      {"common.sketch_bins", static_cast<double>(t.sketch_bins)},
      {"agents.epochs", epochs},
      {"agents.revisions", count(Counter::kAgentRevisions)},
      {"agents.ms_per_epoch", per(ns(kEpochs), epochs) * 1e-6},
      {"agents.revise_ms",
       per(static_cast<double>(t.revise_ns), epochs) * 1e-6},
      {"trace.overhead", per(t.sim_s, untraced_run_s)},
  };
}

}  // namespace

TracedRun run_traced(const WorkloadSpec& spec, double seconds,
                     const std::string& trace_path) {
  TracedRun run;
  const PassOutcome warm = run_pass(spec);
  ++run.attempted;
  if (!warm.failure.empty()) {
    ++run.failed;
    run.failure = warm.failure;
  }
  const auto note_failure = [&](const std::string& failure) {
    ++run.failed;
    if (run.failure.empty()) run.failure = failure;
  };

  // Untraced passes for the first half: the base of trace.overhead.
  const std::uint64_t start = wall_now_ns();
  double fastest_run_s = 0.0;
  for (std::size_t n = 0;
       n < 2 || seconds_between(start, wall_now_ns()) < seconds / 2; ++n) {
    const PassOutcome pass = run_pass(spec);
    ++run.attempted;
    if (!pass_valid(pass.sample, warm.sample)) {
      note_failure(pass.failure.empty() ? "untraced pass fingerprint differs"
                                        : pass.failure);
      continue;
    }
    if (fastest_run_s == 0.0 || pass.sample.run_s < fastest_run_s) {
      fastest_run_s = pass.sample.run_s;
    }
  }

  // Traced passes for the rest; report the fastest.
  std::optional<PassTrace> best;
  std::string best_trace;
  TraceRecorder& recorder = TraceRecorder::instance();
  for (std::size_t n = 0;
       n < 1 || seconds_between(start, wall_now_ns()) < seconds; ++n) {
    recorder.enable();
    PassTrace t = spec.workload == Workload::kEquilibrium
                      ? traced_epoch_pass(spec)
                      : traced_simulation_pass(spec);
    recorder.disable();
    ++run.attempted;
    if (t.failure.empty() && t.fingerprint != warm.sample.fingerprint) {
      t.failure = "traced pass outputs differ from the untraced pass";
    }
    if (!t.failure.empty()) {
      note_failure(t.failure);
      continue;
    }
    if (!best || t.sim_s < best->sim_s) {
      if (!trace_path.empty()) {
        std::ostringstream doc;
        recorder.write_chrome_trace(doc);
        best_trace = doc.str();
      }
      best = std::move(t);
    }
  }
  recorder.clear();

  if (best && !trace_path.empty()) {
    std::ofstream out(trace_path);
    out << best_trace;
    if (!out) note_failure("cannot write the trace to " + trace_path);
  }
  if (best) {
    run.metrics = layer_metrics(*best, fastest_run_s);
  } else {
    for (const MetricSpec& m : per_layer_metrics()) {
      run.metrics.push_back({m.name, 0.0});
    }
  }
  return run;
}

}  // namespace perfbench
