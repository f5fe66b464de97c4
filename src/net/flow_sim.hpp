// Event-driven flow-level transfer simulation over a compiled overlay.
//
// Every delivered chunk becomes one unit-size Flow across capacity links:
// the traversed routing-table edges (the compiled router's edge arena ids,
// which every CompiledRouter route carries in Route::edges; a route
// without them is rejected) plus, per hop, the data-direction sender's
// uplink and the receiver's downlink. Rates come from FairShareNetwork's
// max-min fair allocator and are recomputed at arrivals, completions and
// timeouts; in between, every flow progresses linearly, so each flow's
// completion is due at its exact (tick-rounded) finish time. After a
// reallocation only flows whose rate actually changed get a new due time
// — unchanged flows keep theirs (the replicant-opera UpdateLinkDemand
// idiom).
//
// Nothing is queued only to be thrown away. Each active flow keeps its
// pending completion in place as (due, seq); the pass that follows every
// allocation already visits every active flow, so it also picks the
// earliest. Timeouts are due at start + timeout, which never decreases,
// so they wait in a FIFO that is already in (when, seq) order. The next
// event is the earlier of that flow and the FIFO head under the (when,
// seq) rule the oracle's EventHeap pops by, with one seq counter for both
// kinds. A completion superseded by a reschedule, a timeout or a
// sweep is only counted, per due tick, and adds to flow_events_popped
// (and moves the clock) when its tick falls due — as popping it off a
// heap would. The active flows live in the network's slot bitmap, so
// starts and ends are O(1) and every sweep visits flows in ascending
// slot order. tests/net/reference_flow_sim.hpp keeps the event-heap loop
// as the oracle this one must match call for call.
//
// The layer is purely temporal: Simulation's routing, counters and SWAP
// ledger are already final when a flow starts, so counter-based and
// flow-level runs agree bit-for-bit on everything except the new FCT /
// utilization outputs (tests/net/flow_equivalence_test.cpp).
//
// Concurrency boundary: a FlowSimulator is thread-compatible, not
// thread-safe — it carries no lock on purpose. Each one is owned by
// exactly one Simulation, and each Simulation by exactly one TaskPool
// task; parallelism stays between simulators, never inside one. The
// `shared-capture` fairswap_lint rule enforces this statically (a
// simulator cannot be ref-captured into a parallel_for lambda without a
// reasoned allow), and the TSan CI job backstops it dynamically.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/stream_stats.hpp"
#include "common/telemetry/counters.hpp"
#include "net/flow.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/forwarding.hpp"

namespace fairswap::net {

/// Aggregated temporal outputs of a drained FlowSimulator.
struct FlowReport {
  std::uint64_t started{0};
  std::uint64_t completed{0};
  std::uint64_t timed_out{0};
  /// Flow-completion-time percentiles and mean, in ticks (0 when nothing
  /// completed). Exact from the full sample set by default; within the
  /// sketch's documented error bound under FlowConfig::bounded_fct (the
  /// mean stays exact either way).
  double fct_p50{0.0};
  double fct_p90{0.0};
  double fct_p99{0.0};
  double fct_mean{0.0};
  /// Links that were a binding max-min bottleneck at any point.
  std::uint64_t saturated_links{0};
  /// max over links of delivered volume / (capacity * makespan).
  double max_link_utilization{0.0};
  /// Time of the last flow completion or timeout.
  SimTime makespan{0};
};

/// Drives chunk-transfer flows for one Simulation run.
class FlowSimulator {
 public:
  /// Link layout: [0, E) the router's directed edge arena, [E, E+n) node
  /// uplinks, [E+n, E+2n) node downlinks. The router must outlive the
  /// simulator (a Simulation's is its topology's, which outlives it).
  FlowSimulator(const overlay::CompiledRouter& router, std::size_t node_count,
                FlowConfig config);

  /// Starts a flow for one delivered chunk at the current simulated time.
  /// `route` must have reached its storer with hops() >= 1 (local hits
  /// consume no bandwidth and get no flow) and carry one arena edge id per
  /// hop, as every CompiledRouter walk does; anything else throws
  /// std::invalid_argument. The flow's rate takes effect at the next
  /// commit().
  void start_chunk(const overlay::Route& route, bool is_upload);

  /// Reallocates rates after a batch of start_chunk calls and schedules
  /// the affected completions. A no-op when nothing was started.
  void commit();

  /// Runs all flow events up to and including `t`; the clock ends at `t`.
  void advance_to(SimTime t);

  /// Runs every pending completion and timeout: every remaining flow
  /// completes or times out. Idempotent.
  void drain();

  /// Forgets all flows, events and statistics; capacities stay.
  void reset();

  /// Points the simulator at the owning simulation's sim-plane counter
  /// block (events popped, rate recomputes, saturation episodes). Null
  /// detaches.
  void set_counters(telemetry::CounterBlock* counters) noexcept {
    counters_ = counters;
  }

  [[nodiscard]] FlowReport report() const;
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return net_.active_flows().size();
  }
  [[nodiscard]] const FairShareNetwork& network() const noexcept {
    return net_;
  }
  [[nodiscard]] const FlowConfig& config() const noexcept { return config_; }
  /// Completion times of all finished flows, in completion order (ticks).
  /// Stays empty under config().bounded_fct — use fct_sketch() there.
  [[nodiscard]] const std::vector<SimTime>& fct_samples() const noexcept {
    return fct_;
  }
  /// The bounded-memory FCT distribution (populated only under
  /// config().bounded_fct).
  [[nodiscard]] const PercentileSketch& fct_sketch() const noexcept {
    return fct_sketch_;
  }

 private:
  /// Slot-parallel flow bookkeeping the rate network does not carry.
  struct Meta {
    double remaining{0.0};         ///< chunks left, as of `progressed_`
    double rate{-1.0};             ///< rate the pending completion assumes
    SimTime start{0};
    SimTime due{0};                ///< pending completion time, if seq != 0
    std::uint64_t seq{0};          ///< its (when, seq) tie-break; 0: none
    std::uint64_t timeout_seq{0};  ///< seq of this flow's timeout
  };

  /// A pending timeout; `seq` identifies the flow it was queued for.
  struct Timeout {
    SimTime when{0};
    std::uint64_t seq{0};
    FlowId flow{0};
  };

  /// No flow has a pending completion.
  static constexpr FlowId kNoFlow = static_cast<FlowId>(-1);

  void progress_to(SimTime t);
  /// Dispatches every event due at or before `until`.
  void run_events(SimTime until);
  void reallocate_and_reschedule();
  void schedule_completion(FlowId flow);
  /// Makes `flow` the next completion if its pending one is earlier.
  void consider_next(FlowId flow);
  /// Drops the flow's pending completion, counted when its tick falls due.
  void supersede(Meta& m);
  void finish_flow(FlowId flow, bool completed);
  void on_completion_event(FlowId flow);
  void on_timeout_event(const Timeout& timeout);
  void bump_events_popped(std::uint64_t n);

  const overlay::CompiledRouter* router_;
  FlowConfig config_;
  std::size_t node_count_;
  FairShareNetwork net_;
  std::vector<Meta> meta_;
  /// The active flow with the earliest pending completion, or kNoFlow.
  FlowId next_{kNoFlow};
  /// Pending timeouts, in (when, seq) order.
  std::deque<Timeout> timeouts_;
  /// Superseded completions per due tick, not yet counted.
  std::map<SimTime, std::uint64_t> superseded_;
  std::vector<double> link_volume_;  ///< chunks delivered over each link
  std::vector<SimTime> fct_;
  /// Bounded-memory FCT aggregation (config_.bounded_fct): log-binned
  /// sketch for percentiles plus an exact integer tick sum for the mean.
  PercentileSketch fct_sketch_;
  std::uint64_t fct_ticks_sum_{0};
  std::vector<LinkId> links_buf_;
  std::vector<FlowId> finished_buf_;
  SimTime now_{0};
  SimTime progressed_{0};  ///< time `remaining` values refer to
  SimTime makespan_{0};
  std::uint64_t started_{0};
  std::uint64_t timed_out_{0};
  /// The next completion's or timeout's seq; 0 means none is pending.
  std::uint64_t next_seq_{1};
  bool dirty_{false};  ///< arrivals awaiting commit()
  /// Sim-plane counters (not owned); null until attached.
  telemetry::CounterBlock* counters_{nullptr};
};

}  // namespace fairswap::net
