// Event-driven flow-level transfer simulation over a compiled overlay.
//
// Every delivered chunk becomes one unit-size Flow across capacity links:
// the traversed routing-table edges (the compiled router's edge arena ids,
// which every CompiledRouter route carries in Route::edges; a route
// without them is rejected) plus, per hop, the data-direction sender's
// uplink and the receiver's downlink. Rates come from FairShareNetwork's
// max-min fair allocator and are recomputed at arrivals, completions and
// timeouts; in between, every flow progresses linearly, so completions
// are scheduled as events at their exact (tick-rounded) finish time.
// After a reallocation only flows whose rate actually changed are
// rescheduled — unchanged flows keep their pending event (the
// replicant-opera UpdateLinkDemand idiom); stale events are recognized by
// generation counters and ignored.
//
// Events are plain {flow, uid, sched} records on an engine::EventHeap —
// the same (when, seq) ordering rule EventQueue runs on, without a
// per-event callback allocation. Most of them are stale by the time they
// pop, so a pop costs a heap step and two integer compares. The active
// flows live in the network's slot bitmap, so starts and ends are O(1)
// and every sweep still visits flows in ascending slot order.
//
// The layer is purely temporal: Simulation's routing, counters and SWAP
// ledger are already final when a flow starts, so counter-based and
// flow-level runs agree bit-for-bit on everything except the new FCT /
// utilization outputs (tests/net/flow_equivalence_test.cpp).
//
// Concurrency boundary: like engine::EventQueue, a FlowSimulator is
// thread-compatible and single-owner — one per Simulation, one Simulation
// per TaskPool task. Nothing here is locked, and the `shared-capture`
// lint rule plus the TSan CI job keep it that way (see
// engine/event_queue.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stream_stats.hpp"
#include "common/telemetry/counters.hpp"
#include "engine/event_queue.hpp"
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
  engine::SimTime makespan{0};
};

/// Drives chunk-transfer flows for one Simulation run.
class FlowSimulator {
 public:
  /// Link layout: [0, E) the router's directed edge arena, [E, E+n) node
  /// uplinks, [E+n, E+2n) node downlinks. The router must outlive the
  /// simulator (Simulation pins its snapshot).
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
  void advance_to(engine::SimTime t);

  /// Runs the event queue dry: every remaining flow completes or times
  /// out. Idempotent.
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
  [[nodiscard]] engine::SimTime now() const noexcept { return events_.now(); }
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return net_.active_flows().size();
  }
  [[nodiscard]] const FairShareNetwork& network() const noexcept {
    return net_;
  }
  [[nodiscard]] const FlowConfig& config() const noexcept { return config_; }
  /// Completion times of all finished flows, in completion order (ticks).
  /// Stays empty under config().bounded_fct — use fct_sketch() there.
  [[nodiscard]] const std::vector<engine::SimTime>& fct_samples()
      const noexcept {
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
    double remaining{0.0};       ///< chunks left, as of `progressed_`
    double rate{-1.0};           ///< last scheduled-against rate
    engine::SimTime start{0};
    std::uint64_t uid{0};        ///< bumps on slot reuse; stales timeouts
    std::uint64_t sched{0};      ///< bumps on reschedule; stales completions
  };

  /// A pending completion or timeout. Completion events carry the
  /// flow's sched generation (>= 1); sched == 0 marks a timeout.
  struct FlowEvent {
    FlowId flow{0};
    std::uint64_t uid{0};
    std::uint64_t sched{0};
  };

  void progress_to(engine::SimTime t);
  /// Dispatches every event due at or before `until`.
  void run_events(engine::SimTime until);
  void reallocate_and_reschedule();
  void schedule_completion(FlowId flow);
  void finish_flow(FlowId flow, bool completed);
  void on_completion_event(const FlowEvent& ev);
  void on_timeout_event(const FlowEvent& ev);

  const overlay::CompiledRouter* router_;
  FlowConfig config_;
  std::size_t node_count_;
  FairShareNetwork net_;
  engine::EventHeap<FlowEvent> events_;
  std::vector<Meta> meta_;
  std::vector<double> link_volume_;  ///< chunks delivered over each link
  std::vector<engine::SimTime> fct_;
  /// Bounded-memory FCT aggregation (config_.bounded_fct): log-binned
  /// sketch for percentiles plus an exact integer tick sum for the mean.
  PercentileSketch fct_sketch_;
  std::uint64_t fct_ticks_sum_{0};
  std::vector<LinkId> links_buf_;
  std::vector<FlowId> finished_buf_;
  engine::SimTime progressed_{0};  ///< time `remaining` values refer to
  engine::SimTime makespan_{0};
  std::uint64_t started_{0};
  std::uint64_t timed_out_{0};
  std::uint64_t next_uid_{1};
  bool dirty_{false};  ///< arrivals awaiting commit()
  /// Sim-plane counters (not owned); null until attached.
  telemetry::CounterBlock* counters_{nullptr};
};

}  // namespace fairswap::net
