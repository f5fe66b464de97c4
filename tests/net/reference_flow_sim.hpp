// The flow event loop as it ran before completions were kept in place: a
// (when, seq) EventHeap of {flow, uid, sched} records, where every
// reschedule pushes a new completion and the superseded one is recognized
// by its stale sched generation only when it pops. Everything else (link
// layout, progress, the completion sweep, report()) is the same code as
// net::FlowSimulator. It is the test oracle the simulator must match call
// for call (flow_event_oracle_test.cpp); nothing outside tests/ links it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/stream_stats.hpp"
#include "common/telemetry/counters.hpp"
#include "net/flow.hpp"
#include "net/flow_sim.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/forwarding.hpp"

namespace fairswap::net {

/// Timestamped payloads popped in (time, push order) order against a
/// monotone clock. Entries pushed for the same time pop in push order
/// (stable via sequence numbers), which keeps runs reproducible; a time in
/// the past is clamped to the current clock and, with its fresh sequence
/// number, queues behind entries already waiting there.
template <typename Payload>
class EventHeap {
 public:
  /// Queues `payload` at absolute time `when` (clamped to now()).
  void push(SimTime when, Payload payload) {
    heap_.push_back(Entry{std::max(when, now_), next_seq_++,
                          std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Pops the earliest entry into `out` if it is due at or before
  /// `until`, moving the clock to its time; false when none is due.
  bool pop_due(SimTime until, Payload& out) {
    if (heap_.empty() || heap_.front().when > until) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    now_ = heap_.back().when;
    out = std::move(heap_.back().payload);
    heap_.pop_back();
    return true;
  }

  /// Moves the clock forward to `t`; never rewinds it.
  void advance_to(SimTime t) noexcept { now_ = std::max(now_, t); }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    Payload payload;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  SimTime now_{0};
  std::uint64_t next_seq_{0};
};

/// Same contract and outputs as FlowSimulator, over an event heap.
class ReferenceFlowSimulator {
 public:
  ReferenceFlowSimulator(const overlay::CompiledRouter& router,
                         std::size_t node_count, FlowConfig config);

  void start_chunk(const overlay::Route& route, bool is_upload);
  void commit();
  void advance_to(SimTime t);
  void drain();
  void reset();

  void set_counters(telemetry::CounterBlock* counters) noexcept {
    counters_ = counters;
  }

  [[nodiscard]] FlowReport report() const;
  [[nodiscard]] SimTime now() const noexcept { return events_.now(); }
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return net_.active_flows().size();
  }
  [[nodiscard]] const std::vector<SimTime>& fct_samples() const noexcept {
    return fct_;
  }

 private:
  /// Slot-parallel flow bookkeeping the rate network does not carry.
  struct Meta {
    double remaining{0.0};       ///< chunks left, as of `progressed_`
    double rate{-1.0};           ///< last scheduled-against rate
    SimTime start{0};
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

  void progress_to(SimTime t);
  /// Dispatches every event due at or before `until`.
  void run_events(SimTime until);
  void reallocate_and_reschedule();
  void schedule_completion(FlowId flow);
  void finish_flow(FlowId flow, bool completed);
  void on_completion_event(const FlowEvent& ev);
  void on_timeout_event(const FlowEvent& ev);

  const overlay::CompiledRouter* router_;
  FlowConfig config_;
  std::size_t node_count_;
  FairShareNetwork net_;
  EventHeap<FlowEvent> events_;
  std::vector<Meta> meta_;
  std::vector<double> link_volume_;  ///< chunks delivered over each link
  std::vector<SimTime> fct_;
  PercentileSketch fct_sketch_;
  std::uint64_t fct_ticks_sum_{0};
  std::vector<LinkId> links_buf_;
  std::vector<FlowId> finished_buf_;
  SimTime progressed_{0};  ///< time `remaining` values refer to
  SimTime makespan_{0};
  std::uint64_t started_{0};
  std::uint64_t timed_out_{0};
  std::uint64_t next_uid_{1};
  bool dirty_{false};  ///< arrivals awaiting commit()
  telemetry::CounterBlock* counters_{nullptr};
};

}  // namespace fairswap::net
