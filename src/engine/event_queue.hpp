// A discrete-event queue with a monotone clock and stable FIFO ordering
// for simultaneous events. Drives the temporal extensions the step-based
// engine cannot express: time-based amortization dynamics, churn, and
// latency modelling.
//
// The ordering rule lives in EventHeap<Payload>: a (when, seq) min-heap
// over a monotone clock. EventQueue is that heap over callbacks; a loop
// that dispatches on plain data can use the heap directly with a small
// payload and no per-event allocation. net::FlowSimulator needs no heap:
// it keeps each flow's completion in place and its timeouts arrive in
// order, but it dispatches them by the same (when, seq) rule.
//
// Concurrency boundary: EventQueue is thread-compatible, not thread-safe
// — it carries no lock on purpose. Every instance is owned by exactly one
// simulation, and every simulation is owned by exactly one TaskPool task;
// parallelism stays *between* queues, never inside one. The
// `shared-capture` fairswap_lint rule enforces the boundary statically (a
// queue cannot be ref-captured into a parallel_for lambda without a
// reasoned allow), and the TSan CI job backstops it dynamically.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace fairswap::engine {

/// Simulated time in abstract ticks.
using SimTime = std::uint64_t;

/// The latest representable time: "no horizon".
inline constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

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

/// A deterministic discrete-event executor over callbacks.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime now)>;

  /// Schedules `cb` at absolute time `when`. Scheduling in the past fires
  /// at the current time (immediately on the next run).
  void schedule_at(SimTime when, Callback cb) {
    heap_.push(when, std::move(cb));
  }

  /// Schedules `cb` `delay` ticks after the current time.
  void schedule_after(SimTime delay, Callback cb) {
    heap_.push(heap_.now() + delay, std::move(cb));
  }

  /// Pops and executes the earliest event; returns false when empty.
  bool run_next() { return run_due(kForever); }

  /// Runs all events with time <= `until`; returns how many fired.
  std::size_t run_until(SimTime until) {
    std::size_t fired = 0;
    while (run_due(until)) ++fired;
    heap_.advance_to(until);
    return fired;
  }

  /// Runs until the queue is empty; returns how many fired.
  std::size_t run_all() {
    std::size_t fired = 0;
    while (run_next()) ++fired;
    return fired;
  }

  [[nodiscard]] SimTime now() const noexcept { return heap_.now(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

 private:
  bool run_due(SimTime until) {
    Callback cb;
    if (!heap_.pop_due(until, cb)) return false;
    cb(heap_.now());
    return true;
  }

  EventHeap<Callback> heap_;
};

}  // namespace fairswap::engine
