// Wall-plane telemetry: scoped phase spans and Chrome-trace export.
//
// `TELEM_SPAN("build_topology");` opens a RAII span covering the rest of
// the enclosing scope; nested scopes nest in the trace. Spans land in the
// process-wide TraceRecorder (off by default — recording is enabled only
// when the driver was asked for a trace, e.g. `trace_spans=FILE` on
// fairswap_run), which exports the Chrome trace-event JSON format that
// chrome://tracing and Perfetto load directly.
//
// This is the *wall* plane: timings come from a monotonic wall clock and
// are explicitly OUTSIDE the bit-identical determinism contract — no
// simulated result may ever depend on them. `wall_now_ns()` below is the
// one blessed clock source in the tree; the `wall-clock` fairswap_lint
// rule bans std::chrono everywhere else in src/, so wall time cannot
// leak into the sim plane without a reasoned suppression.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry/counters.hpp"
#include "common/thread_annotations.hpp"

namespace fairswap::telemetry {

/// Monotonic wall clock, nanoseconds since an unspecified epoch. The one
/// place in src/ allowed to touch std::chrono (see the wall-clock lint
/// rule); everything that needs elapsed wall time calls this.
[[nodiscard]] std::uint64_t wall_now_ns() noexcept;

/// Small dense ordinal for the calling thread (0 for the first thread
/// that asks, 1 for the second, ...). Used as the Chrome-trace tid so
/// traces stay readable regardless of OS thread ids.
[[nodiscard]] std::uint32_t thread_ordinal() noexcept;

/// One closed span. `tid` is the thread_ordinal() of the emitting thread
/// (or a synthetic lane id for TaskPool worker accounting).
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns{0};
  std::uint64_t dur_ns{0};
  std::uint32_t tid{0};
};

/// Process-wide span sink. Recording is gated on an atomic flag checked
/// before any allocation or locking, so a disabled recorder costs one
/// relaxed load per span site. Thread-safe: spans from concurrent
/// threads append under the mutex (order between threads is arbitrary —
/// this is the wall plane, nothing downstream may care).
class TraceRecorder {
 public:
  /// The process singleton.
  [[nodiscard]] static TraceRecorder& instance();

  /// Starts capture (clearing any previous spans) and pins the trace
  /// epoch so exported timestamps start near zero.
  void enable();
  void disable();
  [[nodiscard]] bool enabled() const noexcept;

  /// Records a closed span on the calling thread's ordinal. No-op when
  /// disabled.
  void record(std::string_view name, std::uint64_t start_ns,
              std::uint64_t end_ns);

  /// Records a closed span on an explicit lane — used by TaskPool to
  /// attribute worker busy intervals to per-worker trace rows.
  void record_on(std::string_view name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint32_t tid);

  /// Writes the Chrome trace-event JSON document ("traceEvents" array of
  /// ph:"X" complete events, microsecond timestamps). Loads in
  /// chrome://tracing and Perfetto as-is.
  void write_chrome_trace(std::ostream& out) const;

  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  void clear();

 private:
  TraceRecorder() = default;

  mutable Mutex mutex_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mutex_);
  std::uint64_t epoch_ns_ GUARDED_BY(mutex_){0};
  // Plain bool under the mutex would force a lock per disabled span
  // site; the relaxed atomic keeps the disabled path to one load.
  std::atomic<bool> enabled_{false};
};

/// RAII span: stamps the start on construction, records on destruction.
/// Does nothing when the recorder is disabled at construction time. Use
/// through TELEM_SPAN.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) noexcept {
    if (TraceRecorder::instance().enabled()) {
      name_ = name;
      start_ns_ = wall_now_ns();
      active_ = true;
    }
  }
  ~ScopedSpan() {
    if (active_) {
      TraceRecorder::instance().record(name_, start_ns_, wall_now_ns());
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::string_view name_;
  std::uint64_t start_ns_{0};
  bool active_{false};
};

}  // namespace fairswap::telemetry

// TELEM_SPAN("name"); — a statement that opens a span for the rest of
// the enclosing scope.
#define FAIRSWAP_TELEM_CAT2(a, b) a##b
#define FAIRSWAP_TELEM_CAT(a, b) FAIRSWAP_TELEM_CAT2(a, b)
#define TELEM_SPAN(name)                                  \
  const ::fairswap::telemetry::ScopedSpan FAIRSWAP_TELEM_CAT( \
      telem_span_, __LINE__)(name)
