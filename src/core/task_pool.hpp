// A small reusable worker pool for fan-out over an index range.
//
// The paper notes its tooling "allows us to collect data from runs on
// multiple machines into a single simulation"; TaskPool is the single-machine
// analogue. Workers pull one index at a time from a shared atomic counter
// (self-scheduling), so an expensive seed on one worker does not stall the
// rest — the cheap seeds are taken by whoever is idle.
//
// Lock discipline is compiler-checked (common/thread_annotations.hpp,
// -Wthread-safety): every shared field is GUARDED_BY(mutex_). Workers copy
// the job descriptor (fn/count) while holding mutex_ at wake-up and then
// run on the copies, so no field is ever read outside the lock; the only
// lock-free shared state is the atomic index counter next_.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/telemetry/counters.hpp"
#include "common/thread_annotations.hpp"

namespace fairswap::core {

/// Per-worker utilization accounting — WALL-PLANE data (see
/// docs/OBSERVABILITY.md): busy time and the split of items across
/// workers vary run to run and must never feed a simulated result. The
/// items summed over workers are exact: they equal the indices executed
/// (pinned by tests/core/task_pool_test.cpp).
struct WorkerStats {
  /// Wall nanoseconds spent inside fn(i) calls (0 when telemetry is
  /// compiled off).
  std::uint64_t busy_ns{0};
  /// Wall nanoseconds the worker spent idle while a job it joined was
  /// still running elsewhere (0 when telemetry is compiled off).
  std::uint64_t idle_ns{0};
  /// Indices executed.
  std::uint64_t items{0};
};

/// Fixed-size worker pool. `parallel_for` blocks the caller, which also
/// participates in the work, so a pool of size 1 degenerates to a plain
/// serial loop with no thread traffic at all.
class TaskPool {
 public:
  /// `threads` is the total parallelism (caller included). 0 means
  /// std::thread::hardware_concurrency() (at least 1).
  explicit TaskPool(std::size_t threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total parallelism: background workers + the calling thread.
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size() + 1;
  }

  /// Runs fn(i) for every i in [0, count), each thread claiming one index
  /// at a time. Blocks until all indices completed. If any invocation
  /// throws, the first exception is rethrown on the caller after the loop
  /// drains (remaining indices still run).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Cumulative per-thread utilization, one slot per pool thread (the
  /// caller is the last slot). Workers write their own slot lock-free
  /// while a job runs; read only between parallel_for calls, where the
  /// job's completion hand-off (mutex_) orders every write before the
  /// read.
  [[nodiscard]] const std::vector<WorkerStats>& worker_stats() const noexcept {
    return stats_;
  }

 private:
  void worker_loop(std::size_t slot);
  /// Claims and runs indices of the job described by the arguments (copied
  /// out under mutex_ by the caller); records the first exception under
  /// mutex_. `slot` is the caller's stats_ slot (disjoint per thread).
  void drain_job(const std::function<void(std::size_t)>& fn,
                 std::size_t count, std::size_t slot);

  std::vector<std::thread> workers_;
  /// Per-thread utilization slots (workers_, then the caller). Disjoint
  /// lock-free writes; see worker_stats() for the read contract.
  std::vector<WorkerStats> stats_;
  /// busy_ns snapshot at job start, for idle attribution (caller only).
  std::vector<std::uint64_t> busy_snapshot_;

  Mutex mutex_;
  CondVar wake_cv_;  // workers wait for a new job / stop
  CondVar done_cv_;  // caller waits for workers to finish
  bool stop_ GUARDED_BY(mutex_) = false;
  // Bumped once per parallel_for; a worker's wake condition.
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  // Workers still inside the current job.
  std::size_t active_workers_ GUARDED_BY(mutex_) = 0;

  // Current job descriptor. Written under mutex_ before workers are woken;
  // workers copy it under mutex_ at wake-up and never touch it again.
  const std::function<void(std::size_t)>* fn_ GUARDED_BY(mutex_) = nullptr;
  std::size_t count_ GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_error_ GUARDED_BY(mutex_);

  // Index-claim counter: the one deliberately lock-free shared field
  // (relaxed order is enough — claims carry no data, and job visibility
  // is ordered by the mutex_ hand-off above).
  std::atomic<std::size_t> next_{0};
};

}  // namespace fairswap::core
