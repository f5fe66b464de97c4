#include "core/task_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/telemetry/span.hpp"

namespace fairswap::core {

TaskPool::TaskPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  stats_.resize(threads);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;

  const std::size_t caller_slot = workers_.size();
  if (workers_.empty()) {
    // Serial pool: same drain-then-rethrow semantics, no synchronization.
    std::uint64_t start_ns = 0;
    if constexpr (telemetry::kEnabled) start_ns = telemetry::wall_now_ns();
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if constexpr (telemetry::kEnabled) {
      stats_[caller_slot].busy_ns += telemetry::wall_now_ns() - start_ns;
    }
    stats_[caller_slot].items += count;
    if (error) std::rethrow_exception(error);
    return;
  }

  std::uint64_t job_start_ns = 0;
  if constexpr (telemetry::kEnabled) {
    job_start_ns = telemetry::wall_now_ns();
    busy_snapshot_.resize(stats_.size());
    for (std::size_t s = 0; s < stats_.size(); ++s) {
      busy_snapshot_[s] = stats_[s].busy_ns;
    }
  }

  {
    const MutexLock lock(mutex_);
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_workers_ = workers_.size();
    ++generation_;
  }
  wake_cv_.notify_all();

  drain_job(fn, count, caller_slot);  // the caller is a worker too

  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (active_workers_ != 0) done_cv_.wait(lock);
    fn_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  if constexpr (telemetry::kEnabled) {
    // All workers are past their stats writes (the active_workers_
    // hand-off above orders them), so idle attribution reads are safe:
    // idle == job wall time not spent inside fn.
    const std::uint64_t job_ns = telemetry::wall_now_ns() - job_start_ns;
    for (std::size_t s = 0; s < stats_.size(); ++s) {
      const std::uint64_t busy = stats_[s].busy_ns - busy_snapshot_[s];
      stats_[s].idle_ns += job_ns > busy ? job_ns - busy : 0;
    }
  }
  if (error) std::rethrow_exception(error);
}

void TaskPool::worker_loop(std::size_t slot) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    // Copy the job descriptor out under the lock: drain_job then runs on
    // thread-local copies, so fn_/count_ stay strictly mutex_-guarded (no
    // lock-free protocol for the analysis to miss).
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    {
      MutexLock lock(mutex_);
      while (!stop_ && generation_ == seen_generation) wake_cv_.wait(lock);
      if (stop_) return;
      seen_generation = generation_;
      fn = fn_;
      count = count_;
    }
    drain_job(*fn, count, slot);
    {
      const MutexLock lock(mutex_);
      if (--active_workers_ == 0) done_cv_.notify_one();
    }
  }
}

void TaskPool::drain_job(const std::function<void(std::size_t)>& fn,
                         std::size_t count, std::size_t slot) {
  WorkerStats& stats = stats_[slot];  // disjoint slot: lock-free by design
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    std::uint64_t start_ns = 0;
    if constexpr (telemetry::kEnabled) start_ns = telemetry::wall_now_ns();
    try {
      fn(i);
    } catch (...) {
      const MutexLock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    if constexpr (telemetry::kEnabled) {
      const std::uint64_t end_ns = telemetry::wall_now_ns();
      stats.busy_ns += end_ns - start_ns;
      // One trace row per pool thread: the spans show the sweep's actual
      // schedule when a trace is being captured.
      telemetry::TraceRecorder::instance().record_on(
          "pool_chunk", start_ns, end_ns, static_cast<std::uint32_t>(slot));
    }
    stats.items += 1;
  }
}

}  // namespace fairswap::core
