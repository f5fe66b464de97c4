#include "core/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fairswap::core {
namespace {

TEST(TaskPool, CoversEveryIndexExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, ZeroCountIsANoOp) {
  TaskPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(TaskPool, SingleThreadPoolRunsSerially) {
  TaskPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(TaskPool, DefaultSizeUsesHardwareConcurrency) {
  TaskPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(TaskPool, IsReusableAcrossJobs) {
  TaskPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(TaskPool, FirstExceptionPropagatesAfterDraining) {
  TaskPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(50,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("seed 7 failed");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 49);  // every non-throwing index still ran
}

TEST(TaskPool, SerialPoolAlsoDrainsBeforeRethrow) {
  TaskPool pool(1);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(10,
                        [&](std::size_t i) {
                          if (i == 0) throw std::runtime_error("boom");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 9);
}

TEST(TaskPool, MorePoolThreadsThanWork) {
  TaskPool pool(8);
  std::atomic<int> calls{0};
  pool.parallel_for(3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(TaskPool, WorkerStatsAccountForEveryItemAcrossJobs) {
  // The utilization-consistency contract run_plan's pool log leans on:
  // summed per-worker item counts equal the items submitted, and (in
  // telemetry builds) busy time was actually measured for whoever did
  // work.
  TaskPool pool(4);
  ASSERT_EQ(pool.worker_stats().size(), 4u);
  pool.parallel_for(97, [](std::size_t) {});
  pool.parallel_for(31, [](std::size_t) {});

  std::uint64_t items = 0;
  std::uint64_t busy_ns = 0;
  for (const WorkerStats& s : pool.worker_stats()) {
    items += s.items;
    busy_ns += s.busy_ns;
  }
  EXPECT_EQ(items, 97u + 31u);
  if constexpr (telemetry::kEnabled) {
    EXPECT_GT(busy_ns, 0u);
  } else {
    EXPECT_EQ(busy_ns, 0u);  // wall timing compiled out with telemetry
  }
}

TEST(TaskPool, SerialPoolStatsCountTheCallerAsTheOneWorker) {
  TaskPool pool(1);
  pool.parallel_for(10, [](std::size_t) {});
  const auto& stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].items, 10u);
}

}  // namespace
}  // namespace fairswap::core
