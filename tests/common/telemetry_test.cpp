// The telemetry layer's own contract: sim-plane counters are exact
// integers with order-invariant merges (bit-identity material), and the
// wall plane (spans, Chrome trace export) stays a pure observer. The
// thread-count differential over real simulations lives in
// tests/core/telemetry_differential_test.cpp.
#include "common/telemetry/counters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/telemetry/span.hpp"

namespace fairswap::telemetry {
namespace {

TEST(CounterBlock, StartsEmptyAndBumpsBySlot) {
  CounterBlock block;
  EXPECT_EQ(block, CounterBlock{});
  block.bump(Counter::kRouteWalks);
  block.bump(Counter::kDebits, 41);
  block.bump(Counter::kDebits);
  EXPECT_NE(block, CounterBlock{});
  EXPECT_EQ(block.value(Counter::kRouteWalks), 1u);
  EXPECT_EQ(block.value(Counter::kDebits), 42u);
  EXPECT_EQ(block.value(Counter::kSettlements), 0u);
  block.clear();
  EXPECT_EQ(block, CounterBlock{});
}

TEST(CounterBlock, NamesAreUniqueSnakeCaseAndOrdered) {
  std::vector<std::string> names;
  CounterBlock{}.for_each([&](std::string_view name, std::uint64_t value) {
    EXPECT_EQ(value, 0u);
    names.emplace_back(name);
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_')
          << "counter names are snake_case: " << name;
    }
  });
  EXPECT_EQ(names.size(), kCounterCount);
  std::vector<std::string> unique = names;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_EQ(unique.size(), names.size()) << "duplicate counter name";
  // Registry order is the schema order: spot-pin the ends so reordering
  // (which would silently reshuffle CSV columns) fails loudly.
  EXPECT_EQ(names.front(), "route_batches");
  EXPECT_EQ(names.back(), "agent_revisions");
}

TEST(CounterBlock, MergeIsElementwiseExactAndOrderInvariant) {
  // Fold a pile of randomized blocks forward and reverse: integer adds
  // are exact and commutative, so the folds must be bit-equal — the
  // property the sharded heavy_traffic merge and the plan-level seed
  // fold both lean on.
  Rng rng(7);
  std::vector<CounterBlock> blocks(17);
  for (CounterBlock& b : blocks) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      b.bump(static_cast<Counter>(c), rng.next_below(1'000'000));
    }
  }
  CounterBlock forward;
  for (const CounterBlock& b : blocks) forward.merge(b);
  CounterBlock reverse;
  for (std::size_t i = blocks.size(); i-- > 0;) reverse.merge(blocks[i]);
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward.fingerprint(), reverse.fingerprint());

  // Spot-check one slot against a direct sum.
  std::uint64_t direct = 0;
  for (const CounterBlock& b : blocks) direct += b.value(Counter::kDebits);
  EXPECT_EQ(forward.value(Counter::kDebits), direct);
}

TEST(CounterBlock, FingerprintSeparatesDifferentBlocks) {
  CounterBlock a;
  CounterBlock b;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  a.bump(Counter::kRouteWalks);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b.bump(Counter::kRouteWalks);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Same total in a different slot is a different fingerprint: the slot
  // index is part of the identity, not just the multiset of values.
  CounterBlock c;
  c.bump(Counter::kRoutesFailed);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(TraceRecorder, CapturesNestedSpansAndExportsChromeTrace) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  {
    TELEM_SPAN("outer");
    {
      TELEM_SPAN("inner");
    }
  }
  recorder.disable();
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Scoped spans record at destruction: inner closes first, and nests
  // strictly inside outer's [start, start+dur] window.
  EXPECT_EQ(spans[0].name, std::string("inner"));
  EXPECT_EQ(spans[1].name, std::string("outer"));
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].start_ns + spans[0].dur_ns,
            spans[1].start_ns + spans[1].dur_ns);

  std::ostringstream out;
  recorder.write_chrome_trace(out);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(out.str(), doc, &error)) << error;
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  for (const JsonValue& event : events) {
    EXPECT_EQ(event.at("ph").string, "X");
    EXPECT_EQ(event.at("cat").string, "fairswap");
    EXPECT_GE(event.at("ts").number, 0.0);
    EXPECT_GE(event.at("dur").number, 0.0);
    EXPECT_DOUBLE_EQ(event.at("pid").number, 1.0);
  }
  recorder.clear();
}

TEST(TraceRecorder, DisabledSpansCostNothingAndRecordNothing) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.disable();
  recorder.clear();
  {
    TELEM_SPAN("never_seen");
  }
  recorder.record_on("also_never_seen", 0, 10, 0);
  EXPECT_EQ(recorder.span_count(), 0u);
}

TEST(TraceRecorder, EnableRebasesTimestampsToZero) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  {
    TELEM_SPAN("first");
  }
  recorder.disable();
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  // The first span starts within a second of enable(): start_ns is an
  // offset from the enable() epoch, not an absolute clock reading.
  EXPECT_LT(spans[0].start_ns, 1'000'000'000u);
  recorder.clear();
}

// TSan matrix target (common suite runs under -fsanitize=thread in CI):
// concurrent span emission from many threads must be race-free, and
// every span must land exactly once.
TEST(TraceRecorder, ConcurrentSpanEmissionIsRaceFreeAndLossless) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kSpansPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        TELEM_SPAN("contended");
        const std::uint64_t now = wall_now_ns();
        TraceRecorder::instance().record_on("manual", now, now + 1,
                                            thread_ordinal());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  recorder.disable();
  EXPECT_EQ(recorder.span_count(), kThreads * kSpansPerThread * 2);
  recorder.clear();
}

}  // namespace
}  // namespace fairswap::telemetry
