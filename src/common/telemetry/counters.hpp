// Sim-plane telemetry: the deterministic counter registry.
//
// Every counter is registered at compile time — an enumerator in
// `Counter`, a name in `counter_name` — and lives in a dense slot of a
// `CounterBlock`. Subsystems bump slots on the hot path (one add on a
// plain uint64_t, no atomics, no locks: each Simulation owns its own
// block, and blocks from parallel shards are folded in canonical order
// exactly like `PercentileSketch`). All state is integer, so `merge` is
// exact, commutative and associative, which is what puts counter
// snapshots inside the bit-identical-for-any-`threads=` contract: the
// fold order can change, the sums cannot.
//
// This is the *sim* plane — counts of simulated events only. Anything
// derived from a wall clock lives in the wall plane (telemetry/span.hpp)
// and is excluded from determinism checks. The `wall-clock` fairswap_lint
// rule enforces the split mechanically.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

namespace fairswap::telemetry {

/// Always true: telemetry has one build. The last reader is the frozen
/// benchmark, perfbench/src/workloads.cpp (l.349 and l.401); delete the
/// constant with the next change to perfbench/.
inline constexpr bool kEnabled = true;

/// The registry: one enumerator per counter, dense from zero. Adding a
/// counter means adding an enumerator here and a name in counter_name()
/// — a missing name is a compile-time error via the switch's return.
enum class Counter : std::size_t {
  // routing (core::Simulation request path)
  kRouteBatches = 0,   ///< route_batch calls (8-lane lockstep batches)
  kRouteWalks,         ///< individual route walks
  kRoutesTruncated,    ///< walks cut by the hop budget
  kRoutesFailed,       ///< walks that died before reaching a holder
  kChunksDelivered,    ///< chunks that reached their originator
  kLocalHits,          ///< requests served from the originator's store
  kServiceRefusals,    ///< deliveries refused by a non-serving holder
  // accounting (accounting::Ledger)
  kDebits,             ///< debit() calls (one per paid transfer)
  kSettlements,        ///< debits that crossed the payment threshold
  kRefusedPayments,    ///< debits refused (disconnected / withheld)
  kAmortizeTicks,      ///< time-decay amortization passes
  // flow simulation (net::FlowSimulator)
  kFlowEventsPopped,      ///< completion and timeout times that came due,
                          ///< superseded completions included
  kFlowRateRecomputes,    ///< max-min reallocation passes
  kFlowSaturationEpisodes,///< links newly driven to saturation
  // workload (workload::DemandEngine)
  kBurstDraws,         ///< requests redirected into a flash-crowd burst
  kDiurnalDraws,       ///< interarrivals modulated by the diurnal wave
  // agents (agents::EpochDriver)
  kAgentRevisions,     ///< revision opportunities drawn across epochs
  kCount,              ///< slot count — keep last
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case name, used verbatim as the JSON/CSV key. Names are
/// part of the fairswap.run.v1 schema once shipped — never rename, only
/// append.
[[nodiscard]] constexpr std::string_view counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kRouteBatches: return "route_batches";
    case Counter::kRouteWalks: return "route_walks";
    case Counter::kRoutesTruncated: return "routes_truncated";
    case Counter::kRoutesFailed: return "routes_failed";
    case Counter::kChunksDelivered: return "chunks_delivered";
    case Counter::kLocalHits: return "local_hits";
    case Counter::kServiceRefusals: return "service_refusals";
    case Counter::kDebits: return "debits";
    case Counter::kSettlements: return "settlements";
    case Counter::kRefusedPayments: return "refused_payments";
    case Counter::kAmortizeTicks: return "amortize_ticks";
    case Counter::kFlowEventsPopped: return "flow_events_popped";
    case Counter::kFlowRateRecomputes: return "flow_rate_recomputes";
    case Counter::kFlowSaturationEpisodes: return "flow_saturation_episodes";
    case Counter::kBurstDraws: return "burst_draws";
    case Counter::kDiurnalDraws: return "diurnal_draws";
    case Counter::kAgentRevisions: return "agent_revisions";
    case Counter::kCount: break;
  }
  return "invalid";
}

/// A dense block of all registered counters. Value semantics; zeroed on
/// construction and clear(), so `reset`-style replay starts from the same
/// state every time.
class CounterBlock {
 public:
  constexpr CounterBlock() = default;

  /// Hot-path increment: a single integer add.
  void bump(Counter c, std::uint64_t by = 1) noexcept {
    slots_[static_cast<std::size_t>(c)] += by;
  }

  [[nodiscard]] std::uint64_t value(Counter c) const noexcept {
    return slots_[static_cast<std::size_t>(c)];
  }

  /// Elementwise integer addition — exact, commutative, associative, so
  /// shard folds are bit-identical in any order (pinned by the
  /// reverse-fold tests in tests/common/telemetry_test.cpp).
  void merge(const CounterBlock& other) noexcept {
    for (std::size_t i = 0; i < kCounterCount; ++i) slots_[i] += other.slots_[i];
  }

  void clear() noexcept { slots_.fill(0); }

  /// FNV-1a over the slot values in registry order — a compact handle
  /// for "same counters" in differential tests and shard-fold gates.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Visits (name, value) in registry order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      fn(counter_name(static_cast<Counter>(i)), slots_[i]);
    }
  }

  friend bool operator==(const CounterBlock&, const CounterBlock&) = default;

 private:
  std::array<std::uint64_t, kCounterCount> slots_{};
};

}  // namespace fairswap::telemetry
