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
//
// When the build sets FAIRSWAP_TELEMETRY=OFF (-DFAIRSWAP_TELEMETRY_OFF),
// `kEnabled` is false: `bump` compiles to nothing and the sinks omit the
// counters sections, so the OFF build reproduces pre-telemetry output
// byte for byte.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

namespace fairswap::telemetry {

/// Compile-time master switch. OFF builds keep the types (so call sites
/// need no #ifdefs) but every bump is a no-op and every sink section is
/// skipped.
#if defined(FAIRSWAP_TELEMETRY_OFF)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// The registry: one enumerator per counter, dense from zero. Adding a
/// counter means adding an enumerator here and a name in counter_name()
/// — a missing name is a compile-time error via the switch's return.
enum class Counter : std::size_t {
  // routing (core::Simulation request path)
  kRouteBatches = 0,   ///< route_batch calls (8-lane lockstep batches)
  kRouteWalks,         ///< individual route walks (batched or per-chunk)
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
  kFlowEventsPopped,      ///< completion/timeout events popped
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

  /// Hot-path increment. A single integer add when telemetry is on;
  /// nothing at all when the build is OFF.
  void bump(Counter c, std::uint64_t by = 1) noexcept {
    if constexpr (kEnabled) {
      slots_[static_cast<std::size_t>(c)] += by;
    } else {
      static_cast<void>(c);
      static_cast<void>(by);
    }
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

  /// True when every slot is zero (an OFF build, or a run that touched
  /// no instrumented path).
  [[nodiscard]] bool empty() const noexcept {
    for (const std::uint64_t v : slots_) {
      if (v != 0) return false;
    }
    return true;
  }

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
