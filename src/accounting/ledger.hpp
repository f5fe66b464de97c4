// Ledger — the SWAP ledger, with balance slots on the router's edge arena.
//
// The pair set of the SWAP ledger is exactly the static peer-edge set the
// compiled router already flattened into its CSR arena: every debit the
// simulator issues runs along a route hop, and every route hop is a
// directed routing-table edge. So instead of hashing a packed (lo, hi)
// node-pair key per hop, this ledger:
//
//  * allocates one balance slot per *unordered* connected pair, in the
//    router's pair numbering: dense, in (lo, hi) order, computed once per
//    router (CompiledRouter::edge_pairs) and shared by every ledger over
//    it, so constructing a ledger sorts and groups nothing;
//  * reads the router's directed edge -> pair map in place, so a debit
//    resolves its slot with a single indexed load from the edge id the
//    router produced anyway (CompiledRouter::next_hop_edge — the id is a
//    byproduct of the argmin);
//  * keeps the slots with a nonzero balance on an intrusive active list
//    (each slot stores its own position, giving O(1) insert/remove via
//    swap-with-last), so amortize_tick, outstanding_debt, for_each_pair
//    and active_pairs touch only live balances instead of every pair the
//    run ever created.
//
// No packed keys anywhere: slots are plain array indices, so the ledger is
// immune to the NodeIndex-width truncation hazard of a packed pair key.
//
// Exactness: the hash-map SwapNetwork this ledger replaced is kept
// verbatim as a test oracle (tests/oracles/swap_network.hpp).
// tests/accounting/ledger_equivalence_test.cpp fuzzes both with identical
// operation sequences and tests/core/compiled_equivalence_test.cpp replays
// whole simulations against it; both enforce bit-identical observable
// state (balances, settlement count and digest, income/spent, totals).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "accounting/swap.hpp"
#include "common/telemetry/counters.hpp"
#include "common/token.hpp"
#include "overlay/compiled_router.hpp"

namespace fairswap::accounting {

using overlay::EdgeId;
using overlay::kNoEdge;
using overlay::NodeIndex;

/// Pairwise balance ledger over a CompiledRouter's edge set. The router
/// must outlive the ledger. Only pairs connected by at least one
/// routing-table edge can hold a balance — exactly the pairs SWAP
/// accounting can ever touch in a forwarding-Kademlia simulation.
///
/// Balances are stored once per unordered pair and exposed from either
/// side's perspective: balance(a, b) > 0 means b owes a (a has been a net
/// provider to b), so balance(a, b) == -balance(b, a) by construction.
class Ledger {
 public:
  /// Throws std::invalid_argument if the disconnect threshold is below
  /// the payment threshold.
  Ledger(const overlay::CompiledRouter& router, SwapConfig config);

  /// Points the ledger at a sim-plane counter block (owned by the
  /// simulation). Null detaches; debits then count nowhere.
  void set_counters(telemetry::CounterBlock* counters) noexcept {
    counters_ = counters;
  }

  /// Records that `provider` served `amount` worth of bandwidth to
  /// `consumer`. If `can_settle` and the consumer's debt reaches the
  /// payment threshold, an automatic settlement is recorded (crypto
  /// payment) and the balance cleared. With `can_settle == false` the debt
  /// only accrues — the paper's relay behaviour ("wait for time-based
  /// amortization for other requests") and the free-rider model. If the
  /// debt would exceed the disconnect threshold without a settlement, the
  /// service is refused and kDisconnected returned with no balance change.
  ///
  /// `edge` is the arena id of the directed consumer -> provider table
  /// edge (Route::edge(i) for hop i); passing it makes slot resolution one
  /// load. With kNoEdge the slot is found by scanning the consumer's CSR
  /// slab (O(degree)). Throws std::invalid_argument if the pair is not
  /// connected by any table edge — such a debit cannot occur on a routed
  /// path and would be silently mis-accounted otherwise.
  DebitResult debit(NodeIndex consumer, NodeIndex provider, Token amount,
                    bool can_settle = true, EdgeId edge = kNoEdge) {
    const DebitResult result =
        apply_debit(consumer, provider, amount, can_settle, edge);
    if (counters_ != nullptr) {
      counters_->bump(telemetry::Counter::kDebits);
      if (result == DebitResult::kSettled) {
        counters_->bump(telemetry::Counter::kSettlements);
      } else if (result == DebitResult::kDisconnected) {
        counters_->bump(telemetry::Counter::kRefusedPayments);
      }
    }
    return result;
  }

  /// Immediate payment outside threshold logic: consumer pays provider
  /// `amount` (the paper's default behaviour for zero-proximity requests:
  /// "use paid settlement for the requests generated by the originator
  /// itself"). Recorded as a settlement and as provider income; balances
  /// are untouched, so no slot resolution is needed.
  void pay_direct(NodeIndex consumer, NodeIndex provider, Token amount);

  /// Credits protocol-minted income to `node` without a paying
  /// counter-party (used by subsidy-style reward schemes such as the
  /// effort-based baseline).
  void mint(NodeIndex node, Token amount);

  /// `provider`'s view of its balance with `peer` (positive = peer owes
  /// provider). `edge` may be any arena edge connecting the two, in
  /// either direction; with kNoEdge the slot is scanned for. Unconnected
  /// pairs have no slot and are reported as the zero they hold.
  [[nodiscard]] Token balance(NodeIndex provider, NodeIndex peer,
                              EdgeId edge = kNoEdge) const;

  /// Applies one tick of time-based amortization to every active balance:
  /// each moves `amortization_per_tick` toward zero. Returns the number of
  /// balances that reached exactly zero this tick. Walks only the active
  /// list, not every pair ever seen.
  std::size_t amortize_tick();

  /// Advances the logical clock without amortizing (when amortization is
  /// disabled but settlement timestamps still matter).
  void advance_tick() noexcept { ++tick_; }

  /// Returns to the freshly-constructed state (no balances, zero
  /// income/spent, empty settlement log, tick 0) — the cheap between-epoch
  /// rewind of core's Simulation::reset. The edge->slot map and the slot
  /// arrays are reused untouched (only the active slots are zeroed), so
  /// resetting a 10k-node ledger costs O(active pairs), not O(arena).
  void reset();

  [[nodiscard]] std::uint64_t tick() const noexcept { return tick_; }
  [[nodiscard]] const SwapConfig& config() const noexcept { return config_; }

  /// Total crypto income received by each node across all settlements and
  /// direct payments — the value distribution the paper's F2 evaluates.
  [[nodiscard]] const std::vector<Token>& income() const noexcept {
    return income_;
  }

  /// Total spent by each node (settlements + direct payments issued).
  [[nodiscard]] const std::vector<Token>& spent() const noexcept {
    return spent_;
  }

  /// Count and order-sensitive digest of every settlement and direct
  /// payment so far, in constant memory.
  [[nodiscard]] const SettlementLog& settlements() const noexcept {
    return settlements_;
  }

  /// Sum of |balance| over the active pairs — outstanding unsettled debt,
  /// i.e. bandwidth provided that produced no income (yet).
  [[nodiscard]] Token outstanding_debt() const;

  /// Number of pairs with a nonzero balance (the active-list length).
  /// Pairs whose debt was settled, amortized, or cancelled back to exactly
  /// zero are not active, and refused debits never activate a pair.
  [[nodiscard]] std::size_t active_pairs() const noexcept {
    return active_.size();
  }

  /// Visits every pair with a nonzero balance as (low_node, high_node,
  /// balance_from_low's perspective), in ascending (lo, hi) order. The
  /// active list reorders on removal, so the slots are sorted per call.
  void for_each_pair(
      const std::function<void(NodeIndex, NodeIndex, Token)>& fn) const;

  /// Total connected unordered pairs (== allocated balance slots).
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return pair_balance_.size();
  }

  /// Bytes held by the per-run arrays (balance slots, active list,
  /// income/spent), reported by bench_scale and perfbench. The edge->slot
  /// map and each slot's (lo, hi) belong to the router and count in
  /// CompiledRouter::memory_bytes(). Settlements add nothing: the log is a
  /// fixed-size count and digest.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// Slot sentinel for edges with no pair (foreign targets).
  static constexpr std::uint32_t kNoSlot = overlay::CompiledRouter::kNoPair;
  /// active_pos_ sentinel: slot not on the active list (balance is zero).
  static constexpr std::uint32_t kInactive = 0xFFFFFFFFu;

  /// debit() without the counter bumps.
  DebitResult apply_debit(NodeIndex consumer, NodeIndex provider, Token amount,
                          bool can_settle, EdgeId edge);

  /// Pair slot for (a, b) found by scanning a's slab, then b's. kNoSlot
  /// when the nodes share no table edge.
  [[nodiscard]] std::uint32_t slot_of(NodeIndex a, NodeIndex b) const noexcept;

  void activate(std::uint32_t slot) {
    pair_active_pos_[slot] = static_cast<std::uint32_t>(active_.size());
    active_.push_back(slot);
  }

  void deactivate(std::uint32_t slot) noexcept {
    const std::uint32_t pos = pair_active_pos_[slot];
    const std::uint32_t last = active_.back();
    active_[pos] = last;
    pair_active_pos_[last] = pos;
    active_.pop_back();
    pair_active_pos_[slot] = kInactive;
  }

  const overlay::CompiledRouter* router_;
  SwapConfig config_;

  /// The router's pair numbering, read in place: directed arena edge ->
  /// balance slot of its unordered pair (kNoSlot for foreign-target
  /// edges), and each slot's (lo, hi).
  const std::uint32_t* edge_slot_;
  const NodeIndex* pair_lo_;
  const NodeIndex* pair_hi_;
  /// Balance slots in (lo, hi) order, from the lower-indexed node's
  /// perspective: positive = hi owes lo.
  std::vector<Token> pair_balance_;
  /// Intrusive active-list position per slot (kInactive when zero).
  std::vector<std::uint32_t> pair_active_pos_;
  /// Slots with nonzero balance, unordered.
  std::vector<std::uint32_t> active_;

  std::vector<Token> income_;
  std::vector<Token> spent_;
  SettlementLog settlements_;
  std::uint64_t tick_{0};
  /// Sim-plane counters (not owned); null until the owning simulation
  /// attaches its block.
  telemetry::CounterBlock* counters_{nullptr};
};

}  // namespace fairswap::accounting
