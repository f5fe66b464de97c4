// SwapNetwork — the hash-map SWAP ledger, kept as a test oracle.
//
// accounting::Ledger keeps one balance slot per connected pair on the
// compiled router's edge arena. This is the implementation it replaced:
// one std::unordered_map entry per unordered pair with a nonzero balance,
// keyed by the packed (lo, hi) node indices. It accepts any node pair,
// needs no router, and does the same per-debit arithmetic, so
// ledger_equivalence_test fuzzes the two in lockstep and bench_scale
// times one against the other. Nothing outside tests/ and bench_scale
// links it.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "accounting/swap.hpp"
#include "common/token.hpp"

namespace fairswap::accounting {

/// The pairwise balance ledger for the whole simulated network.
///
/// Balances are stored once per unordered pair and exposed from either
/// side's perspective: balance(a, b) > 0 means b owes a (a has been a net
/// provider to b). The mirror invariant balance(a,b) == -balance(b,a) holds
/// by construction and is asserted in tests.
class SwapNetwork {
 public:
  SwapNetwork(std::size_t node_count, SwapConfig config);

  /// Records that `provider` served `amount` worth of bandwidth to
  /// `consumer`. If `can_settle` and the consumer's debt reaches the
  /// payment threshold, an automatic settlement is recorded (crypto
  /// payment) and the balance cleared. With `can_settle == false` the debt
  /// only accrues — the paper's relay behaviour ("wait for time-based
  /// amortization for other requests") and the free-rider model. If the
  /// debt would exceed the disconnect threshold without a settlement, the
  /// service is refused and kDisconnected returned with no balance change.
  DebitResult debit(NodeIndex consumer, NodeIndex provider, Token amount,
                    bool can_settle = true);

  /// Immediate payment outside threshold logic: consumer pays provider
  /// `amount` (the paper's default behaviour for zero-proximity requests:
  /// "use paid settlement for the requests generated by the originator
  /// itself"). Recorded as a settlement and as provider income.
  void pay_direct(NodeIndex consumer, NodeIndex provider, Token amount);

  /// Credits protocol-minted income to `node` without a paying
  /// counter-party (used by subsidy-style reward schemes such as the
  /// effort-based baseline).
  void mint(NodeIndex node, Token amount);

  /// `provider`'s view of its balance with `peer`: positive = peer owes
  /// provider.
  [[nodiscard]] Token balance(NodeIndex provider, NodeIndex peer) const;

  /// Applies one tick of time-based amortization to every active balance:
  /// each moves `amortization_per_tick` toward zero. Returns the number of
  /// balances that reached exactly zero this tick.
  std::size_t amortize_tick();

  /// Advances the logical clock without amortizing (when amortization is
  /// disabled but settlement timestamps still matter).
  void advance_tick() noexcept { ++tick_; }

  /// Returns to the freshly-constructed state (no balances, zero
  /// income/spent, empty settlement log, tick 0) without reallocating the
  /// per-node vectors — the cheap between-epoch rewind of core's
  /// Simulation::reset.
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

  /// Full settlement log, in order (fold_settlements() compares it with a
  /// Ledger's).
  [[nodiscard]] const std::vector<Settlement>& settlements() const noexcept {
    return settlements_;
  }

  /// Sum of |balance| over all pairs — outstanding unsettled debt, i.e.
  /// bandwidth provided that produced no income (yet). The §V overhead
  /// extension reports this.
  [[nodiscard]] Token outstanding_debt() const;

  /// Number of peer pairs with a nonzero balance. Pairs whose debt was
  /// settled, amortized, or cancelled back to exactly zero are not active:
  /// the map keeps an entry iff the balance is nonzero (refused debits
  /// never create an entry), so this is exactly the map size.
  [[nodiscard]] std::size_t active_pairs() const noexcept {
    return balances_.size();
  }

  /// Visits every pair with a nonzero balance as (low_node, high_node,
  /// balance_from_low's perspective), in ascending (lo, hi) order — the
  /// canonical pair order shared with Ledger::for_each_pair, so both
  /// ledgers enumerate identically.
  void for_each_pair(
      const std::function<void(NodeIndex, NodeIndex, Token)>& fn) const;

  /// Estimated heap bytes held by the balance map (buckets + nodes) plus
  /// the income/spent/settlement vectors — the memory cost bench_scale
  /// compares against the Ledger's arena.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  // Key for the unordered pair (lo, hi), lo < hi. Packing both halves into
  // 64 bits only works while NodeIndex fits in 32; accounting::Ledger
  // avoids packed keys entirely.
  static_assert(sizeof(NodeIndex) <= 4,
                "pair_key packs two NodeIndex values into 64 bits");
  [[nodiscard]] static std::uint64_t pair_key(NodeIndex lo,
                                              NodeIndex hi) noexcept {
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  /// Balance from the perspective of the lower-indexed node: positive =
  /// higher-indexed node owes the lower-indexed node. Invariant: an entry
  /// exists iff its balance is nonzero.
  // fairswap-lint: allow(unordered-container) -- hot per-debit lookup;
  // enumeration goes through ordered_items (for_each_pair) or is an
  // order-independent sum/amortization (justified at each site).
  std::unordered_map<std::uint64_t, Token> balances_;

  SwapConfig config_;
  std::vector<Token> income_;
  std::vector<Token> spent_;
  std::vector<Settlement> settlements_;
  std::uint64_t tick_{0};
};

/// Folds a full settlement log through the same SettlementLog::add that
/// accounting::Ledger runs per payment, so the oracle's vector compares
/// against a Ledger's count and digest.
[[nodiscard]] inline SettlementLog fold_settlements(
    const std::vector<Settlement>& log) {
  SettlementLog folded;
  for (const Settlement& s : log) folded.add(s);
  return folded;
}

}  // namespace fairswap::accounting
