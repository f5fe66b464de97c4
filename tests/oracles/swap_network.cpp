#include "oracles/swap_network.hpp"

#include <algorithm>
#include <cassert>

#include "common/ordered.hpp"

namespace fairswap::accounting {

SwapNetwork::SwapNetwork(std::size_t node_count, SwapConfig config)
    : config_(config), income_(node_count), spent_(node_count) {
  assert(config.disconnect_threshold >= config.payment_threshold);
}

DebitResult SwapNetwork::debit(NodeIndex consumer, NodeIndex provider,
                               Token amount, bool can_settle) {
  assert(consumer != provider);
  assert(!amount.negative());
  const NodeIndex lo = consumer < provider ? consumer : provider;
  const NodeIndex hi = consumer < provider ? provider : consumer;
  // Look up before inserting: a refused debit must not materialize a
  // phantom zero-balance pair that active_pairs / amortize_tick /
  // for_each_pair would then scan forever.
  const std::uint64_t key = pair_key(lo, hi);
  const auto it = balances_.find(key);
  const Token bal = it != balances_.end() ? it->second : Token(0);

  // Normalize to the provider's perspective: provider_credit = how much
  // the consumer owes the provider after this service.
  const bool provider_is_lo = (provider == lo);
  const Token provider_credit = provider_is_lo ? bal : -bal;
  const Token new_credit = provider_credit + amount;

  if (new_credit > config_.disconnect_threshold &&
      !(can_settle && new_credit >= config_.payment_threshold)) {
    return DebitResult::kDisconnected;
  }

  if (can_settle && new_credit >= config_.payment_threshold) {
    // Debtor settles the full outstanding debt (bee pays down to zero).
    income_[provider] += new_credit;
    spent_[consumer] += new_credit;
    settlements_.push_back({consumer, provider, new_credit, tick_});
    if (it != balances_.end()) balances_.erase(it);
    return DebitResult::kSettled;
  }

  const Token new_bal = provider_is_lo ? new_credit : -new_credit;
  if (new_bal.is_zero()) {
    // Opposite service exactly cancelled the debt: drop the entry to keep
    // the entry-iff-nonzero invariant behind active_pairs().
    if (it != balances_.end()) balances_.erase(it);
  } else if (it != balances_.end()) {
    it->second = new_bal;
  } else {
    balances_.emplace(key, new_bal);
  }
  return DebitResult::kOk;
}

void SwapNetwork::pay_direct(NodeIndex consumer, NodeIndex provider,
                             Token amount) {
  assert(consumer != provider);
  assert(!amount.negative());
  income_[provider] += amount;
  spent_[consumer] += amount;
  settlements_.push_back({consumer, provider, amount, tick_});
}

void SwapNetwork::mint(NodeIndex node, Token amount) {
  assert(!amount.negative());
  income_[node] += amount;
}

Token SwapNetwork::balance(NodeIndex provider, NodeIndex peer) const {
  const NodeIndex lo = provider < peer ? provider : peer;
  const NodeIndex hi = provider < peer ? peer : provider;
  const auto it = balances_.find(pair_key(lo, hi));
  if (it == balances_.end()) return Token(0);
  return provider == lo ? it->second : -it->second;
}

void SwapNetwork::reset() {
  balances_.clear();
  std::fill(income_.begin(), income_.end(), Token(0));
  std::fill(spent_.begin(), spent_.end(), Token(0));
  settlements_.clear();
  tick_ = 0;
}

std::size_t SwapNetwork::amortize_tick() {
  ++tick_;
  const Token step = config_.amortization_per_tick;
  if (step.is_zero()) return 0;
  std::size_t zeroed = 0;
  // fairswap-lint: allow(unordered-iteration) -- every entry is amortized
  // independently toward zero; neither the balances nor the zeroed count
  // depend on visit order.
  for (auto it = balances_.begin(); it != balances_.end();) {
    Token& bal = it->second;
    if (bal.abs() <= step) {
      // Fully forgiven: erase rather than keep a dead zero entry, so
      // active_pairs() and the scans stay proportional to live pairs.
      ++zeroed;
      it = balances_.erase(it);
    } else {
      bal += bal.negative() ? step : -step;
      ++it;
    }
  }
  return zeroed;
}

Token SwapNetwork::outstanding_debt() const {
  Token total;
  // fairswap-lint: allow(unordered-iteration) -- integer sum; Token
  // addition is associative and commutative, so order cannot show.
  for (const auto& [key, bal] : balances_) total += bal.abs();
  return total;
}

std::size_t SwapNetwork::memory_bytes() const noexcept {
  // libstdc++-shaped estimate: one bucket pointer per bucket plus one
  // heap node (key, value, hash cache, next pointer) per entry.
  using MapNode = std::pair<const std::uint64_t, Token>;
  return balances_.bucket_count() * sizeof(void*) +
         balances_.size() * (sizeof(MapNode) + 2 * sizeof(void*)) +
         income_.size() * sizeof(Token) + spent_.size() * sizeof(Token) +
         settlements_.capacity() * sizeof(Settlement);
}

void SwapNetwork::for_each_pair(
    const std::function<void(NodeIndex, NodeIndex, Token)>& fn) const {
  // Canonical ascending (lo, hi) order: pair_key packs lo into the high
  // half, so sorting the packed keys is exactly lexicographic pair order.
  // Hash-bucket order would leak libstdc++ layout into every consumer
  // (reports, equivalence diffs), breaking run-to-run determinism.
  for (const auto& [key, bal] : common::ordered_items(balances_)) {
    const auto lo = static_cast<NodeIndex>(key >> 32);
    const auto hi = static_cast<NodeIndex>(key & 0xffffffffu);
    fn(lo, hi, bal);
  }
}

}  // namespace fairswap::accounting
