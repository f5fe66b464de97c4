#include "accounting/ledger.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace fairswap::accounting {

Ledger::Ledger(const overlay::CompiledRouter& router, SwapConfig config)
    : router_(&router),
      config_(config),
      edge_slot_(router.edge_pairs().data()),
      pair_lo_(router.pair_lo().data()),
      pair_hi_(router.pair_hi().data()),
      pair_balance_(router.pair_count(), Token(0)),
      pair_active_pos_(router.pair_count(), kInactive),
      income_(router.node_count()),
      spent_(router.node_count()) {
  if (config.disconnect_threshold < config.payment_threshold) {
    throw std::invalid_argument(
        "Ledger: disconnect_threshold must be >= payment_threshold");
  }
}

std::uint32_t Ledger::slot_of(NodeIndex a, NodeIndex b) const noexcept {
  for (const NodeIndex from : {a, b}) {
    const NodeIndex to = from == a ? b : a;
    const auto [begin, end] = router_->node_edge_range(from);
    for (EdgeId e = begin; e < end; ++e) {
      if (router_->edge_target(e) == to) return edge_slot_[e];
    }
  }
  return kNoSlot;
}

DebitResult Ledger::apply_debit(NodeIndex consumer, NodeIndex provider,
                                Token amount, bool can_settle, EdgeId edge) {
  assert(consumer != provider);
  assert(!amount.negative());
  assert(edge == kNoEdge || router_->edge_target(edge) == provider);
  const std::uint32_t slot =
      edge != kNoEdge ? edge_slot_[edge] : slot_of(consumer, provider);
  if (slot == kNoSlot) {
    throw std::invalid_argument(
        "Ledger::debit: node pair shares no routing-table edge");
  }

  Token& bal = pair_balance_[slot];
  const bool provider_is_lo = (pair_lo_[slot] == provider);
  const Token provider_credit = provider_is_lo ? bal : -bal;
  const Token new_credit = provider_credit + amount;

  if (new_credit > config_.disconnect_threshold &&
      !(can_settle && new_credit >= config_.payment_threshold)) {
    return DebitResult::kDisconnected;
  }

  if (can_settle && new_credit >= config_.payment_threshold) {
    income_[provider] += new_credit;
    spent_[consumer] += new_credit;
    settlements_.add({consumer, provider, new_credit, tick_});
    if (!bal.is_zero()) {
      bal = Token(0);
      deactivate(slot);
    }
    return DebitResult::kSettled;
  }

  const Token new_bal = provider_is_lo ? new_credit : -new_credit;
  if (bal.is_zero() != new_bal.is_zero()) {
    if (new_bal.is_zero()) {
      deactivate(slot);
    } else {
      activate(slot);
    }
  }
  bal = new_bal;
  return DebitResult::kOk;
}

void Ledger::pay_direct(NodeIndex consumer, NodeIndex provider, Token amount) {
  assert(consumer != provider);
  assert(!amount.negative());
  income_[provider] += amount;
  spent_[consumer] += amount;
  settlements_.add({consumer, provider, amount, tick_});
}

void Ledger::mint(NodeIndex node, Token amount) {
  assert(!amount.negative());
  income_[node] += amount;
}

Token Ledger::balance(NodeIndex provider, NodeIndex peer, EdgeId edge) const {
  const std::uint32_t slot =
      edge != kNoEdge ? edge_slot_[edge] : slot_of(provider, peer);
  if (slot == kNoSlot) return Token(0);
  assert(pair_lo_[slot] == provider || pair_hi_[slot] == provider);
  const Token bal = pair_balance_[slot];
  return pair_lo_[slot] == provider ? bal : -bal;
}

void Ledger::reset() {
  // Only the live slots carry state: zero them through the active list
  // instead of sweeping the whole arena.
  for (const std::uint32_t slot : active_) {
    pair_balance_[slot] = Token(0);
    pair_active_pos_[slot] = kInactive;
  }
  active_.clear();
  std::fill(income_.begin(), income_.end(), Token(0));
  std::fill(spent_.begin(), spent_.end(), Token(0));
  settlements_ = SettlementLog{};
  tick_ = 0;
}

std::size_t Ledger::amortize_tick() {
  if (counters_ != nullptr) {
    counters_->bump(telemetry::Counter::kAmortizeTicks);
  }
  ++tick_;
  const Token step = config_.amortization_per_tick;
  if (step.is_zero()) return 0;
  std::size_t zeroed = 0;
  // Swap-with-last removal fills position i with a not-yet-visited slot,
  // so i only advances when the slot at i survives.
  for (std::size_t i = 0; i < active_.size();) {
    const std::uint32_t slot = active_[i];
    Token& bal = pair_balance_[slot];
    if (bal.abs() <= step) {
      bal = Token(0);
      ++zeroed;
      deactivate(slot);
    } else {
      bal += bal.negative() ? step : -step;
      ++i;
    }
  }
  return zeroed;
}

Token Ledger::outstanding_debt() const {
  Token total;
  for (const std::uint32_t slot : active_) total += pair_balance_[slot].abs();
  return total;
}

void Ledger::for_each_pair(
    const std::function<void(NodeIndex, NodeIndex, Token)>& fn) const {
  // The active list reorders on swap-with-last removal, so its raw order
  // depends on debit/settle history. Sort the live slots by (lo, hi) —
  // slots are allocated in ascending (lo, hi) arena order, so sorting the
  // slot ids is exactly canonical pair order.
  std::vector<std::uint32_t> slots(active_.begin(), active_.end());
  std::sort(slots.begin(), slots.end());
  for (const std::uint32_t slot : slots) {
    fn(pair_lo_[slot], pair_hi_[slot], pair_balance_[slot]);
  }
}

std::size_t Ledger::memory_bytes() const noexcept {
  return pair_balance_.size() * sizeof(Token) +
         pair_active_pos_.size() * sizeof(std::uint32_t) +
         active_.capacity() * sizeof(std::uint32_t) +
         income_.size() * sizeof(Token) + spent_.size() * sizeof(Token);
}

}  // namespace fairswap::accounting
