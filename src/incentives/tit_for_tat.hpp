// BitTorrent-style tit-for-tat — the token-free baseline (paper §I):
//
//   "BitTorrent ... incentivizes bandwidth contributions with a tit-for-tat
//    mechanism. Such mechanisms ensure that peers receive fair rewards with
//    respect to their contribution and prevent free riding. However, since
//    rewards are only given as access to the service, peers are not
//    incentivized to share resources when they are not using the system
//    themselves."
//
// Model: each directed peer pair keeps a service balance in chunks. A
// provider serves a consumer only while the consumer's deficit (chunks
// taken minus chunks given back) stays within `allowance` — BitTorrent's
// unchoke allowance. No tokens move, so token income is identically zero;
// the "reward" is continued access, which the fairness benches measure via
// the served/refused counters.
#pragma once

#include <unordered_map>

#include "incentives/policy.hpp"

namespace fairswap::incentives {

class TitForTatPolicy final : public PaymentPolicy {
 public:
  /// `allowance` = how many chunks a peer may be in deficit before being
  /// choked (BitTorrent's optimistic-unchoke slack).
  explicit TitForTatPolicy(std::int64_t allowance = 8) noexcept
      : allowance_(allowance) {}

  [[nodiscard]] std::string name() const override { return "tit-for-tat"; }

  /// Chokes the delivery if any provider on the route has the preceding
  /// node beyond its deficit allowance.
  bool admit(PolicyContext& ctx, const Route& route) override;

  void on_delivery(PolicyContext& ctx, const Route& route) override;

  /// Forgets all service balances and the choke counter (epoch rewind).
  void reset() override;

  /// Net chunks `a` owes `b` (positive = a consumed more from b than it
  /// returned).
  [[nodiscard]] std::int64_t deficit(NodeIndex a, NodeIndex b) const;

  [[nodiscard]] std::uint64_t choked_deliveries() const noexcept {
    return choked_;
  }

 private:
  // Packing two NodeIndex values into one key: guard the width.
  static_assert(sizeof(NodeIndex) <= 4,
                "key packs two NodeIndex values into 64 bits");
  [[nodiscard]] static std::uint64_t key(NodeIndex a, NodeIndex b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  std::int64_t allowance_;
  // Net chunks the lower-indexed node owes the higher-indexed node.
  // fairswap-lint: allow(unordered-container) -- per-pair lookup in the
  // choke decision only, never enumerated.
  std::unordered_map<std::uint64_t, std::int64_t> balance_;
  std::uint64_t choked_{0};
};

}  // namespace fairswap::incentives
