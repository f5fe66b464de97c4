#include "incentives/effort_based.hpp"

#include <numeric>

namespace fairswap::incentives {

EffortBasedPolicy::EffortBasedPolicy(std::vector<double> offered_capacity,
                                     Token pool_per_step)
    : capacity_(std::move(offered_capacity)), pool_per_step_(pool_per_step) {
  capacity_total_ = std::accumulate(capacity_.begin(), capacity_.end(), 0.0);
}

void EffortBasedPolicy::on_delivery(PolicyContext& ctx, const Route& route) {
  for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
    (void)ctx.swap->debit(route.path[i], route.path[i + 1],
                          ctx.price(route.path[i + 1], route.target),
                          /*can_settle=*/false, route.edge(i));
  }
}

void EffortBasedPolicy::on_step_end(PolicyContext& ctx) {
  const std::size_t n = ctx.topo->node_count();
  if (capacity_.empty()) {
    capacity_.assign(n, 1.0);
    capacity_total_ = static_cast<double>(n);
  }
  if (capacity_total_ <= 0.0) return;
  // The pool is minted (protocol subsidy), not moved between peers, so
  // income is credited without a paying counter-party. We model the payer
  // as the node itself paying 0; the ledger exposes income directly.
  for (NodeIndex i = 0; i < n; ++i) {
    const double share = capacity_[i] / capacity_total_;
    const auto amount = Token(static_cast<Token::rep>(
        static_cast<double>(pool_per_step_.base_units()) * share));
    if (amount.is_zero()) continue;
    // Credit income via a settlement from a virtual treasury: reuse
    // pay_direct with the receiving node as its own payer would distort
    // `spent`; Ledger::mint exists for exactly this.
    ctx.swap->mint(i, amount);
  }
}

}  // namespace fairswap::incentives
