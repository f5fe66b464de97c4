// Payment policies: who pays whom, and how much, when a chunk is routed.
//
// The paper evaluates Swarm's default behaviour — only the zero-proximity
// node is paid, everything else waits for time-based amortization — and
// §II/§V motivate comparing against other reward schemes. The policy
// interface decouples "a chunk moved along this route" from "money moved",
// so the simulator can swap in the BitTorrent-style and effort-based
// baselines without touching routing or accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accounting/ledger.hpp"
#include "accounting/pricing.hpp"
#include "overlay/forwarding.hpp"
#include "overlay/topology.hpp"

namespace fairswap::incentives {

using accounting::Ledger;
using accounting::Pricer;
using overlay::NodeIndex;
using overlay::Route;
using overlay::Topology;

/// Everything a policy may consult or mutate when reacting to a delivery.
struct PolicyContext {
  const Topology* topo{nullptr};
  /// The SWAP ledger (accounting/ledger.hpp). Policies pass
  /// Route::edge(i) hints so it resolves balance slots with one load
  /// instead of scanning.
  Ledger* swap{nullptr};
  const Pricer* pricer{nullptr};
  /// Per-node flag: free riders consume service but never issue payments
  /// (the §V misbehaviour extension). Empty = no free riders.
  const std::vector<std::uint8_t>* free_rider{nullptr};
  /// Per-node flag: nodes that refuse to serve or relay chunks — the
  /// strategic free-ride behavior of src/agents, injected through
  /// core::Simulation::set_behavior. Empty (the default for classic runs)
  /// = every node serves.
  const std::vector<std::uint8_t>* refuses_service{nullptr};

  [[nodiscard]] bool is_free_rider(NodeIndex n) const noexcept {
    return free_rider && !free_rider->empty() && (*free_rider)[n] != 0;
  }

  [[nodiscard]] bool refuses(NodeIndex n) const noexcept {
    return refuses_service && !refuses_service->empty() &&
           (*refuses_service)[n] != 0;
  }

  /// Where the chunk dies: walking the path in the direction the *data*
  /// flows — from the terminal (path.back(), the storer or cache hit)
  /// toward the originator for a download, from the originator toward
  /// the storer for an upload — the position of the first node that
  /// refuses to serve. Positions are path indices in
  /// [1, path.size()-1]; 0 means nobody refuses (the originator is the
  /// consumer — its behavior never blocks its own transfer). The nodes
  /// the chunk passed *before* the refusal point already handled it;
  /// the simulation counts those serves even though the transfer fails.
  [[nodiscard]] std::size_t first_refusing_server(
      const Route& route, bool is_upload) const noexcept {
    if (!refuses_service || refuses_service->empty()) return 0;
    if (is_upload) {
      for (std::size_t i = 1; i < route.path.size(); ++i) {
        if ((*refuses_service)[route.path[i]] != 0) return i;
      }
      return 0;
    }
    for (std::size_t i = route.path.size(); i-- > 1;) {
      if ((*refuses_service)[route.path[i]] != 0) return i;
    }
    return 0;
  }

  /// Price for `payee` delivering the chunk at `chunk`.
  [[nodiscard]] Token price(NodeIndex payee, Address chunk) const {
    return pricer->price(topo->space(), topo->address_of(payee), chunk);
  }
};

/// Strategy interface invoked by core::Simulation.
class PaymentPolicy {
 public:
  virtual ~PaymentPolicy() = default;

  /// Identifier used in reports ("zero-proximity", "per-hop-swap", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Called before the chunk is served. Returning false refuses the
  /// delivery (the chunk does not move and on_delivery is not called) —
  /// how tit-for-tat choking and SWAP disconnection manifest. Strategic
  /// service refusal (ctx.first_refusing_server) is applied by the
  /// simulation before admit, with partial-transmission accounting;
  /// overrides chain to the base implementation so future shared
  /// behavior hooks apply to every policy.
  virtual bool admit(PolicyContext& ctx, const Route& route);

  /// Called after a successful delivery along `route` (route.path.front()
  /// is the originator; the last entry served the chunk).
  virtual void on_delivery(PolicyContext& ctx, const Route& route) = 0;

  /// Called once at the end of every simulation step (one file download).
  virtual void on_step_end(PolicyContext& ctx);

  /// Drops any accumulated per-run state (tit-for-tat service balances,
  /// choke counters, ...) so the policy starts the next epoch fresh —
  /// part of core::Simulation::reset's contract that a post-reset run is
  /// bit-identical to a fresh construction. Stateless policies inherit
  /// the no-op default.
  virtual void reset();
};

/// Factory by name: "zero-proximity", "per-hop-swap", "tit-for-tat",
/// "effort-based", "none" (the incentive-ablated network: chunks move,
/// no accounting at all). Unknown names return nullptr.
[[nodiscard]] std::unique_ptr<PaymentPolicy> make_policy(
    const std::string& name);

}  // namespace fairswap::incentives
