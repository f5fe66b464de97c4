// SWAP — the Swarm Accounting Protocol (paper §III-B, Fig. 2).
//
// Every connected pair of peers keeps a mirror-consistent relative balance
// of bandwidth provided vs consumed, in accounting units. Within balance
// limits the pair trades service for service. When one side's debt reaches
// the *payment threshold*, the debtor settles (sends crypto-assets, here a
// cheque); if debt ever exceeds the *disconnect threshold*, the creditor
// stops serving the peer. Independently, all balances gravitate to zero
// through *time-based amortization*, which is what lets anybody use Swarm
// slowly for free.
//
// This header holds the protocol's vocabulary — its parameters, debit
// outcomes and settlement records. The ledger itself is
// accounting/ledger.hpp.
#pragma once

#include <cstdint>

#include "common/token.hpp"
#include "overlay/topology.hpp"

namespace fairswap::accounting {

using overlay::NodeIndex;

/// SWAP parameters. Units are abstract accounting units (Token base
/// units); thresholds mirror bee's paymentThreshold / disconnectThreshold.
struct SwapConfig {
  /// Debt level at which the debtor must settle.
  Token payment_threshold{Token(100'000)};
  /// Debt level at which the creditor refuses further service. Must be
  /// >= payment_threshold (bee uses payment + tolerance).
  Token disconnect_threshold{Token(150'000)};
  /// Accounting units forgiven per peer-pair per time tick — the
  /// time-based amortization that "allows anybody to request content from
  /// Swarm for free, albeit at a slow rate".
  Token amortization_per_tick{Token(0)};
};

/// Result of attempting to debit a peer relationship.
enum class DebitResult {
  kOk,            ///< service accounted within limits
  kSettled,       ///< accounted; payment threshold crossed -> settlement issued
  kDisconnected,  ///< refused: debt would exceed the disconnect threshold
};

/// A settlement event (debtor paid creditor `amount`).
struct Settlement {
  NodeIndex debtor{0};
  NodeIndex creditor{0};
  Token amount;
  std::uint64_t tick{0};

  friend bool operator==(const Settlement&, const Settlement&) = default;
};

}  // namespace fairswap::accounting
