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
// outcomes, settlement records and the constant-memory settlement log. The
// ledger itself is accounting/ledger.hpp.
#pragma once

#include <cstddef>
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

/// A settlement sequence in constant memory: how many settlements were
/// made, and an order-sensitive 64-bit digest over each one's debtor,
/// creditor, amount and tick. Runs report only the count; the digest lets
/// the equivalence tests compare two whole sequences without a log.
///
/// Each record is hashed on its own. Its position, debtor and creditor,
/// each times a distinct odd constant, are summed and mixed; amount and
/// tick are weighted and summed likewise; the two sums are combined and
/// mixed again. The digest is the sum of the record hashes, so the one
/// dependency from record to record is an add, and the position makes the
/// sum order-sensitive. Every step is a bijection of each input with the
/// others held fixed (odd multipliers and the mixer are invertible mod
/// 2^64), so changing any single field of any record changes the digest.
class SettlementLog {
 public:
  void add(const Settlement& s) noexcept {
    const std::uint64_t who = mix(count_ * 0x9E3779B97F4A7C15ULL +
                                  s.debtor * 0xC2B2AE3D27D4EB4FULL +
                                  s.creditor * 0x165667B19E3779F9ULL);
    const std::uint64_t what =
        static_cast<std::uint64_t>(s.amount.base_units()) *
            0xD6E8FEB86659FD93ULL +
        s.tick * 0xFF51AFD7ED558CCDULL;
    digest_ += mix(who ^ what);
    ++count_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  friend bool operator==(const SettlementLog&, const SettlementLog&) = default;

 private:
  /// SplitMix64's finalizer: a bijection with full avalanche.
  static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  std::size_t count_{0};
  std::uint64_t digest_{0};
};

}  // namespace fairswap::accounting
