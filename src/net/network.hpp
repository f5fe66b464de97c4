// Message-level retrieval simulation over the discrete-event queue.
//
// Every node is a small protocol actor: on a retrieve request it answers
// from its store (it is the storer, or holds a cached copy), else
// forwards to its closest known peer and remembers the upstream hop; on a
// chunk delivery it relays downstream. The Network schedules message
// arrivals through the LatencyModel, so concurrent retrievals interleave
// exactly as they would on a real wire.
//
// Invariant checked by tests: with uniform latencies and no concurrency
// effects modelled beyond ordering, the path a retrieval takes equals the
// path the step-based greedy walk computes — the two simulators are the
// same protocol at different granularity.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "engine/event_queue.hpp"
#include "net/link.hpp"
#include "net/message.hpp"
#include "overlay/topology.hpp"

namespace fairswap::net {

/// Completion record of one retrieval.
struct RetrievalResult {
  bool success{false};
  std::uint64_t request_id{0};
  Address chunk{};
  NodeIndex originator{0};
  /// Nodes the request traversed, originator first, server last (valid
  /// when success).
  std::vector<NodeIndex> path;
  /// Time from issue to chunk arrival at the originator.
  engine::SimTime latency{0};
};

/// Per-node traffic counters (message granularity).
struct NodeTraffic {
  std::uint64_t requests_received{0};
  std::uint64_t chunks_sent{0};       ///< deliveries transmitted downstream
  std::uint64_t requests_forwarded{0};
  std::uint64_t serves{0};            ///< answered from own store/cache
};

/// Network-level configuration.
struct NetworkConfig {
  LatencyConfig latency{};
};

/// The message-level simulator. Holds no payment logic — callers apply a
/// PaymentPolicy to completed RetrievalResults if they want accounting
/// (see bench_latency / net tests).
class Network {
 public:
  using Callback = std::function<void(const RetrievalResult&)>;

  Network(const overlay::Topology& topo, NetworkConfig config);

  /// Issues a retrieval from `origin` for `chunk` at the current simulated
  /// time. The callback fires when the chunk (or a failure) reaches the
  /// originator. Returns the request id.
  std::uint64_t retrieve(NodeIndex origin, Address chunk, Callback on_done);

  /// Runs the event loop until idle; returns the number of events fired.
  std::size_t run();

  /// Runs until the given simulated time.
  std::size_t run_until(engine::SimTime until);

  [[nodiscard]] engine::SimTime now() const noexcept { return queue_.now(); }
  [[nodiscard]] const std::vector<NodeTraffic>& traffic() const noexcept {
    return traffic_;
  }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return messages_;
  }
  [[nodiscard]] const overlay::Topology& topology() const noexcept {
    return *topo_;
  }

 private:
  struct PendingRequest {
    NodeIndex upstream;   ///< who to send the chunk back to
    NodeIndex originator; ///< only meaningful on the originator's own entry
  };
  struct RequestState {
    NodeIndex originator;
    Address chunk;
    engine::SimTime issued_at;
    Callback on_done;
    std::vector<NodeIndex> path;  ///< request path, filled hop by hop
  };

  void send(Message msg);
  void handle(const Message& msg);
  void handle_request(const Message& msg);
  void handle_delivery(const Message& msg);
  void handle_fail(const Message& msg);
  void complete(std::uint64_t request_id, bool success);

  const overlay::Topology* topo_;
  NetworkConfig config_;
  LatencyModel latency_;
  engine::EventQueue queue_;
  std::vector<NodeTraffic> traffic_;
  std::uint64_t messages_{0};
  std::uint64_t next_request_id_{1};

  /// request_id -> origination state (lives until completion).
  // fairswap-lint: allow(unordered-container) -- request-id lookup on
  // message delivery only, never enumerated.
  std::unordered_map<std::uint64_t, RequestState> requests_;
  /// (request_id, node) -> upstream hop, for backward chunk propagation.
  // fairswap-lint: allow(unordered-container) -- (request, node) lookup
  // while unwinding one delivery path, never enumerated.
  std::unordered_map<std::uint64_t, std::unordered_map<NodeIndex, NodeIndex>>
      pending_;
};

}  // namespace fairswap::net
