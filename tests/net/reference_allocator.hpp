// A progressive-filling max-min allocator that keeps no state between
// calls: every allocate() re-gathers the links of all active flows, sorts
// them, and rescans every unfrozen flow's links in each water-filling
// round. It is the test oracle FairShareNetwork must match bit for bit
// (flow_allocator_test.cpp); nothing outside tests/ links it.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/flow.hpp"

namespace fairswap::net {

/// Same contract and arithmetic as FairShareNetwork, re-solved from
/// scratch on every allocate().
class ReferenceFairShareNetwork {
 public:
  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

  LinkId add_link(double capacity);
  FlowId add_flow(std::span<const LinkId> links, double rate_cap = kUncapped);
  void remove_flow(FlowId flow);
  void allocate();
  void clear_flows();

  [[nodiscard]] double rate(FlowId flow) const { return flows_[flow].rate; }
  [[nodiscard]] bool is_active(FlowId flow) const {
    return flow < flows_.size() && flows_[flow].active;
  }
  [[nodiscard]] const std::vector<FlowId>& active_flows() const noexcept {
    return active_;
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return capacity_.size();
  }
  [[nodiscard]] bool link_saturated(LinkId link) const {
    return stamp_[link] == epoch_ && saturated_[link] != 0;
  }
  [[nodiscard]] std::size_t ever_saturated_count() const noexcept {
    return ever_saturated_count_;
  }

 private:
  struct Flow {
    std::vector<LinkId> links;  ///< sorted, unique
    double cap{kUncapped};
    double rate{0.0};
    bool active{false};
  };

  std::vector<double> capacity_;
  std::vector<Flow> flows_;
  std::vector<FlowId> free_slots_;
  std::vector<FlowId> active_;  ///< sorted ascending

  std::vector<double> residual_;
  std::vector<std::uint32_t> load_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint8_t> saturated_;
  std::vector<std::uint8_t> ever_saturated_;
  std::vector<LinkId> touched_;
  std::vector<std::uint8_t> frozen_;  ///< parallel to active_
  std::uint32_t epoch_{0};
  std::size_t ever_saturated_count_{0};
};

}  // namespace fairswap::net
