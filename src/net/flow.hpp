// Max-min fair bandwidth sharing over capacity links — the flow-level
// counterpart of the counter-based Simulation ("make time and congestion
// real", ROADMAP).
//
// FairShareNetwork holds a fixed set of capacity links and a changing set
// of flows, each flow crossing a subset of the links. allocate() computes
// the max-min fair rate vector by progressive filling (water-filling):
// every unfrozen flow's rate rises uniformly until some link saturates or
// some flow hits its own rate cap; flows bottlenecked there freeze at the
// current water level and the rest keep rising.
//
// Every allocate() solves exactly, from the current flow set. What makes
// it cheap is the state kept between calls: add_flow/remove_flow maintain
// per-link active-flow counts and a live-link bitmap, so a call lays out
// the link->flow incidence as one CSR array straight from those counts,
// with no gather and no sort. Each round then freezes only the flows on
// the links it just saturated (plus capped flows), and a link whose load
// reaches zero drops out of the live list. The implementation is careful
// to be *insertion-order invariant at full floating-point precision*: all
// per-link arithmetic runs over aggregate loads (integer flow counts),
// links are visited in ascending id order, and bottlenecks are detected
// by exact identity with the computed water-level increment rather than
// epsilon comparisons — two networks holding the same flow set allocate
// bit-identical rates regardless of the order the flows were added. A
// rescan-everything progressive-filling allocator is kept as the test
// oracle (tests/net/reference_allocator.hpp): flow_allocator_test.cpp
// drives both through random churn and demands identical rates and
// saturation flags.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace fairswap::net {

/// Simulated time in abstract ticks.
using SimTime = std::uint64_t;

/// The latest representable time: "no horizon".
inline constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/// Index of a capacity link inside a FairShareNetwork.
using LinkId = std::uint32_t;

/// Slot index of a flow inside a FairShareNetwork. Slots are recycled
/// after remove_flow; FlowSimulator tells a slot's flows apart by the seq
/// of each one's timeout.
using FlowId = std::uint32_t;

/// Flow-level simulation parameters (SimulationConfig::flow).
struct FlowConfig {
  /// Capacity of each overlay routing-table edge, in chunks per tick.
  double link_capacity{0.05};
  /// Per-node uplink / downlink capacity in chunks per tick; 0 selects
  /// the default of 4x link_capacity (a node serves several table edges).
  double up_capacity{0.0};
  double down_capacity{0.0};
  /// Ticks between consecutive file arrivals (file i arrives at time
  /// i * interarrival).
  SimTime interarrival{50};
  /// Flows still unfinished this many ticks after start are abandoned and
  /// counted as timed out; 0 disables timeouts. A deadline past the end of
  /// the tick clock saturates at kForever. Timeouts are a temporal
  /// statistic only — accounting already happened at request time.
  SimTime timeout{0};
  /// Record flow-completion times in a bounded-memory percentile sketch
  /// (common/stream_stats, relative error <= 1/(2*64)) instead of the
  /// exact per-flow sample vector. Off by default so existing runs keep
  /// exact percentiles; heavy-traffic runs switch it on so FCT memory is
  /// O(occupied bins), not O(completed flows). The mean stays exact
  /// either way (integer tick sum).
  bool bounded_fct{false};

  friend bool operator==(const FlowConfig&, const FlowConfig&) = default;
};

/// A set of dense slot indices as a bitmap: O(1) insert and erase,
/// iterated in ascending order.
class SlotSet {
 public:
  class Iterator {
   public:
    Iterator(const std::uint64_t* words, std::size_t word, std::size_t end)
        : words_(words), word_(word), end_(end) {
      if (word_ < end_) bits_ = words_[word_];
      skip_empty();
    }
    std::uint32_t operator*() const {
      return static_cast<std::uint32_t>(word_ * 64 + std::countr_zero(bits_));
    }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      skip_empty();
      return *this;
    }
    bool operator==(const Iterator& o) const {
      return word_ == o.word_ && bits_ == o.bits_;
    }

   private:
    void skip_empty() {
      while (bits_ == 0 && ++word_ < end_) bits_ = words_[word_];
      if (bits_ == 0) word_ = end_;
    }
    const std::uint64_t* words_;
    std::size_t word_;
    std::size_t end_;
    std::uint64_t bits_{0};
  };

  void insert(std::uint32_t slot) {
    if (slot / 64 >= words_.size()) words_.resize(slot / 64 + 1, 0);
    words_[slot / 64] |= bit(slot);
    ++size_;
  }
  void erase(std::uint32_t slot) {
    words_[slot / 64] &= ~bit(slot);
    --size_;
  }
  void clear() {
    words_.clear();
    size_ = 0;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] Iterator begin() const {
    return {words_.data(), 0, words_.size()};
  }
  [[nodiscard]] Iterator end() const {
    return {words_.data(), words_.size(), words_.size()};
  }

 private:
  static std::uint64_t bit(std::uint32_t slot) {
    return std::uint64_t{1} << (slot % 64);
  }
  std::vector<std::uint64_t> words_;
  std::size_t size_{0};
};

/// Capacity links + active flows + the max-min fair allocator.
class FairShareNetwork {
 public:
  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

  /// Adds a link of the given capacity (>= 0) and returns its id. Links
  /// are never removed.
  LinkId add_link(double capacity);

  /// Adds a flow crossing `links` (duplicates are deduplicated), with an
  /// optional per-flow rate cap. A flow must cross at least one link or
  /// carry a finite cap, otherwise no bottleneck could ever freeze it.
  /// Returns the flow's slot id. The new flow's rate is 0 until the next
  /// allocate().
  FlowId add_flow(std::span<const LinkId> links, double rate_cap = kUncapped);

  /// Removes an active flow; its slot is recycled by a later add_flow.
  void remove_flow(FlowId flow);

  /// Recomputes the max-min fair rate of every active flow.
  void allocate();

  /// Drops all flows and clears saturation history; links stay.
  void clear_flows();

  [[nodiscard]] double rate(FlowId flow) const { return flows_[flow].rate; }
  [[nodiscard]] bool is_active(FlowId flow) const {
    return flow < flows_.size() && flows_[flow].active;
  }
  [[nodiscard]] const std::vector<LinkId>& flow_links(FlowId flow) const {
    return flows_[flow].links;
  }
  /// Active flow slots, iterated in ascending order — the canonical
  /// iteration order everything deterministic hangs off.
  [[nodiscard]] const SlotSet& active_flows() const noexcept {
    return active_;
  }

  [[nodiscard]] std::size_t link_count() const noexcept {
    return capacity_.size();
  }
  [[nodiscard]] double link_capacity(LinkId link) const {
    return capacity_[link];
  }
  /// True if `link` was a binding bottleneck in the last allocate(). The
  /// epoch stamp guards against stale state: a link whose flows had all
  /// been removed before that call is not saturated, it is idle.
  [[nodiscard]] bool link_saturated(LinkId link) const {
    return stamp_[link] == epoch_ && saturated_[link] != 0;
  }
  /// Number of links that were saturated in *any* allocate() since the
  /// last clear_flows() — the congestion-footprint statistic.
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

  /// Settles `flow` at `rate` and takes it off its links' loads.
  void freeze(FlowId flow, double rate);

  std::vector<double> capacity_;
  std::vector<Flow> flows_;
  std::vector<FlowId> free_slots_;
  SlotSet active_;
  /// Per link: active flows crossing it. live_links_ holds exactly the
  /// links where this is nonzero.
  std::vector<std::uint32_t> crossing_;
  SlotSet live_links_;
  /// Per link: when stamp_ == epoch_, the link was live in the last
  /// allocate(), saturated_ is its verdict there and dense_ its position.
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint8_t> saturated_;
  std::vector<std::uint8_t> ever_saturated_;
  std::vector<std::uint32_t> dense_;

  // allocate() scratch, reused across calls. Working state is indexed by
  // dense position i, the rank of link_[i] among the live links, so the
  // rounds scan small contiguous arrays.
  std::vector<LinkId> link_;
  std::vector<double> residual_;
  std::vector<std::uint32_t> load_;     ///< unfrozen flows crossing
  /// CSR link -> flows: position i owns incidence_[csr_end_[i-1],
  /// csr_end_[i]), flows in ascending slot order.
  std::vector<std::uint32_t> csr_end_;
  std::vector<FlowId> incidence_;
  std::vector<std::uint32_t> loaded_;   ///< positions with load > 0
  std::vector<double> share_;           ///< parallel to loaded_
  std::vector<std::uint32_t> just_saturated_;
  std::vector<FlowId> capped_;          ///< unfrozen flows with a cap
  std::vector<std::uint8_t> frozen_;    ///< per flow slot
  std::size_t unfrozen_{0};
  std::uint32_t epoch_{0};
  std::size_t ever_saturated_count_{0};
};

}  // namespace fairswap::net
