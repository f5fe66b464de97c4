#include "reference_allocator.hpp"

#include <algorithm>
#include <stdexcept>

namespace fairswap::net {

LinkId ReferenceFairShareNetwork::add_link(double capacity) {
  if (capacity < 0.0) throw std::invalid_argument("link capacity must be >= 0");
  const LinkId id = static_cast<LinkId>(capacity_.size());
  capacity_.push_back(capacity);
  residual_.push_back(0.0);
  load_.push_back(0);
  stamp_.push_back(0);
  saturated_.push_back(0);
  ever_saturated_.push_back(0);
  return id;
}

FlowId ReferenceFairShareNetwork::add_flow(std::span<const LinkId> links,
                                  double rate_cap) {
  if (links.empty() && rate_cap == kUncapped) {
    throw std::invalid_argument("a flow needs links or a finite rate cap");
  }
  FlowId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<FlowId>(flows_.size());
    flows_.emplace_back();
  }
  Flow& flow = flows_[id];
  flow.links.assign(links.begin(), links.end());
  std::sort(flow.links.begin(), flow.links.end());
  flow.links.erase(std::unique(flow.links.begin(), flow.links.end()),
                   flow.links.end());
  for (const LinkId l : flow.links) {
    if (l >= capacity_.size()) throw std::out_of_range("unknown link id");
  }
  flow.cap = rate_cap;
  flow.rate = 0.0;
  flow.active = true;
  active_.insert(std::lower_bound(active_.begin(), active_.end(), id), id);
  return id;
}

void ReferenceFairShareNetwork::remove_flow(FlowId flow) {
  if (!is_active(flow)) throw std::invalid_argument("flow is not active");
  flows_[flow].active = false;
  flows_[flow].rate = 0.0;
  active_.erase(std::lower_bound(active_.begin(), active_.end(), flow));
  free_slots_.push_back(flow);
}

void ReferenceFairShareNetwork::clear_flows() {
  flows_.clear();
  free_slots_.clear();
  active_.clear();
  std::fill(saturated_.begin(), saturated_.end(), 0);
  std::fill(ever_saturated_.begin(), ever_saturated_.end(), 0);
  ever_saturated_count_ = 0;
}

void ReferenceFairShareNetwork::allocate() {
  // Gather the links the active flows cross; reset their working state.
  ++epoch_;
  touched_.clear();
  for (const FlowId f : active_) {
    for (const LinkId l : flows_[f].links) {
      if (stamp_[l] != epoch_) {
        stamp_[l] = epoch_;
        touched_.push_back(l);
        residual_[l] = capacity_[l];
        load_[l] = 0;
        saturated_[l] = 0;
      }
      ++load_[l];
    }
  }
  // Canonical visiting order: link arithmetic must not depend on which
  // flow touched a link first.
  std::sort(touched_.begin(), touched_.end());

  frozen_.assign(active_.size(), 0);
  std::size_t unfrozen = active_.size();
  double level = 0.0;

  while (unfrozen > 0) {
    // The uniform rate increment every unfrozen flow can still take: the
    // tightest of (a) fair residual share per crossing flow on any loaded
    // link, (b) distance to any unfrozen flow's own cap.
    double delta = std::numeric_limits<double>::infinity();
    for (const LinkId l : touched_) {
      if (load_[l] > 0) {
        delta = std::min(delta, residual_[l] / static_cast<double>(load_[l]));
      }
    }
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (frozen_[i]) continue;
      const double cap = flows_[active_[i]].cap;
      if (cap != kUncapped) delta = std::min(delta, cap - level);
    }
    // Clamping below can leave a residual rounding hair below zero; the
    // offending link is then this round's exact argmin and saturates now.
    if (delta < 0.0) delta = 0.0;

    // Saturate the argmin links *by identity with delta* — the division is
    // recomputed over the same operands, so the comparison is exact and no
    // epsilon can make two orderings disagree.
    for (const LinkId l : touched_) {
      if (load_[l] == 0) continue;
      if (residual_[l] / static_cast<double>(load_[l]) <= delta) {
        residual_[l] = 0.0;
        saturated_[l] = 1;
        if (!ever_saturated_[l]) {
          ever_saturated_[l] = 1;
          ++ever_saturated_count_;
        }
      } else {
        residual_[l] -= delta * static_cast<double>(load_[l]);
        if (residual_[l] < 0.0) residual_[l] = 0.0;
      }
    }

    const double prev_level = level;
    level += delta;

    // Freeze: a flow capped within this increment settles at exactly its
    // cap; a flow crossing a just-saturated link settles at the new water
    // level. At least one of the two happens (delta's argmin is a loaded
    // link or a cap), so every round shrinks `unfrozen`.
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (frozen_[i]) continue;
      Flow& flow = flows_[active_[i]];
      // <= not ==: within a round the min-ness of delta makes them
      // equivalent, but a rounded-up level in an earlier round could
      // strand a cap strictly below it forever under exact equality.
      const bool cap_hit =
          flow.cap != kUncapped && flow.cap - prev_level <= delta;
      bool bottlenecked = cap_hit;
      if (!bottlenecked) {
        for (const LinkId l : flow.links) {
          if (saturated_[l]) {
            bottlenecked = true;
            break;
          }
        }
      }
      if (!bottlenecked) continue;
      flow.rate = cap_hit ? flow.cap : level;
      frozen_[i] = 1;
      --unfrozen;
      for (const LinkId l : flow.links) --load_[l];
    }
  }
}

}  // namespace fairswap::net
