#include "net/flow.hpp"

#include <algorithm>
#include <stdexcept>

namespace fairswap::net {

LinkId FairShareNetwork::add_link(double capacity) {
  if (capacity < 0.0) throw std::invalid_argument("link capacity must be >= 0");
  const LinkId id = static_cast<LinkId>(capacity_.size());
  capacity_.push_back(capacity);
  crossing_.push_back(0);
  stamp_.push_back(0);
  saturated_.push_back(0);
  ever_saturated_.push_back(0);
  dense_.push_back(0);
  return id;
}

FlowId FairShareNetwork::add_flow(std::span<const LinkId> links,
                                  double rate_cap) {
  if (links.empty() && rate_cap == kUncapped) {
    throw std::invalid_argument("a flow needs links or a finite rate cap");
  }
  // Validate before touching any state: a rejected flow must not leave a
  // slot taken or a per-link count raised.
  for (const LinkId l : links) {
    if (l >= capacity_.size()) throw std::out_of_range("unknown link id");
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
    if (crossing_[l]++ == 0) live_links_.insert(l);
  }
  flow.cap = rate_cap;
  flow.rate = 0.0;
  flow.active = true;
  active_.insert(id);
  return id;
}

void FairShareNetwork::remove_flow(FlowId flow) {
  if (!is_active(flow)) throw std::invalid_argument("flow is not active");
  Flow& f = flows_[flow];
  for (const LinkId l : f.links) {
    if (--crossing_[l] == 0) live_links_.erase(l);
  }
  f.active = false;
  f.rate = 0.0;
  active_.erase(flow);
  free_slots_.push_back(flow);
}

void FairShareNetwork::clear_flows() {
  flows_.clear();
  free_slots_.clear();
  active_.clear();
  std::fill(crossing_.begin(), crossing_.end(), 0);
  live_links_.clear();
  std::fill(saturated_.begin(), saturated_.end(), 0);
  std::fill(ever_saturated_.begin(), ever_saturated_.end(), 0);
  ever_saturated_count_ = 0;
}

void FairShareNetwork::freeze(FlowId flow, double rate) {
  frozen_[flow] = 1;
  flows_[flow].rate = rate;
  --unfrozen_;
  for (const LinkId l : flows_[flow].links) --load_[dense_[l]];
}

void FairShareNetwork::allocate() {
  // Give each live link its dense position, in ascending link order, and
  // reset its working state. Position i owns crossing_ consecutive
  // incidence entries, filled below in ascending flow order.
  ++epoch_;
  link_.clear();
  residual_.clear();
  load_.clear();
  csr_end_.clear();
  loaded_.clear();
  std::uint32_t offset = 0;
  for (const LinkId l : live_links_) {
    const auto i = static_cast<std::uint32_t>(link_.size());
    stamp_[l] = epoch_;
    saturated_[l] = 0;
    dense_[l] = i;
    link_.push_back(l);
    residual_.push_back(capacity_[l]);
    load_.push_back(crossing_[l]);
    csr_end_.push_back(offset);  // advanced to the end by the fill below
    loaded_.push_back(i);
    offset += crossing_[l];
  }
  incidence_.resize(offset);
  frozen_.assign(flows_.size(), 0);
  capped_.clear();
  for (const FlowId f : active_) {
    for (const LinkId l : flows_[f].links) {
      incidence_[csr_end_[dense_[l]]++] = f;
    }
    if (flows_[f].cap != kUncapped) capped_.push_back(f);
  }
  unfrozen_ = active_.size();
  double level = 0.0;

  while (unfrozen_ > 0) {
    // The uniform rate increment every unfrozen flow can still take: the
    // tightest of (a) fair residual share per crossing flow on any loaded
    // link, (b) distance to any unfrozen flow's own cap. Links the last
    // round emptied leave the loaded list here, keeping ascending order.
    double delta = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    share_.resize(loaded_.size());
    for (const std::uint32_t i : loaded_) {
      if (load_[i] == 0) continue;
      const double share = residual_[i] / static_cast<double>(load_[i]);
      delta = std::min(delta, share);
      loaded_[kept] = i;
      share_[kept] = share;
      ++kept;
    }
    loaded_.resize(kept);
    std::erase_if(capped_, [&](FlowId f) { return frozen_[f] != 0; });
    for (const FlowId f : capped_) {
      delta = std::min(delta, flows_[f].cap - level);
    }
    // Clamping below can leave a residual rounding hair below zero; the
    // offending link is then this round's exact argmin and saturates now.
    if (delta < 0.0) delta = 0.0;

    // Saturate the argmin links *by identity with delta* — the share was
    // computed from the same operands, so the comparison is exact and no
    // epsilon can make two orderings disagree.
    just_saturated_.clear();
    for (std::size_t k = 0; k < kept; ++k) {
      const std::uint32_t i = loaded_[k];
      if (share_[k] <= delta) {
        residual_[i] = 0.0;
        const LinkId l = link_[i];
        saturated_[l] = 1;
        if (!ever_saturated_[l]) {
          ever_saturated_[l] = 1;
          ++ever_saturated_count_;
        }
        just_saturated_.push_back(i);
      } else {
        residual_[i] -= delta * static_cast<double>(load_[i]);
        if (residual_[i] < 0.0) residual_[i] = 0.0;
      }
    }

    const double prev_level = level;
    level += delta;

    // Freeze: a flow capped within this increment settles at exactly its
    // cap; a flow crossing a just-saturated link settles at the new water
    // level. At least one of the two happens (delta's argmin is a loaded
    // link or a cap), so every round shrinks `unfrozen_`. Flows on links
    // saturated in earlier rounds froze in those rounds.
    // <= not ==: within a round the min-ness of delta makes them
    // equivalent, but a rounded-up level in an earlier round could strand
    // a cap strictly below it forever under exact equality.
    const auto cap_hit = [&](FlowId f) {
      return flows_[f].cap != kUncapped && flows_[f].cap - prev_level <= delta;
    };
    for (const std::uint32_t i : just_saturated_) {
      for (std::uint32_t k = i == 0 ? 0 : csr_end_[i - 1]; k < csr_end_[i];
           ++k) {
        const FlowId f = incidence_[k];
        if (!frozen_[f]) freeze(f, cap_hit(f) ? flows_[f].cap : level);
      }
    }
    for (const FlowId f : capped_) {
      if (!frozen_[f] && cap_hit(f)) freeze(f, flows_[f].cap);
    }
  }
}

}  // namespace fairswap::net
