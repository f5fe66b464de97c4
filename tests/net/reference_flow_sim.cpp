#include "reference_flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"

namespace fairswap::net {

namespace {

/// A flow this close to empty is finished; covers the rounding of
/// tick-quantized completion times.
constexpr double kDoneEps = 1e-9;

}  // namespace

ReferenceFlowSimulator::ReferenceFlowSimulator(
    const overlay::CompiledRouter& router, std::size_t node_count,
    FlowConfig config)
    : router_(&router), config_(config), node_count_(node_count) {
  if (config_.link_capacity <= 0.0) {
    throw std::invalid_argument("flow link_capacity must be positive");
  }
  for (std::size_t e = 0; e < router.edge_count(); ++e) {
    net_.add_link(config_.link_capacity);
  }
  // Uplinks, then downlinks.
  for (std::size_t n = 0; n < 2 * node_count_; ++n) {
    net_.add_link(4.0 * config_.link_capacity);
  }
  link_volume_.assign(net_.link_count(), 0.0);
}

void ReferenceFlowSimulator::start_chunk(const overlay::Route& route,
                                         bool is_upload) {
  if (!route.reached_storer || route.hops() == 0) {
    throw std::invalid_argument(
        "flows exist only for delivered multi-hop chunks");
  }
  if (route.edges.size() != route.hops()) {
    throw std::invalid_argument(
        "a flow needs the arena edge id of every hop of its route");
  }
  const auto edge_links = static_cast<LinkId>(router_->edge_count());
  links_buf_.clear();
  for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
    const overlay::NodeIndex from = route.path[i];
    const overlay::NodeIndex to = route.path[i + 1];
    links_buf_.push_back(route.edges[i]);
    // Data direction: downloads stream storer -> originator, so hop i's
    // sender is path[i+1]; uploads stream the other way.
    const overlay::NodeIndex sender = is_upload ? from : to;
    const overlay::NodeIndex receiver = is_upload ? to : from;
    links_buf_.push_back(edge_links + sender);
    links_buf_.push_back(
        static_cast<LinkId>(edge_links + node_count_ + receiver));
  }

  const FlowId flow = net_.add_flow(links_buf_);
  if (flow >= meta_.size()) meta_.resize(flow + 1);
  Meta& m = meta_[flow];
  m.remaining = 1.0;
  m.rate = -1.0;  // forces the next reallocation to schedule it
  m.start = events_.now();
  m.uid = next_uid_++;
  m.sched = 0;
  ++started_;
  dirty_ = true;

  if (config_.timeout > 0) {
    events_.push(m.start + config_.timeout,
                 FlowEvent{flow, m.uid, /*sched=*/0});
  }
}

void ReferenceFlowSimulator::progress_to(SimTime t) {
  if (t <= progressed_) return;
  const double dt = static_cast<double>(t - progressed_);
  for (const FlowId f : net_.active_flows()) {
    Meta& m = meta_[f];
    m.remaining -= net_.rate(f) * dt;
    if (m.remaining < 0.0) m.remaining = 0.0;
  }
  progressed_ = t;
}

void ReferenceFlowSimulator::schedule_completion(FlowId flow) {
  const double rate = net_.rate(flow);
  if (rate <= 0.0) return;  // starved; only a timeout can end it
  const double ticks = std::ceil(meta_[flow].remaining / rate);
  if (!(ticks < 1e18)) return;  // effectively starved
  events_.push(events_.now() + static_cast<SimTime>(ticks),
               FlowEvent{flow, meta_[flow].uid, meta_[flow].sched});
}

void ReferenceFlowSimulator::reallocate_and_reschedule() {
  const std::size_t saturated_before = net_.ever_saturated_count();
  net_.allocate();
  if (counters_ != nullptr) {
    counters_->bump(telemetry::Counter::kFlowRateRecomputes);
    counters_->bump(telemetry::Counter::kFlowSaturationEpisodes,
                    net_.ever_saturated_count() - saturated_before);
  }
  for (const FlowId f : net_.active_flows()) {
    const double rate = net_.rate(f);
    if (rate == meta_[f].rate) continue;  // pending event still exact
    meta_[f].rate = rate;
    ++meta_[f].sched;
    schedule_completion(f);
  }
}

void ReferenceFlowSimulator::finish_flow(FlowId flow, bool completed) {
  Meta& m = meta_[flow];
  const double transferred = 1.0 - std::max(m.remaining, 0.0);
  for (const LinkId l : net_.flow_links(flow)) link_volume_[l] += transferred;
  if (completed) {
    if (config_.bounded_fct) {
      const SimTime fct = progressed_ - m.start;
      fct_sketch_.add(static_cast<double>(fct));
      fct_ticks_sum_ += fct;
    } else {
      fct_.push_back(progressed_ - m.start);
    }
  } else {
    ++timed_out_;
  }
  makespan_ = std::max(makespan_, progressed_);
  m.uid = 0;  // stales any pending completion/timeout event
  net_.remove_flow(flow);
}

void ReferenceFlowSimulator::run_events(SimTime until) {
  FlowEvent ev;
  while (events_.pop_due(until, ev)) {
    if (counters_ != nullptr) {
      counters_->bump(telemetry::Counter::kFlowEventsPopped);
    }
    if (ev.sched == 0) {
      on_timeout_event(ev);
    } else {
      on_completion_event(ev);
    }
  }
}

void ReferenceFlowSimulator::on_completion_event(const FlowEvent& ev) {
  const FlowId flow = ev.flow;
  if (!net_.is_active(flow) || meta_[flow].uid != ev.uid ||
      meta_[flow].sched != ev.sched) {
    return;  // the flow was rescheduled or already ended
  }
  progress_to(events_.now());
  // Sweep every flow that is done at this instant, in slot order: their
  // own events (same tick, later seq) become stale removals otherwise.
  finished_buf_.clear();
  for (const FlowId f : net_.active_flows()) {
    if (meta_[f].remaining <= kDoneEps) finished_buf_.push_back(f);
  }
  for (const FlowId f : finished_buf_) finish_flow(f, /*completed=*/true);
  if (!finished_buf_.empty()) {
    reallocate_and_reschedule();
  } else {
    // Defensive: rates drifted between scheduling and firing (cannot
    // happen — rate changes bump sched) — re-aim rather than stall.
    ++meta_[flow].sched;
    schedule_completion(flow);
  }
}

void ReferenceFlowSimulator::on_timeout_event(const FlowEvent& ev) {
  const FlowId flow = ev.flow;
  if (!net_.is_active(flow) || meta_[flow].uid != ev.uid) return;
  progress_to(events_.now());
  finish_flow(flow, /*completed=*/meta_[flow].remaining <= kDoneEps);
  reallocate_and_reschedule();
}

void ReferenceFlowSimulator::commit() {
  if (!dirty_) return;
  dirty_ = false;
  progress_to(events_.now());
  reallocate_and_reschedule();
}

void ReferenceFlowSimulator::advance_to(SimTime t) {
  commit();
  run_events(t);
  events_.advance_to(t);
}

void ReferenceFlowSimulator::drain() {
  commit();
  run_events(kForever);
  // Starved flows (a zero-capacity link and no timeout) have no pending
  // events; abandon them instead of looping forever.
  while (!net_.active_flows().empty()) {
    progress_to(events_.now());
    finish_flow(*net_.active_flows().begin(), /*completed=*/false);
  }
}

void ReferenceFlowSimulator::reset() {
  events_ = EventHeap<FlowEvent>{};
  net_.clear_flows();
  meta_.clear();
  link_volume_.assign(net_.link_count(), 0.0);
  fct_.clear();
  fct_sketch_ = PercentileSketch{};
  fct_ticks_sum_ = 0;
  finished_buf_.clear();
  progressed_ = 0;
  makespan_ = 0;
  started_ = 0;
  timed_out_ = 0;
  next_uid_ = 1;
  dirty_ = false;
}

FlowReport ReferenceFlowSimulator::report() const {
  FlowReport r;
  r.started = started_;
  r.completed = config_.bounded_fct ? fct_sketch_.count() : fct_.size();
  r.timed_out = timed_out_;
  r.saturated_links = net_.ever_saturated_count();
  r.makespan = makespan_;
  if (config_.bounded_fct) {
    if (fct_sketch_.count() > 0) {
      r.fct_p50 = fct_sketch_.quantile(0.50);
      r.fct_p90 = fct_sketch_.quantile(0.90);
      r.fct_p99 = fct_sketch_.quantile(0.99);
      r.fct_mean = static_cast<double>(fct_ticks_sum_) /
                   static_cast<double>(fct_sketch_.count());
    }
  } else if (!fct_.empty()) {
    std::vector<double> sorted(fct_.begin(), fct_.end());
    std::sort(sorted.begin(), sorted.end());
    r.fct_p50 = percentile_sorted(sorted, 0.50);
    r.fct_p90 = percentile_sorted(sorted, 0.90);
    r.fct_p99 = percentile_sorted(sorted, 0.99);
    double sum = 0.0;
    for (const double v : sorted) sum += v;
    r.fct_mean = sum / static_cast<double>(sorted.size());
  }
  if (makespan_ > 0) {
    for (LinkId l = 0; l < net_.link_count(); ++l) {
      const double cap = net_.link_capacity(l);
      if (cap <= 0.0) continue;
      r.max_link_utilization =
          std::max(r.max_link_utilization,
                   link_volume_[l] / (cap * static_cast<double>(makespan_)));
    }
  }
  return r;
}

}  // namespace fairswap::net
