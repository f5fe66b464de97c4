#include "net/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"

namespace fairswap::net {

namespace {

/// A flow this close to empty is finished; covers the rounding of
/// tick-quantized completion times.
constexpr double kDoneEps = 1e-9;

/// `now + ticks`, saturated at kForever: a deadline past the end
/// of the tick clock means never, not a wrap into the past.
SimTime due_after(SimTime now, SimTime ticks) {
  return ticks > kForever - now ? kForever : now + ticks;
}

/// The (when, seq) order the oracle's EventHeap pops entries in
/// (tests/net/reference_flow_sim.hpp).
bool before(SimTime when_a, std::uint64_t seq_a, SimTime when_b,
            std::uint64_t seq_b) {
  return when_a != when_b ? when_a < when_b : seq_a < seq_b;
}

}  // namespace

FlowSimulator::FlowSimulator(const overlay::CompiledRouter& router,
                             std::size_t node_count, FlowConfig config)
    : router_(&router), config_(config), node_count_(node_count) {
  // NaN and +inf both pass `capacity <= 0.0`; this form rejects them too.
  const double capacity = config_.link_capacity;
  if (!(std::isfinite(capacity) && capacity > 0.0)) {
    throw std::invalid_argument(
        "flow link_capacity must be finite and positive");
  }
  const double up = config_.up_capacity > 0.0 ? config_.up_capacity
                                              : 4.0 * config_.link_capacity;
  const double down = config_.down_capacity > 0.0
                          ? config_.down_capacity
                          : 4.0 * config_.link_capacity;
  for (std::size_t e = 0; e < router.edge_count(); ++e) {
    net_.add_link(config_.link_capacity);
  }
  for (std::size_t n = 0; n < node_count_; ++n) net_.add_link(up);
  for (std::size_t n = 0; n < node_count_; ++n) net_.add_link(down);
  link_volume_.assign(net_.link_count(), 0.0);
}

void FlowSimulator::start_chunk(const overlay::Route& route, bool is_upload) {
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
  m.start = now_;
  m.seq = 0;
  ++started_;
  dirty_ = true;

  if (config_.timeout > 0) {
    m.timeout_seq = next_seq_++;
    timeouts_.push_back(
        Timeout{due_after(m.start, config_.timeout), m.timeout_seq, flow});
  }
}

void FlowSimulator::progress_to(SimTime t) {
  if (t <= progressed_) return;
  const double dt = static_cast<double>(t - progressed_);
  for (const FlowId f : net_.active_flows()) {
    Meta& m = meta_[f];
    m.remaining -= net_.rate(f) * dt;
    if (m.remaining < 0.0) m.remaining = 0.0;
  }
  progressed_ = t;
}

void FlowSimulator::schedule_completion(FlowId flow) {
  Meta& m = meta_[flow];
  const double rate = net_.rate(flow);
  if (rate <= 0.0) return;  // starved; only a timeout can end it
  const double ticks = std::ceil(m.remaining / rate);
  if (!(ticks < 1e18)) return;  // effectively starved
  m.due = due_after(now_, static_cast<SimTime>(ticks));
  m.seq = next_seq_++;
}

void FlowSimulator::consider_next(FlowId flow) {
  const Meta& m = meta_[flow];
  if (m.seq == 0) return;
  if (next_ == kNoFlow ||
      before(m.due, m.seq, meta_[next_].due, meta_[next_].seq)) {
    next_ = flow;
  }
}

void FlowSimulator::supersede(Meta& m) {
  if (m.seq == 0) return;
  m.seq = 0;
  ++superseded_[m.due];
}

void FlowSimulator::reallocate_and_reschedule() {
  const std::size_t saturated_before = net_.ever_saturated_count();
  net_.allocate();
  if (counters_ != nullptr) {
    counters_->bump(telemetry::Counter::kFlowRateRecomputes);
    counters_->bump(telemetry::Counter::kFlowSaturationEpisodes,
                    net_.ever_saturated_count() - saturated_before);
  }
  next_ = kNoFlow;
  for (const FlowId f : net_.active_flows()) {
    Meta& m = meta_[f];
    const double rate = net_.rate(f);
    if (rate != m.rate) {  // else the pending completion is still exact
      m.rate = rate;
      supersede(m);
      schedule_completion(f);
    }
    consider_next(f);
  }
}

void FlowSimulator::finish_flow(FlowId flow, bool completed) {
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
  supersede(m);
  net_.remove_flow(flow);  // its queued timeout, if any, now finds it gone
}

void FlowSimulator::run_events(SimTime until) {
  for (;;) {
    const bool completion_first =
        next_ != kNoFlow &&
        (timeouts_.empty() ||
         before(meta_[next_].due, meta_[next_].seq, timeouts_.front().when,
                timeouts_.front().seq));
    if (completion_first) {
      if (meta_[next_].due > until) break;
      now_ = meta_[next_].due;
      bump_events_popped(1);
      on_completion_event(next_);
    } else {
      if (timeouts_.empty() || timeouts_.front().when > until) break;
      const Timeout timeout = timeouts_.front();
      timeouts_.pop_front();
      now_ = timeout.when;
      bump_events_popped(1);
      on_timeout_event(timeout);
    }
  }
  // Superseded completions fall due here, all at once: each due tick
  // adds its count and moves the clock, exactly as popping that many
  // stale entries off an event heap would.
  while (!superseded_.empty() && superseded_.begin()->first <= until) {
    const auto due = superseded_.begin();
    now_ = std::max(now_, due->first);
    bump_events_popped(due->second);
    superseded_.erase(due);
  }
}

void FlowSimulator::on_completion_event(FlowId flow) {
  meta_[flow].seq = 0;  // dispatched, not superseded
  progress_to(now_);
  // Sweep every flow that is done at this instant, in slot order: their
  // own pending completions (same tick, later seq) are superseded.
  finished_buf_.clear();
  for (const FlowId f : net_.active_flows()) {
    if (meta_[f].remaining <= kDoneEps) finished_buf_.push_back(f);
  }
  for (const FlowId f : finished_buf_) finish_flow(f, /*completed=*/true);
  if (!finished_buf_.empty()) {
    reallocate_and_reschedule();
  } else {
    // Defensive: rates drifted between scheduling and firing (cannot
    // happen — a rate change reschedules) — re-aim rather than stall.
    schedule_completion(flow);
    next_ = kNoFlow;
    for (const FlowId f : net_.active_flows()) consider_next(f);
  }
}

void FlowSimulator::on_timeout_event(const Timeout& timeout) {
  const FlowId flow = timeout.flow;
  if (!net_.is_active(flow) || meta_[flow].timeout_seq != timeout.seq) {
    return;  // the flow already ended
  }
  progress_to(now_);
  finish_flow(flow, /*completed=*/meta_[flow].remaining <= kDoneEps);
  reallocate_and_reschedule();
}

void FlowSimulator::bump_events_popped(std::uint64_t n) {
  if (counters_ != nullptr) {
    counters_->bump(telemetry::Counter::kFlowEventsPopped, n);
  }
}

void FlowSimulator::commit() {
  if (!dirty_) return;
  dirty_ = false;
  progress_to(now_);
  reallocate_and_reschedule();
}

void FlowSimulator::advance_to(SimTime t) {
  commit();
  run_events(t);
  now_ = std::max(now_, t);
}

void FlowSimulator::drain() {
  commit();
  run_events(kForever);
  // Starved flows (a zero-capacity link and no timeout) have no pending
  // events; abandon them instead of looping forever.
  while (!net_.active_flows().empty()) {
    progress_to(now_);
    finish_flow(*net_.active_flows().begin(), /*completed=*/false);
  }
}

void FlowSimulator::reset() {
  net_.clear_flows();
  meta_.clear();
  timeouts_.clear();
  superseded_.clear();
  next_ = kNoFlow;
  link_volume_.assign(net_.link_count(), 0.0);
  fct_.clear();
  fct_sketch_ = PercentileSketch{};
  fct_ticks_sum_ = 0;
  finished_buf_.clear();
  now_ = 0;
  progressed_ = 0;
  makespan_ = 0;
  started_ = 0;
  timed_out_ = 0;
  next_seq_ = 1;
  dirty_ = false;
}

FlowReport FlowSimulator::report() const {
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
