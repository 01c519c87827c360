#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"

namespace flowsched {

void MetricsCollector::on_run_begin(const RunInfo& info) {
  if (begun_) {
    throw std::logic_error("MetricsCollector observes exactly one run");
  }
  begun_ = true;
  info_ = info;
  busy_.assign(static_cast<std::size_t>(info.m), 0.0);
}

void MetricsCollector::on_event(const ObsEvent& e) {
  ++events_;
  switch (e.kind) {
    case ObsEventKind::kTaskReleased:
      ++released_;
      deltas_.push_back({e.time, +1});
      break;
    case ObsEventKind::kTaskDispatched:
    case ObsEventKind::kTaskStarted:
      break;
    case ObsEventKind::kTaskCompleted: {
      ++completed_;
      if (e.machine >= 0 &&
          static_cast<std::size_t>(e.machine) < busy_.size()) {
        busy_[static_cast<std::size_t>(e.machine)] += e.proc;
      }
      const double flow = e.time - e.release;
      max_flow_ = std::max(max_flow_, flow);
      flow_sum_ += flow;
      if (e.weight != 1.0) any_weighted_ = true;
      const double wterm = weighted_flow_term(e.weight, flow);
      max_weighted_flow_ = std::max(max_weighted_flow_, wterm);
      weighted_flow_approx_ += wterm;
      if (weighted_exact_ok_) {
        // Mirrors Schedule::total_weighted_flow so [weighted-accounting]
        // can compare the two bitwise, not just within an epsilon.
        if (const auto rt = rational_from_double(wterm)) {
          try {
            weighted_flow_exact_ = weighted_flow_exact_ + *rt;
          } catch (const std::overflow_error&) {
            weighted_exact_ok_ = false;
          }
        } else {
          weighted_exact_ok_ = false;
        }
      }
      flow_sketch_.add(flow);
      makespan_ = std::max(makespan_, e.time);
      deltas_.push_back({e.time, -1});
      break;
    }
    case ObsEventKind::kMachineBusy:
    case ObsEventKind::kMachineIdle:
      break;
  }
}

void MetricsCollector::on_run_end(double makespan) {
  makespan_ = std::max(makespan_, makespan);
}

double MetricsCollector::busy_time(int j) const {
  return busy_.at(static_cast<std::size_t>(j));
}

double MetricsCollector::utilization(int j) const {
  return makespan_ > 0 ? busy_time(j) / makespan_ : 0.0;
}

double MetricsCollector::mean_flow() const {
  return completed_ > 0 ? flow_sum_ / completed_ : 0.0;
}

double MetricsCollector::total_weighted_flow() const {
  return weighted_exact_ok_ ? weighted_flow_exact_.to_double()
                            : weighted_flow_approx_;
}

std::vector<SeriesPoint> MetricsCollector::backlog_series() const {
  std::vector<Delta> deltas = deltas_;
  // Completions sort before releases at the same instant: a task completing
  // exactly when another arrives does not inflate the peak.
  std::stable_sort(deltas.begin(), deltas.end(),
                   [](const Delta& a, const Delta& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.delta < b.delta;
                   });
  std::vector<SeriesPoint> series;
  int depth = 0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    depth += deltas[i].delta;
    // Collapse simultaneous deltas into one step.
    if (i + 1 < deltas.size() && deltas[i + 1].time == deltas[i].time) {
      continue;
    }
    series.push_back({deltas[i].time, depth});
  }
  return series;
}

int MetricsCollector::max_backlog() const {
  int peak = 0;
  for (const SeriesPoint& p : backlog_series()) peak = std::max(peak, p.value);
  return peak;
}

std::string MetricsCollector::to_json() const {
  std::string out = "{";
  out += "\"algo\":\"" + json_escape(info_.algo) + "\"";
  if (info_.tag.tagged()) {
    out += ",\"experiment\":\"" + json_escape(info_.tag.experiment) + "\"";
    out += ",\"cell\":\"" + json_hex(info_.tag.cell) + "\"";
    out += ",\"rep\":" + std::to_string(info_.tag.rep);
  }
  out += ",\"m\":" + std::to_string(info_.m);
  out += ",\"released\":" + std::to_string(released_);
  out += ",\"completed\":" + std::to_string(completed_);
  out += ",\"makespan\":" + json_num(makespan_);
  out += ",\"fmax\":" + json_num(max_flow_);
  out += ",\"mean_flow\":" + json_num(mean_flow());
  out += ",\"flow_p50\":" + json_num(flow_p50());
  out += ",\"flow_p99\":" + json_num(flow_p99());
  out += ",\"flow_p999\":" + json_num(flow_p999());
  if (any_weighted_) {
    // Appended only for weighted runs, so unweighted rows stay byte-stable.
    out += ",\"fmax_w\":" + json_num(max_weighted_flow_);
    out += ",\"total_flow_w\":" + json_num(total_weighted_flow());
  }
  out += ",\"max_backlog\":" + std::to_string(max_backlog());
  out += ",\"utilization\":[";
  for (int j = 0; j < info_.m; ++j) {
    if (j > 0) out += ",";
    out += json_num(utilization(j));
  }
  out += "]}";
  return out;
}

}  // namespace flowsched
