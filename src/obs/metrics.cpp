#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/json.hpp"

namespace flowsched {

namespace {

// A double bin index clamped into [0, last] before the cast: a NaN-free
// index beyond size_t (±inf, 1e300) never reaches static_cast.
std::size_t clamp_bin(double idx, std::size_t last) {
  if (!(idx > 0)) return 0;
  return idx >= static_cast<double>(last) ? last
                                          : static_cast<std::size_t>(idx);
}

}  // namespace

FlowHistogram::FlowHistogram(Rational lo, Rational hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / Rational(static_cast<std::int64_t>(bins))) {
  if (bins == 0) throw std::invalid_argument("FlowHistogram: bins == 0");
  if (!(lo < hi)) throw std::invalid_argument("FlowHistogram: lo >= hi");
  counts_.assign(bins, 0);
  // w = num/den in lowest terms is a power of two iff one side is 1 and the
  // other a power of two; then 1/w is exact in a double.
  const auto num = static_cast<std::uint64_t>(width_.num());
  const auto den = static_cast<std::uint64_t>(width_.den());
  if (lo_ == Rational(0) && (num == 1 || den == 1) &&
      std::has_single_bit(num) && std::has_single_bit(den)) {
    inv_width_ = Rational(width_.den(), width_.num()).to_double();
  }
}

void FlowHistogram::add(double x) {
  if (std::isnan(x)) throw std::invalid_argument("FlowHistogram: NaN sample");
  ++total_;
  const auto last = counts_.size() - 1;
  if (inv_width_ != 0) {
    // x * 2^-s is ldexp(x, -s): exact unless it underflows, and then it is
    // below 1 either way — floor gives the exact bin.
    ++counts_[clamp_bin(std::floor(x * inv_width_), last)];
    return;
  }
  std::size_t bin = 0;
  bool exact = false;
  if (const auto r = rational_from_double(x)) {
    // Bin index floor((x - lo) / w), computed exactly: a sample sitting on
    // a bucket boundary lands in the upper bin by definition, immune to
    // the rounding of (x - lo) / w in doubles.
    try {
      const Rational offset = *r - lo_;
      if (offset < Rational(0)) {
        bin = 0;
      } else {
        const Rational q = offset / width_;
        const auto idx =
            static_cast<std::size_t>(q.num() / q.den());  // floor (q >= 0)
        bin = std::min(idx, last);
      }
      exact = true;
    } catch (const std::overflow_error&) {
      exact = false;  // intermediate product outside int64: double fallback
    }
  }
  if (!exact) {
    bin = clamp_bin(std::floor((x - lo_.to_double()) / width_.to_double()),
                    last);
  }
  ++counts_[bin];
}

MetricsCollector::MetricsCollector()
    : flow_hist_(Rational(0), Rational(64), 64) {}

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
      ++dispatched_;
      break;
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
      flow_hist_.add(flow);
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
  finished_ = true;
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
