#include "fault/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace flowsched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Quantizes an exponential draw onto the dyadic grid, at least one step.
double quantize(double x, double grid) {
  const double steps = std::max(1.0, std::round(x / grid));
  return steps * grid;
}

// The queries binary-search a machine's interval list. add_down keeps it
// sorted and disjoint, so `from` and `to` both strictly increase along it.
// Each predicate is a negated comparison, so a NaN time falls past the end
// and gets the answer a front-to-back scan gives: up, next_up(t) == t, no
// next crash, no downtime.

// First interval that has not ended by t (t < to), or end().
std::vector<DownInterval>::const_iterator first_ending_after(
    const std::vector<DownInterval>& list, double t) {
  return std::partition_point(
      list.begin(), list.end(),
      [t](const DownInterval& d) { return !(t < d.to); });
}

}  // namespace

FaultPlan::FaultPlan(int m) {
  if (m < 1) throw std::invalid_argument("FaultPlan: m must be >= 1");
  downs_.resize(static_cast<std::size_t>(m));
}

FaultPlan FaultPlan::random(int m, const FaultModelConfig& config, Rng& rng) {
  // A non-finite horizon never ends the renewal loop below (crash < +inf
  // and !(crash >= NaN) hold forever); a NaN mean or a non-finite grid
  // would draw NaN or infinite durations.
  if (std::isnan(config.mean_up))
    throw std::invalid_argument("FaultPlan: mean_up must not be NaN");
  if (std::isnan(config.mean_down))
    throw std::invalid_argument("FaultPlan: mean_down must not be NaN");
  // Checked up front: the repair draw that would reject it only happens
  // once a crash lands before the horizon. signbit also catches -0.0, whose
  // rate 1 / -0.0 is -infinity.
  if (std::signbit(config.mean_down))
    throw std::invalid_argument("FaultPlan: mean_down must not be negative");
  if (!std::isfinite(config.horizon))
    throw std::invalid_argument("FaultPlan: horizon must be finite");
  if (!std::isfinite(config.grid))
    throw std::invalid_argument("FaultPlan: grid must be finite");
  FaultPlan plan(m);
  if (config.mean_up <= 0 || config.horizon <= 0) return plan;
  if (config.grid <= 0) throw std::invalid_argument("FaultPlan: grid must be > 0");
  for (int j = 0; j < m; ++j) {
    double t = 0;
    while (true) {
      const double up = quantize(rng.exponential(1.0 / config.mean_up), config.grid);
      const double crash = t + up;
      if (crash >= config.horizon) break;
      const double repair =
          quantize(rng.exponential(1.0 / config.mean_down), config.grid);
      plan.add_down(j, crash, crash + repair);
      t = crash + repair;
    }
  }
  return plan;
}

void FaultPlan::add_down(int machine, double from, double to) {
  if (machine < 0 || machine >= m())
    throw std::invalid_argument("FaultPlan: machine out of range");
  if (!(from >= 0) || !(to > from))
    throw std::invalid_argument("FaultPlan: interval must satisfy 0 <= from < to");
  auto& list = downs_[static_cast<std::size_t>(machine)];
  if (!list.empty() && !(from > list.back().to))
    throw std::invalid_argument(
        "FaultPlan: down intervals must be appended in order, disjoint, "
        "non-touching");
  list.push_back(DownInterval{from, to});
}

bool FaultPlan::fault_free() const {
  for (const auto& list : downs_)
    if (!list.empty()) return false;
  return true;
}

const std::vector<DownInterval>& FaultPlan::downs(int machine) const {
  if (machine < 0 || machine >= m())
    throw std::invalid_argument("FaultPlan: machine out of range");
  return downs_[static_cast<std::size_t>(machine)];
}

bool FaultPlan::is_up(int machine, double t) const {
  const auto& list = downs(machine);
  const auto it = first_ending_after(list, t);
  return it == list.end() || t < it->from;
}

double FaultPlan::next_up(int machine, double t) const {
  const auto& list = downs(machine);
  const auto it = first_ending_after(list, t);
  if (it == list.end() || t < it->from) return t;
  return it->to;  // may be +inf (never recovers)
}

double FaultPlan::next_down(int machine, double t) const {
  const auto& list = downs(machine);
  const auto it = std::partition_point(
      list.begin(), list.end(),
      [t](const DownInterval& d) { return !(d.from >= t); });
  return it == list.end() ? kInf : it->from;
}

double FaultPlan::downtime(int machine, double t0, double t1) const {
  // Intervals with to <= t0 add nothing, so the sweep starts past them.
  const auto& list = downs(machine);
  double total = 0;
  for (auto it = std::partition_point(
           list.begin(), list.end(),
           [t0](const DownInterval& d) { return !(d.to > t0); });
       it != list.end() && it->from < t1; ++it) {
    const double lo = std::max(t0, it->from);
    const double hi = std::min(t1, it->to);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

int FaultPlan::crash_count() const {
  int n = 0;
  for (const auto& list : downs_) n += static_cast<int>(list.size());
  return n;
}

FaultPlan::Cursor::Cursor(const FaultPlan& plan)
    : plan_(&plan), windows_(static_cast<std::size_t>(plan.m())) {}

const FaultPlan::Cursor::Window& FaultPlan::Cursor::window(int machine,
                                                           double t) {
  if (machine < 0 || static_cast<std::size_t>(machine) >= windows_.size())
    throw std::invalid_argument("FaultPlan: machine out of range");
  Window& w = windows_[static_cast<std::size_t>(machine)];
  if (w.from <= t && t < w.until) return w;
  const auto& list = plan_->downs_[static_cast<std::size_t>(machine)];
  const auto it = first_ending_after(list, t);
  // Up from the end of the previous interval, if any.
  w.from = it == list.begin() ? -kInf : std::prev(it)->to;
  if (it == list.end()) {
    w.until = kInf;
    w.up = true;
  } else if (t < it->from) {
    w.until = it->from;
    w.up = true;
  } else {
    w.from = it->from;
    w.until = it->to;
    w.up = false;
  }
  return w;
}

bool FaultPlan::Cursor::is_up(int machine, double t) {
  return window(machine, t).up;
}

double FaultPlan::Cursor::next_up(int machine, double t) {
  const Window& w = window(machine, t);
  return w.up ? t : w.until;
}

double FaultPlan::Cursor::next_down(int machine, double t) {
  const Window& w = window(machine, t);
  // Up on [from, until): the next crash is the one that ends the window.
  if (w.up) return w.until;
  // Down on [from, until): the crash at `from` counts only for t == from;
  // later, the answer lies past the window.
  return t == w.from ? t : plan_->next_down(machine, t);
}

std::string FaultPlan::str() const {
  std::string out;
  char buf[128];
  for (int j = 0; j < m(); ++j) {
    for (const DownInterval& d : downs_[static_cast<std::size_t>(j)]) {
      if (d.to == kInf) {
        std::snprintf(buf, sizeof(buf), "down %d %.17g inf\n", j + 1, d.from);
      } else {
        std::snprintf(buf, sizeof(buf), "down %d %.17g %.17g\n", j + 1, d.from,
                      d.to);
      }
      out += buf;
    }
  }
  return out;
}

}  // namespace flowsched
