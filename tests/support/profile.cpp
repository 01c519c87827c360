#include "support/profile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/profile.hpp"

namespace flowsched {

std::vector<double> machine_frontier(const Schedule& sched, int first_n) {
  const Instance& inst = sched.instance();
  std::vector<double> frontier(static_cast<std::size_t>(inst.m()), 0.0);
  const int limit = std::min(first_n, inst.n());
  for (int i = 0; i < limit; ++i) {
    if (!sched.assigned(i)) continue;
    auto& f = frontier[static_cast<std::size_t>(sched.machine(i))];
    f = std::max(f, sched.completion(i));
  }
  return frontier;
}

std::vector<double> profile_at(const Schedule& sched, int first_n, double t) {
  auto w = machine_frontier(sched, first_n);
  for (auto& v : w) v = std::max(0.0, v - t);
  return w;
}

bool profile_leq(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j] > b[j] + 1e-9) return false;
  }
  return true;
}

bool profile_lt(const std::vector<double>& a, const std::vector<double>& b) {
  if (!profile_leq(a, b)) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j] < b[j] - 1e-9) return true;
  }
  return false;
}

bool profile_nonincreasing(const std::vector<double>& w) {
  for (std::size_t j = 0; j + 1 < w.size(); ++j) {
    if (w[j + 1] > w[j] + 1e-9) return false;
  }
  return true;
}

double profile_total(const std::vector<double>& w) {
  double s = 0;
  for (double v : w) s += v;
  return s;
}

double phi_weighted_distance(const std::vector<double>& w, int m, int k, int j) {
  if (j < 0 || j >= m || static_cast<int>(w.size()) != m) {
    throw std::invalid_argument("phi: bad machine index or profile size");
  }
  const double w_tau = stable_profile(m, k)[static_cast<std::size_t>(j)];
  return std::pow(2.0, w_tau) * (m - k + 1 - w[static_cast<std::size_t>(j)]);
}

double phi_total(const std::vector<double>& w, int m, int k) {
  return phi_partial(w, m, k, 0, m - 1);
}

double phi_partial(const std::vector<double>& w, int m, int k, int j1, int j2) {
  if (j1 > j2) throw std::invalid_argument("phi_partial: j1 > j2");
  double total = 0;
  for (int j = j1; j <= j2; ++j) total += phi_weighted_distance(w, m, k, j);
  return total;
}

double total_backlog_at(const Schedule& sched, double t) {
  const Instance& inst = sched.instance();
  // Tasks are release-sorted; count those released by t.
  int released = 0;
  while (released < inst.n() && inst.task(released).release <= t) ++released;
  return profile_total(profile_at(sched, released, t));
}

std::vector<std::pair<double, double>> backlog_timeseries(const Schedule& sched,
                                                          int points) {
  if (points < 1) throw std::invalid_argument("backlog_timeseries: points < 1");
  const double horizon = sched.makespan();
  std::vector<std::pair<double, double>> series;
  series.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double t = horizon * (i + 1) / points;
    series.emplace_back(t, total_backlog_at(sched, t));
  }
  return series;
}

}  // namespace flowsched
