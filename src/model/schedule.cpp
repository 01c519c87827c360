#include "model/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/rational.hpp"

namespace flowsched {

std::string ValidationResult::str() const {
  std::ostringstream out;
  for (const auto& v : violations) out << v << '\n';
  return out.str();
}

Schedule::Schedule(const Instance& inst)
    : inst_(&inst), asg_(static_cast<std::size_t>(inst.n())) {}

Schedule::Schedule(std::shared_ptr<const Instance> inst)
    : owner_(std::move(inst)),
      inst_(owner_.get()),
      asg_(static_cast<std::size_t>(inst_->n())) {
  if (owner_ == nullptr) throw std::invalid_argument("Schedule: null instance");
}

void Schedule::assign(int i, int machine, double start) {
  if (machine < 0 || machine >= inst_->m()) {
    throw std::invalid_argument("Schedule::assign: machine outside [0,m)");
  }
  asg_.at(static_cast<std::size_t>(i)) = Assignment{machine, start};
}

bool Schedule::assigned(int i) const {
  return asg_.at(static_cast<std::size_t>(i)).machine >= 0;
}

int Schedule::machine(int i) const {
  return asg_.at(static_cast<std::size_t>(i)).machine;
}

double Schedule::start(int i) const {
  return asg_.at(static_cast<std::size_t>(i)).start;
}

double Schedule::completion(int i) const {
  return start(i) + inst_->task(i).proc;
}

double Schedule::flow(int i) const {
  return completion(i) - inst_->task(i).release;
}

bool Schedule::complete() const {
  for (int i = 0; i < inst_->n(); ++i) {
    if (!assigned(i)) return false;
  }
  return true;
}

double Schedule::max_flow() const { return max_flow_prefix(inst_->n()); }

double Schedule::max_flow_prefix(int count) const {
  double f = 0;
  for (int i = 0; i < count && i < inst_->n(); ++i) {
    if (assigned(i)) f = std::max(f, flow(i));
  }
  return f;
}

double Schedule::mean_flow() const {
  double sum = 0;
  int cnt = 0;
  for (int i = 0; i < inst_->n(); ++i) {
    if (assigned(i)) {
      sum += flow(i);
      ++cnt;
    }
  }
  return cnt == 0 ? 0.0 : sum / cnt;
}

double Schedule::total_flow() const {
  double sum = 0;
  for (int i = 0; i < inst_->n(); ++i) {
    if (assigned(i)) sum += flow(i);
  }
  return sum;
}

double weighted_flow_term(double w, double f) {
  // Unit weight: a double converts to its binary rational and back without
  // loss, so the Rational product below is f itself (+ 0.0 maps -0 to the
  // +0 that path returns).
  if (w == 1.0) return f + 0.0;
  const auto rw = rational_from_double(w);
  const auto rf = rational_from_double(f);
  if (rw && rf) {
    try {
      return (*rw * *rf).to_double();
    } catch (const std::overflow_error&) {
    }
  }
  return w * f;
}

double Schedule::weighted_flow(int i) const {
  return weighted_flow_term(inst_->task(i).weight, flow(i));
}

double Schedule::max_weighted_flow() const {
  double f = 0;
  for (int i = 0; i < inst_->n(); ++i) {
    if (assigned(i)) f = std::max(f, weighted_flow(i));
  }
  return f;
}

double Schedule::total_weighted_flow() const {
  // Rational-exact accumulation: order-independent, so the sum is bitwise
  // reproducible regardless of task permutation. Falls back to doubles the
  // moment any term (or partial sum) is unrepresentable.
  std::optional<Rational> exact(Rational(0));
  double approx = 0;
  for (int i = 0; i < inst_->n(); ++i) {
    if (!assigned(i)) continue;
    const double term = weighted_flow(i);
    approx += term;
    if (exact) {
      const auto rt = rational_from_double(term);
      if (!rt) {
        exact.reset();
        continue;
      }
      try {
        exact = *exact + *rt;
      } catch (const std::overflow_error&) {
        exact.reset();
      }
    }
  }
  return exact ? exact->to_double() : approx;
}

double Schedule::stretch(int i) const { return flow(i) / inst_->task(i).proc; }

double Schedule::max_stretch() const {
  double s = 0;
  for (int i = 0; i < inst_->n(); ++i) {
    if (assigned(i)) s = std::max(s, stretch(i));
  }
  return s;
}

double Schedule::mean_stretch() const {
  double sum = 0;
  int cnt = 0;
  for (int i = 0; i < inst_->n(); ++i) {
    if (assigned(i)) {
      sum += stretch(i);
      ++cnt;
    }
  }
  return cnt == 0 ? 0.0 : sum / cnt;
}

std::vector<double> Schedule::flows() const {
  std::vector<double> fs;
  fs.reserve(asg_.size());
  for (int i = 0; i < inst_->n(); ++i) {
    if (assigned(i)) fs.push_back(flow(i));
  }
  return fs;
}

double Schedule::makespan() const {
  double c = 0;
  for (int i = 0; i < inst_->n(); ++i) {
    if (assigned(i)) c = std::max(c, completion(i));
  }
  return c;
}

std::vector<double> Schedule::machine_loads() const {
  std::vector<double> loads(static_cast<std::size_t>(inst_->m()), 0.0);
  for (int i = 0; i < inst_->n(); ++i) {
    if (assigned(i)) loads[static_cast<std::size_t>(machine(i))] += inst_->task(i).proc;
  }
  return loads;
}

ValidationResult Schedule::validate() const {
  ValidationResult result;
  auto complain = [&result](const std::string& msg) {
    result.violations.push_back(msg);
  };

  std::vector<std::vector<int>> per_machine(static_cast<std::size_t>(inst_->m()));
  for (int i = 0; i < inst_->n(); ++i) {
    const Task& t = inst_->task(i);
    if (!assigned(i)) {
      complain("task " + std::to_string(i) + ": unassigned");
      continue;
    }
    if (!t.eligible.contains(machine(i))) {
      complain("task " + std::to_string(i) + ": machine M" +
               std::to_string(machine(i) + 1) + " not in processing set " +
               t.eligible.str());
    }
    if (start(i) < t.release - 1e-12) {
      complain("task " + std::to_string(i) + ": starts at " +
               std::to_string(start(i)) + " before release " +
               std::to_string(t.release));
    }
    per_machine[static_cast<std::size_t>(machine(i))].push_back(i);
  }

  for (auto& ids : per_machine) {
    std::sort(ids.begin(), ids.end(),
              [this](int a, int b) { return start(a) < start(b); });
    for (std::size_t x = 0; x + 1 < ids.size(); ++x) {
      const int a = ids[x];
      const int b = ids[x + 1];
      if (completion(a) > start(b) + 1e-9) {
        complain("machine M" + std::to_string(machine(a) + 1) + ": tasks " +
                 std::to_string(a) + " and " + std::to_string(b) + " overlap");
      }
    }
  }
  return result;
}

std::string Schedule::gantt(double t_end) const {
  if (t_end < 0) t_end = makespan();
  const auto horizon = static_cast<int>(std::ceil(t_end));
  std::ostringstream out;
  // Column width: enough for the largest task id.
  int width = 2;
  for (int w = inst_->n(); w >= 10; w /= 10) ++width;

  for (int j = 0; j < inst_->m(); ++j) {
    out << 'M' << std::left << std::setw(3) << (j + 1) << '|';
    for (int t = 0; t < horizon; ++t) {
      int occupant = -1;
      for (int i = 0; i < inst_->n(); ++i) {
        if (assigned(i) && machine(i) == j && start(i) <= t &&
            completion(i) > t) {
          occupant = i;
          break;
        }
      }
      if (occupant >= 0) {
        out << std::right << std::setw(width) << occupant << '|';
      } else {
        out << std::string(static_cast<std::size_t>(width), '.') << '|';
      }
    }
    out << '\n';
  }
  out << "     ";
  for (int t = 0; t < horizon; ++t) {
    out << std::right << std::setw(width) << t << ' ';
  }
  out << '\n';
  return out.str();
}

}  // namespace flowsched
