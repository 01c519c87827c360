#include "support/checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace flowsched {

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", r.to_double());
  return os << text;
}

std::vector<double> machine_loads(const Schedule& sched) {
  const Instance& inst = sched.instance();
  std::vector<double> loads(static_cast<std::size_t>(inst.m()), 0.0);
  for (int i = 0; i < inst.n(); ++i) {
    if (sched.assigned(i)) {
      loads[static_cast<std::size_t>(sched.machine(i))] += inst.task(i).proc;
    }
  }
  return loads;
}

bool is_uniform_size_family(std::span<const ProcSet> sets, int* k_out) {
  int k = sets.empty() ? 0 : sets.front().size();
  for (const auto& s : sets) {
    if (s.size() != k) return false;
  }
  if (k_out != nullptr) *k_out = k;
  return true;
}

std::vector<std::string> validate_execution(const Instance& inst,
                                            const ExecutionLog& log) {
  std::vector<std::string> violations;
  auto complain = [&violations](const std::string& msg) {
    violations.push_back(msg);
  };

  std::vector<double> work(static_cast<std::size_t>(inst.n()), 0.0);
  for (const auto& s : log.slices()) {
    if (s.to <= s.from) complain("empty or inverted slice");
    if (s.from < inst.task(s.task).release - 1e-9) {
      complain("task " + std::to_string(s.task) + " runs before release");
    }
    if (!inst.task(s.task).eligible.contains(s.machine)) {
      complain("task " + std::to_string(s.task) + " on ineligible machine");
    }
    work[static_cast<std::size_t>(s.task)] += s.to - s.from;
  }
  for (int i = 0; i < inst.n(); ++i) {
    if (std::abs(work[static_cast<std::size_t>(i)] - inst.task(i).proc) > 1e-6) {
      std::ostringstream msg;
      msg << "task " << i << " received " << work[static_cast<std::size_t>(i)]
          << " of " << inst.task(i).proc << " work";
      complain(msg.str());
    }
  }

  // No machine overlap and no task self-parallelism.
  auto check_overlap = [&](auto key_of, const std::string& what) {
    auto sorted = log.slices();
    std::sort(sorted.begin(), sorted.end(),
              [&](const ExecSlice& a, const ExecSlice& b) {
                if (key_of(a) != key_of(b)) return key_of(a) < key_of(b);
                return a.from < b.from;
              });
    for (std::size_t x = 0; x + 1 < sorted.size(); ++x) {
      if (key_of(sorted[x]) == key_of(sorted[x + 1]) &&
          sorted[x].to > sorted[x + 1].from + 1e-9) {
        complain(what + " " + std::to_string(key_of(sorted[x])) +
                 " has overlapping slices");
      }
    }
  };
  check_overlap([](const ExecSlice& s) { return s.machine; }, "machine");
  check_overlap([](const ExecSlice& s) { return s.task; }, "task");
  return violations;
}

int ring_primary_at(const HashRing& ring, std::uint64_t point) {
  return ring.replicas_at(point, 1).machines().front();
}

double alias_probability(const AliasSampler& sampler, std::size_t columns,
                         std::size_t i) {
  const double n = static_cast<double>(columns);
  double p = 0;
  for (std::size_t c = 0; c < columns; ++c) {
    const double col = static_cast<double>(c);
    // The first and last u whose x = u * n falls in [c, c + 1).
    double lo = col / n;
    while (lo * n < col) lo = std::nextafter(lo, 1.0);
    double hi = std::nextafter((col + 1.0) / n, 0.0);
    while (hi * n >= col + 1.0) hi = std::nextafter(hi, 0.0);
    const std::size_t alias = sampler.resolve(hi);
    double accept;  // share of the column that resolves to c
    if (alias == c) {
      accept = 1.0;
    } else if (sampler.resolve(lo) != c) {
      accept = 0.0;
    } else {
      // resolve(lo) == c and resolve(hi) == alias: close in on the switch.
      for (double mid = lo + (hi - lo) / 2; mid > lo && mid < hi;
           mid = lo + (hi - lo) / 2) {
        (sampler.resolve(mid) == c ? lo : hi) = mid;
      }
      accept = hi * n - col;
    }
    if (c == i) p += accept / n;
    if (alias == i && alias != c) p += (1.0 - accept) / n;
  }
  return p;
}

std::vector<FaultAttempt> attempts_of(const FaultLog& log, int task) {
  std::vector<FaultAttempt> out;
  for (const FaultAttempt& a : log.attempts())
    if (a.task == task) out.push_back(a);
  return out;
}

void SetupLog::on_event(const ObsEvent& e) {
  if (e.kind != ObsEventKind::kTaskStarted) return;
  const auto task = static_cast<std::size_t>(e.task);
  if (task >= setups_.size()) setups_.resize(task + 1, 0.0);
  setups_[task] = e.setup;
}

double SetupLog::setup_of(int task) const {
  const auto idx = static_cast<std::size_t>(task);
  return idx < setups_.size() ? setups_[idx] : 0.0;
}

namespace bounds {

Rational theorem10_opt_upper(int m) {
  if (m < 2) throw std::invalid_argument("theorem10_opt_upper: m >= 2");
  if (m > 1024) {
    throw std::invalid_argument(
        "theorem10_opt_upper: m too large for epsilon margin");
  }
  // 1 + m(m+1)/2 * delta with delta = 2^-20 (kTh10Delta). m(m+1)/2 is an
  // integer <= 524800, so the sum is exact in Rational and in double.
  return Rational(1) +
         Rational(static_cast<std::int64_t>(m) * (m + 1) / 2, std::int64_t{1} << 20);
}

}  // namespace bounds
}  // namespace flowsched
