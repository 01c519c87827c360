#include "offline/bruteforce.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace flowsched {
namespace {

struct SearchState {
  const Instance* inst;
  std::vector<double> machine_free;   // completion frontier per machine
  double current_fmax = 0.0;
  double best = std::numeric_limits<double>::infinity();
};

// Tasks are release-sorted; assigning in index order and starting each task
// at max(release, frontier) is exactly "release order per machine", which is
// optimal for the given assignment.
void search(SearchState& s, int i) {
  if (s.current_fmax >= s.best) return;  // bound
  if (i == s.inst->n()) {
    s.best = s.current_fmax;
    return;
  }
  const Task& t = s.inst->task(i);
  // Heuristic order: try lighter machines first so good incumbents appear
  // early and pruning bites.
  std::vector<int> order = t.eligible.machines();
  std::sort(order.begin(), order.end(), [&s](int a, int b) {
    return s.machine_free[static_cast<std::size_t>(a)] <
           s.machine_free[static_cast<std::size_t>(b)];
  });
  for (int j : order) {
    const double start = std::max(t.release, s.machine_free[static_cast<std::size_t>(j)]);
    const double completion = start + t.proc;
    const double flow = completion - t.release;
    const double saved_free = s.machine_free[static_cast<std::size_t>(j)];
    const double saved_fmax = s.current_fmax;

    s.machine_free[static_cast<std::size_t>(j)] = completion;
    s.current_fmax = std::max(s.current_fmax, flow);
    search(s, i + 1);
    s.machine_free[static_cast<std::size_t>(j)] = saved_free;
    s.current_fmax = saved_fmax;
  }
}

SearchState run(const Instance& inst, int max_n) {
  if (inst.n() > max_n) {
    throw std::invalid_argument("brute_force_opt: instance too large (n > max_n)");
  }
  SearchState s;
  s.inst = &inst;
  s.machine_free.assign(static_cast<std::size_t>(inst.m()), 0.0);
  search(s, 0);
  return s;
}

}  // namespace

double brute_force_opt_fmax(const Instance& inst, int max_n) {
  if (inst.n() == 0) return 0.0;
  return run(inst, max_n).best;
}

}  // namespace flowsched
