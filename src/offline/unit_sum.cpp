#include "offline/unit_sum.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "offline/mincost_matching.hpp"

namespace flowsched {
namespace {

// Solves the assignment problem with per-(task, slot) costs supplied by
// `cost_of(task_index, completion_time)`. Slots range over
// [r_i, r_i + n - 1] per task: in some optimal schedule every task starts
// within n slots of its release — if task i started later, the n slots
// from r_i on its machine would contain a free one (only n-1 other tasks
// exist) and moving i there can only lower a completion-monotone cost.
template <typename CostFn>
double solve_assignment(const Instance& inst, CostFn cost_of, Schedule* out) {
  const int n = inst.n();
  if (n == 0) {
    if (out != nullptr) *out = Schedule(inst);
    return 0.0;
  }
  for (const Task& t : inst.tasks()) {
    if (t.proc != 1.0) {
      throw std::invalid_argument("unit_sum: non-unit processing time");
    }
    if (t.release != std::floor(t.release)) {
      throw std::invalid_argument("unit_sum: non-integer release");
    }
  }

  std::map<std::pair<long long, int>, int> slot_id;
  std::vector<std::pair<long long, int>> slot_of;
  MinCostMatching matching(n, n * inst.m() * (n + 1));  // generous bound
  for (int i = 0; i < n; ++i) {
    const Task& t = inst.task(i);
    const auto r = static_cast<long long>(t.release);
    const auto last = r + n - 1;
    for (long long slot = r; slot <= last; ++slot) {
      for (int j : t.eligible.machines()) {
        const auto key = std::make_pair(slot, j);
        auto [it, inserted] =
            slot_id.try_emplace(key, static_cast<int>(slot_of.size()));
        if (inserted) slot_of.push_back(key);
        matching.add_edge(i, it->second,
                          cost_of(i, static_cast<double>(slot) + 1.0));
      }
    }
  }

  const auto result = matching.solve();
  if (!result.feasible) {
    throw std::logic_error("unit_sum: assignment infeasible (bug: window too small)");
  }
  if (out != nullptr) {
    Schedule sched(inst);
    for (int i = 0; i < n; ++i) {
      const auto& [slot, machine] =
          slot_of[static_cast<std::size_t>(result.match[static_cast<std::size_t>(i)])];
      sched.assign(i, machine, static_cast<double>(slot));
    }
    *out = std::move(sched);
  }
  return result.total_cost;
}

}  // namespace

double unit_min_total_flow(const Instance& inst, Schedule* out) {
  return solve_assignment(
      inst,
      [&inst](int i, double completion) {
        return completion - inst.task(i).release;
      },
      out);
}

}  // namespace flowsched
