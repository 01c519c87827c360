#include "offline/unit_optimal.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "offline/matching.hpp"

namespace flowsched {
namespace {

void check_unit_integer(const Instance& inst) {
  for (const Task& t : inst.tasks()) {
    if (t.proc != 1.0) {
      throw std::invalid_argument("unit_optimal: non-unit processing time");
    }
    if (t.release != std::floor(t.release)) {
      throw std::invalid_argument("unit_optimal: non-integer release time");
    }
  }
}

}  // namespace

bool unit_fmax_feasible(const Instance& inst, int F, Schedule* out) {
  check_unit_integer(inst);
  if (F < 1) return inst.n() == 0;

  // Right-side nodes: (slot, machine) pairs actually reachable by a task.
  std::map<std::pair<long long, int>, int> slot_id;
  std::vector<std::pair<long long, int>> slot_of;
  std::vector<std::vector<int>> task_slots(static_cast<std::size_t>(inst.n()));

  for (int i = 0; i < inst.n(); ++i) {
    const Task& t = inst.task(i);
    const auto r = static_cast<long long>(t.release);
    for (long long slot = r; slot < r + F; ++slot) {
      for (int j : t.eligible.machines()) {
        const auto key = std::make_pair(slot, j);
        auto [it, inserted] = slot_id.try_emplace(key, static_cast<int>(slot_of.size()));
        if (inserted) slot_of.push_back(key);
        task_slots[static_cast<std::size_t>(i)].push_back(it->second);
      }
    }
  }

  BipartiteMatching matching(inst.n(), static_cast<int>(slot_of.size()));
  for (int i = 0; i < inst.n(); ++i) {
    for (int s : task_slots[static_cast<std::size_t>(i)]) matching.add_edge(i, s);
  }
  if (matching.solve() != inst.n()) return false;

  if (out != nullptr) {
    Schedule sched(inst);
    for (int i = 0; i < inst.n(); ++i) {
      const auto& [slot, machine] = slot_of[static_cast<std::size_t>(matching.match_of(i))];
      sched.assign(i, machine, static_cast<double>(slot));
    }
    *out = std::move(sched);
  }
  return true;
}

int unit_optimal_fmax(const Instance& inst) {
  check_unit_integer(inst);
  if (inst.n() == 0) return 0;
  int lo = 1;
  int hi = inst.n();  // F = n is always feasible (greedy earliest slot).
  if (!unit_fmax_feasible(inst, hi)) {
    throw std::logic_error("unit_optimal_fmax: F = n infeasible (bug)");
  }
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (unit_fmax_feasible(inst, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace flowsched
