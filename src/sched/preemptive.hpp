// Preemptive online scheduling (the preemptive rows of Table 1).
//
// A preemptive priority scheduler: at every moment the m highest-priority
// unfinished released tasks run, one per machine, respecting processing
// sets. Priorities are static per task; FIFO corresponds to priority =
// release order (Mastrolilli shows preemptive FIFO is also
// (3 - 2/m)-competitive). The simulation is event-driven over release and
// completion events; within an event interval the assignment of running
// tasks to machines is recomputed greedily (highest priority first, lowest
// eligible free machine), which realizes the priority rule exactly on
// identical machines.
//
// The result is an ExecutionLog of (task, machine, from, to) slices rather
// than a Schedule (a preempted task has several slices).
#pragma once

#include <vector>

#include "model/instance.hpp"

namespace flowsched {

/// One contiguous execution slice of a task on a machine.
struct ExecSlice {
  int task = -1;
  int machine = -1;
  double from = 0;
  double to = 0;
};

/// A preemptive schedule: slices plus per-task completion times.
class ExecutionLog {
 public:
  ExecutionLog(const Instance& inst, std::vector<ExecSlice> slices);

  const std::vector<ExecSlice>& slices() const { return slices_; }
  double completion(int task) const;
  double flow(int task) const;
  double max_flow() const;

 private:
  const Instance* inst_;
  std::vector<ExecSlice> slices_;
  std::vector<double> completion_;
};

enum class PreemptivePriority {
  kFifo,           ///< Oldest release first (preemptive FIFO).
  kShortestFirst,  ///< Smallest processing time first (SRPT-like, static).
};

/// Runs the preemptive priority scheduler on `inst`.
ExecutionLog preemptive_schedule(const Instance& inst,
                                 PreemptivePriority priority);

}  // namespace flowsched
