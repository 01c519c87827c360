#include "obs/observer.hpp"

#include <algorithm>
#include <queue>

namespace flowsched {

MulticastObserver::MulticastObserver(std::vector<SchedObserver*> sinks) {
  for (SchedObserver* s : sinks) add(s);
}

void MulticastObserver::add(SchedObserver* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void MulticastObserver::on_run_begin(const RunInfo& info) {
  for (SchedObserver* s : sinks_) s->on_run_begin(info);
}

void MulticastObserver::on_event(const ObsEvent& event) {
  for (SchedObserver* s : sinks_) s->on_event(event);
}

void MulticastObserver::on_run_end(double makespan) {
  for (SchedObserver* s : sinks_) s->on_run_end(makespan);
}

void replay_schedule(const Schedule& sched, const RunInfo& info,
                     SchedObserver& obs) {
  const Instance& inst = sched.instance();
  obs.on_run_begin(info);

  // Chronological narration, as a queue simulation would produce it:
  // releases in id order, each released task's milestones at its start
  // (after every release at or before that instant), and each machine's
  // busy/idle edges in place beside the starts that cause them.
  std::vector<double> frontier(static_cast<std::size_t>(inst.m()), 0.0);
  std::vector<bool> busy(static_cast<std::size_t>(inst.m()), false);
  const auto later = [&](int a, int b) {
    return sched.start(a) != sched.start(b) ? sched.start(a) > sched.start(b)
                                            : a > b;
  };
  std::priority_queue<int, std::vector<int>, decltype(later)> waiting(later);
  const auto start_task = [&](int i) {
    const Task& t = inst.task(i);
    const int u = sched.machine(i);
    const double start = sched.start(i);
    ObsEvent e;
    e.task = i;
    e.machine = u;
    e.release = t.release;
    e.proc = t.proc;
    e.weight = t.weight;
    e.kind = ObsEventKind::kTaskDispatched;
    e.time = start;  // dispatch instant is not recorded in a Schedule
    obs.on_event(e);
    const auto uj = static_cast<std::size_t>(u);
    if (!busy[uj] || start > frontier[uj]) {
      if (busy[uj]) {
        obs.on_event(ObsEvent{.kind = ObsEventKind::kMachineIdle,
                              .time = frontier[uj],
                              .machine = u});
      }
      obs.on_event(ObsEvent{
          .kind = ObsEventKind::kMachineBusy, .time = start, .machine = u});
      busy[uj] = true;
      frontier[uj] = start;
    }
    frontier[uj] = std::max(frontier[uj], start + t.proc);
    e.kind = ObsEventKind::kTaskStarted;
    obs.on_event(e);
    e.kind = ObsEventKind::kTaskCompleted;
    e.time = start + t.proc;
    obs.on_event(e);
  };

  for (int i = 0; i < inst.n(); ++i) {
    const Task& t = inst.task(i);
    while (!waiting.empty() && sched.start(waiting.top()) < t.release) {
      start_task(waiting.top());
      waiting.pop();
    }
    ObsEvent e;
    e.kind = ObsEventKind::kTaskReleased;
    e.time = t.release;
    e.task = i;
    e.release = t.release;
    e.proc = t.proc;
    e.weight = t.weight;
    e.eligible = &t.eligible;
    obs.on_event(e);
    if (sched.assigned(i)) waiting.push(i);
  }
  for (; !waiting.empty(); waiting.pop()) start_task(waiting.top());
  for (int j = 0; j < inst.m(); ++j) {
    if (!busy[static_cast<std::size_t>(j)]) continue;
    obs.on_event(ObsEvent{.kind = ObsEventKind::kMachineIdle,
                          .time = frontier[static_cast<std::size_t>(j)],
                          .machine = j});
  }

  obs.on_run_end(sched.makespan());
}

}  // namespace flowsched
