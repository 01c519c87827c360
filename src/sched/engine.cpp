#include "sched/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace flowsched {

OnlineEngine::OnlineEngine(int m, Dispatcher& dispatcher) : core_(m, dispatcher) {}

Assignment OnlineEngine::release(Task task) {
  if (task.eligible.empty()) task.eligible = ProcSet::all(m());
  Assignment a;
  if (fault_log_ != nullptr) {
    a = core_.release(task.release, task.proc, task.eligible, released(),
                      task.weight);
  } else {
    const StreamingEngine::Decision d = core_.decide(task, released());
    core_.commit(d);
    if (clairvoyance() == Clairvoyance::kNonClairvoyant) setups_.push_back(d.setup);
    a = Assignment{d.machine, d.start};
    assignments_.push_back(a);
  }
  tasks_.push_back(std::move(task));
  return a;
}

Assignment OnlineEngine::assignment_of(int i) const {
  if (fault_log_ == nullptr) return assignments_.at(static_cast<std::size_t>(i));
  const FaultAttempt* segment = fault_log_->completing_segment(i);
  return segment != nullptr ? Assignment{segment->machine, segment->start}
                            : Assignment{-1, -1.0};
}

double OnlineEngine::completion_of(int i) const {
  // Under faults the final segment may be shorter than p_i (checkpoint
  // recovery), so the fault log is the only truthful source.
  if (fault_log_ != nullptr) return fault_log_->completion(i);
  if (clairvoyance() == Clairvoyance::kNonClairvoyant) {
    // (start + setup) + proc, associated exactly as the engine computed it.
    return assignments_.at(static_cast<std::size_t>(i)).start +
           setups_.at(static_cast<std::size_t>(i)) +
           tasks_.at(static_cast<std::size_t>(i)).proc;
  }
  return assignments_.at(static_cast<std::size_t>(i)).start +
         tasks_.at(static_cast<std::size_t>(i)).proc;
}

void OnlineEngine::set_faults(const FaultPlan* plan, RecoveryPolicy recovery) {
  core_.set_faults(plan, recovery);
  fault_log_ = plan != nullptr ? std::make_unique<FaultLog>() : nullptr;
  core_.set_fault_log(fault_log_.get());
}

const FaultLog& OnlineEngine::fault_log() const {
  if (fault_log_ == nullptr)
    throw std::logic_error("OnlineEngine::fault_log: faults not active");
  return *fault_log_;
}

Schedule OnlineEngine::snapshot() const {
  if (fault_log_ != nullptr) {
    // A Schedule models one uninterrupted run of p_i per task; kill/requeue
    // segments do not fit it. The fault log is the fault-mode result.
    throw std::logic_error("OnlineEngine::snapshot: unavailable under faults");
  }
  if (clairvoyance() == Clairvoyance::kNonClairvoyant && setup_time() != 0.0) {
    // A Schedule's completion is start + proc; a nonzero setup does not fit
    // it. Read assignments / completion_of directly instead.
    throw std::logic_error(
        "OnlineEngine::snapshot: unavailable with nonzero setup time");
  }
  // Releases were non-decreasing, so the Instance's stable sort preserves
  // the release order and assignment indices line up one-to-one.
  auto inst = std::make_shared<Instance>(m(), tasks_);
  Schedule sched(inst);
  for (int i = 0; i < inst->n(); ++i) {
    const auto& a = assignments_[static_cast<std::size_t>(i)];
    sched.assign(i, a.machine, a.start);
  }
  return sched;
}

OnlineEngine run_dispatcher_faulty(const Instance& inst, Dispatcher& dispatcher,
                                   const FaultPlan& plan,
                                   const RecoveryPolicy& recovery,
                                   SchedObserver* observer, const RunTag& tag,
                                   bool unsafe_ignore_downtime) {
  OnlineEngine engine(inst.m(), dispatcher);
  engine.set_faults(&plan, recovery);
  if (unsafe_ignore_downtime) engine.set_unsafe_ignore_downtime(true);
  if (observer != nullptr) {
    observer->on_run_begin(RunInfo{inst.m(), dispatcher.name(), tag});
    engine.set_observer(observer);
  }
  for (int i = 0; i < inst.n(); ++i) engine.release(inst.task(i));
  engine.drain_faults();
  if (observer != nullptr) {
    double makespan = 0;
    for (double c : engine.completions()) makespan = std::max(makespan, c);
    observer->on_run_end(makespan);
  }
  return engine;
}

Schedule run_dispatcher(const Instance& inst, Dispatcher& dispatcher) {
  OnlineEngine engine(inst.m(), dispatcher);
  Schedule sched(inst);
  for (int i = 0; i < inst.n(); ++i) {
    const Assignment a = engine.release(inst.task(i));
    sched.assign(i, a.machine, a.start);
  }
  return sched;
}

Schedule run_dispatcher(const Instance& inst, Dispatcher& dispatcher,
                        SchedObserver& observer, const RunTag& tag) {
  OnlineEngine engine(inst.m(), dispatcher);
  observer.on_run_begin(RunInfo{inst.m(), dispatcher.name(), tag});
  engine.set_observer(&observer);
  Schedule sched(inst);
  for (int i = 0; i < inst.n(); ++i) {
    const Assignment a = engine.release(inst.task(i));
    sched.assign(i, a.machine, a.start);
  }
  engine.finish_observation();
  observer.on_run_end(sched.makespan());
  return sched;
}

}  // namespace flowsched
