#include "sched/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace flowsched {

namespace {
constexpr double kInfTime = std::numeric_limits<double>::infinity();
}  // namespace

OnlineEngine::OnlineEngine(int m, Dispatcher& dispatcher)
    : core_(m, dispatcher), observed_busy_(static_cast<std::size_t>(m), false) {}

Assignment OnlineEngine::release(Task task) {
  if (fault_plan_ != nullptr) return release_faulty(std::move(task));
  if (task.eligible.empty()) task.eligible = ProcSet::all(m());
  const StreamingEngine::Decision d = core_.decide(task, released());
  SchedObserver* observer = core_.observer_;
  if (observer != nullptr) {
    // Machine occupancy sits between the core's dispatched and started
    // events: a machine whose frontier the task starts past was idle in
    // between.
    const std::size_t uj = static_cast<std::size_t>(d.machine);
    const double prev = core_.completion_[uj];
    if (!observed_busy_[uj] || d.start > prev) {
      if (observed_busy_[uj]) {
        observer->on_event(ObsEvent{.kind = ObsEventKind::kMachineIdle,
                                    .time = prev,
                                    .machine = d.machine});
      }
      observer->on_event(ObsEvent{.kind = ObsEventKind::kMachineBusy,
                                  .time = d.start,
                                  .machine = d.machine});
      observed_busy_[uj] = true;
    }
  }
  core_.commit(d);
  if (clairvoyance() == Clairvoyance::kNonClairvoyant) setups_.push_back(d.setup);
  tasks_.push_back(std::move(task));
  assignments_.push_back(Assignment{d.machine, d.start});
  return assignments_.back();
}

void OnlineEngine::set_clairvoyance(Clairvoyance c, double setup) {
  if (fault_plan_ != nullptr) {
    throw std::logic_error(
        "OnlineEngine::set_clairvoyance: incompatible with fault injection");
  }
  core_.set_clairvoyance(c, setup);
}

void OnlineEngine::finish_observation() {
  SchedObserver* observer = core_.observer_;
  if (observer == nullptr) return;
  for (int j = 0; j < m(); ++j) {
    const std::size_t ji = static_cast<std::size_t>(j);
    if (!observed_busy_[ji]) continue;
    observer->on_event(ObsEvent{.kind = ObsEventKind::kMachineIdle,
                                .time = core_.completion_[ji],
                                .machine = j});
    observed_busy_[ji] = false;
  }
}

double OnlineEngine::completion_of(int i) const {
  // Under faults the final segment may be shorter than p_i (checkpoint
  // recovery), so the fault log is the only truthful source.
  if (fault_plan_ != nullptr) return fault_log_->completion(i);
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
  if (released() > 0)
    throw std::logic_error("OnlineEngine::set_faults: attach before releases");
  if (plan != nullptr && clairvoyance() == Clairvoyance::kNonClairvoyant)
    throw std::logic_error(
        "OnlineEngine::set_faults: incompatible with non-clairvoyant mode");
  if (plan != nullptr && plan->m() != m())
    throw std::invalid_argument("OnlineEngine::set_faults: plan covers " +
                                std::to_string(plan->m()) + " machines, engine has " +
                                std::to_string(m()));
  fault_plan_ = plan;
  availability_ = plan != nullptr ? FaultPlan::Cursor(*plan) : FaultPlan::Cursor();
  recovery_ = recovery;
  fault_log_ = plan != nullptr ? std::make_unique<FaultLog>() : nullptr;
}

const FaultLog& OnlineEngine::fault_log() const {
  if (fault_log_ == nullptr)
    throw std::logic_error("OnlineEngine::fault_log: faults not active");
  return *fault_log_;
}

Assignment OnlineEngine::release_faulty(Task task) {
  if (task.eligible.empty()) task.eligible = ProcSet::all(m());
  core_.admit(task);

  // Retries that fall due before this release dispatch first, so model time
  // stays non-decreasing across all attempts (the core settles completion
  // events monotonically).
  process_pending(task.release);

  const int id = released();
  SchedObserver* observer = core_.observer_;
  if (observer != nullptr) {
    ObsEvent e;
    e.kind = ObsEventKind::kTaskReleased;
    e.time = task.release;
    e.task = id;
    e.release = task.release;
    e.proc = task.proc;
    e.weight = task.weight;
    e.eligible = &task.eligible;
    observer->on_event(e);
  }
  const double release_time = task.release;
  const double proc = task.proc;
  tasks_.push_back(std::move(task));
  assignments_.push_back(Assignment{-1, -1.0});
  fault_log_->begin_task(id);
  dispatch_attempt(id, 0, release_time, proc);
  return assignments_[static_cast<std::size_t>(id)];
}

void OnlineEngine::process_pending(double until) {
  while (!pending_.empty() && pending_.top_time() <= until) {
    const double now = pending_.top_time();
    const PendingRetry p = pending_.pop();
    dispatch_attempt(p.task, p.attempt, now, p.remaining);
  }
}

void OnlineEngine::dispatch_attempt(int id, int attempt, double now,
                                    double remaining) {
  const std::size_t ti = static_cast<std::size_t>(id);
  SchedObserver* observer = core_.observer_;

  // Degraded eligible set M_i ∩ up(now); M_i itself while all of it is up.
  const ProcSet& eligible = tasks_[ti].eligible;
  probe_.release = now;
  probe_.proc = remaining;
  if (ignore_downtime_) {
    probe_.eligible = eligible;
  } else {
    up_buffer_.clear();
    for (int j : eligible.machines()) {
      if (availability_.is_up(j, now)) up_buffer_.push_back(j);
    }
    if (up_buffer_.empty()) {
      // Every eligible machine is down: park until the earliest recovery.
      double wake = kInfTime;
      for (int j : eligible.machines()) {
        wake = std::min(wake, availability_.next_up(j, now));
      }
      fault_log_->record(FaultAttempt{id, attempt, now, -1, now, wake, false});
      if (wake == kInfTime) {
        // No eligible machine ever recovers: reported drop, never a hang.
        fault_log_->settle(id, TaskFate::kDropped, -1.0);
      } else {
        pending_.push(wake, PendingRetry{id, attempt, remaining});
      }
      return;
    }
    if (static_cast<int>(up_buffer_.size()) == eligible.size()) {
      probe_.eligible = eligible;
    } else {
      probe_.eligible = ProcSet(up_buffer_);
    }
  }

  // Queue depths at the attempt instant. Attempt times are globally
  // non-decreasing, and every segment (killed or completed) joins its
  // machine's finish FIFO in the core, so a killed segment stays queued
  // until its crash.
  core_.settle_until(now);
  const int u = core_.choose(probe_, id);

  const std::size_t uj = static_cast<std::size_t>(u);
  double start = std::max(now, core_.completion_[uj]);
  // The machine frontier may sit inside a later down interval; execution
  // can only begin once the machine is back up.
  if (!ignore_downtime_) start = availability_.next_up(u, start);
  const double crash = ignore_downtime_ ? kInfTime : availability_.next_down(u, start);

  if (start + remaining <= crash) {
    const double finish = start + remaining;
    core_.occupy(u, finish, remaining);
    core_.load_[uj] += remaining;
    ++core_.count_[uj];
    assignments_[ti] = Assignment{u, start};
    fault_log_->record(FaultAttempt{id, attempt, now, u, start, finish, false});
    fault_log_->settle(id, TaskFate::kCompleted, finish);
    if (observer != nullptr) {
      // Only the successful attempt is narrated; killed segments and parks
      // live in the fault log. No machine busy/idle events under faults —
      // segment occupancy is not an alternating busy/idle staircase.
      ObsEvent e;
      e.task = id;
      e.machine = u;
      e.release = tasks_[ti].release;
      e.proc = tasks_[ti].proc;
      e.weight = tasks_[ti].weight;
      e.kind = ObsEventKind::kTaskDispatched;
      e.time = now;
      observer->on_event(e);
      e.kind = ObsEventKind::kTaskStarted;
      e.time = start;
      observer->on_event(e);
      e.kind = ObsEventKind::kTaskCompleted;
      e.time = finish;
      observer->on_event(e);
    }
    return;
  }

  // Killed at the crash: the machine was occupied up to the crash instant.
  core_.occupy(u, crash, crash - start);
  core_.load_[uj] += crash - start;
  fault_log_->record(FaultAttempt{id, attempt, now, u, start, crash, true});
  if (recovery_.kind != RecoveryKind::kCheckpoint) {
    fault_log_->add_wasted(crash - start);
  }
  if (attempt >= recovery_.max_retries) {
    fault_log_->settle(id, TaskFate::kDropped, -1.0);
    return;
  }
  const double next_remaining = recovery_.kind == RecoveryKind::kCheckpoint
                                    ? remaining - (crash - start)
                                    : remaining;
  pending_.push(recovery_.retry_time(id, attempt, crash),
                PendingRetry{id, attempt + 1, next_remaining});
}

void OnlineEngine::drain_faults() {
  if (fault_plan_ == nullptr)
    throw std::logic_error("OnlineEngine::drain_faults: faults not active");
  process_pending(kInfTime);
}

std::vector<double> OnlineEngine::profile(double t) const {
  const std::vector<double>& completion = core_.completions();
  std::vector<double> w(completion.size());
  for (std::size_t j = 0; j < w.size(); ++j) {
    w[j] = std::max(0.0, completion[j] - t);
  }
  return w;
}

Schedule OnlineEngine::snapshot() const {
  if (fault_plan_ != nullptr) {
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
