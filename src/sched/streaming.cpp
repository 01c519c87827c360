#include "sched/streaming.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flowsched {

namespace {
constexpr double kInfTime = std::numeric_limits<double>::infinity();
}  // namespace

StreamingEngine::StreamingEngine(int m, Dispatcher& dispatcher)
    : m_(m),
      dispatcher_(&dispatcher),
      all_(ProcSet::all(m > 0 ? m : 1)),
      completion_(static_cast<std::size_t>(m > 0 ? m : 1), 0.0),
      load_(static_cast<std::size_t>(m > 0 ? m : 1), 0.0),
      count_(static_cast<std::size_t>(m > 0 ? m : 1), 0),
      queued_(static_cast<std::size_t>(m > 0 ? m : 1), 0),
      rings_(static_cast<std::size_t>(m > 0 ? m : 1)),
      fronts_(kFrontWidth, kInitialBuckets) {
  if (m <= 0) throw std::invalid_argument("StreamingEngine: m <= 0");
  dispatcher_->reset(m);
}

void StreamingEngine::settle_until(double time) {
  // Segments ending at exactly `time` settle: a task finishing at the
  // release instant is no longer queued there. Per machine, segments
  // settle in push order, so the finished-work sum is accumulated in one
  // fixed order.
  const bool nc = clairvoyance_ == Clairvoyance::kNonClairvoyant;
  int machine;
  while (fronts_.pop_due(time, machine)) {
    const auto j = static_cast<std::size_t>(machine);
    if (nc) finished_work_[j] += front_work_[j];
    int retired = 1;
    Ring& ring = rings_[j];
    while (ring.size > 0) {
      const std::uint32_t head = ring.head;
      ring.head = (head + 1) & (ring.cap - 1);
      --ring.size;
      if (ring.buf[head] > time) {
        fronts_.push(ring.buf[head], machine);
        if (nc) front_work_[j] = ring.buf[ring.cap + head];
        break;
      }
      if (nc) finished_work_[j] += ring.buf[ring.cap + head];
      ++retired;
    }
    queued_[j] -= retired;
    in_flight_ -= static_cast<std::size_t>(retired);
  }
}

void StreamingEngine::set_clairvoyance(Clairvoyance c, double setup) {
  if (released_ > 0) {
    throw std::logic_error(
        "StreamingEngine::set_clairvoyance: switch before releases");
  }
  if (faults_ != nullptr && c == Clairvoyance::kNonClairvoyant) {
    throw std::logic_error(
        "StreamingEngine::set_clairvoyance: incompatible with fault injection");
  }
  if (setup < 0) {
    throw std::invalid_argument("StreamingEngine::set_clairvoyance: setup < 0");
  }
  clairvoyance_ = c;
  setup_ = c == Clairvoyance::kNonClairvoyant ? setup : 0.0;
  if (c == Clairvoyance::kNonClairvoyant) {
    const auto um = static_cast<std::size_t>(m_);
    finished_work_.assign(um, 0.0);
    front_work_.assign(um, 0.0);
    censored_completion_.assign(um, 0.0);
    censored_load_.assign(um, 0.0);
    last_set_.assign(um, ProcSet());
    has_last_set_.assign(um, false);
  }
}

void StreamingEngine::admit(const Task& task) {
  // Negated, so a NaN release is rejected instead of disabling the check.
  if (!(task.release >= last_release_)) {
    throw std::invalid_argument(
        "StreamingEngine::release: releases must be non-decreasing");
  }
  last_release_ = task.release;
  if (!task.eligible.within(m_)) {
    throw std::invalid_argument(
        "StreamingEngine::release: processing set outside [0,m)");
  }
  if (!(task.proc > 0)) {
    throw std::invalid_argument("StreamingEngine::release: proc <= 0");
  }
  if (!std::isfinite(task.proc)) {
    throw std::invalid_argument("StreamingEngine::release: proc not finite");
  }
}

int StreamingEngine::choose(const Task& probe, long long task_id) {
  int u;
  if (clairvoyance_ == Clairvoyance::kNonClairvoyant && !nc_leak_) {
    // Censored policy view: the frontier of a machine that is observably
    // busy is the dispatch instant itself ("still running, that is all you
    // know"), an idle machine's frontier is its last completion (already
    // observed); load is settled work only; proc is a placeholder.
    for (int j : probe.eligible.machines()) {
      const auto ju = static_cast<std::size_t>(j);
      censored_completion_[ju] =
          queued_[ju] > 0 ? probe.release : completion_[ju];
      censored_load_[ju] = finished_work_[ju];
    }
    Task censored = probe;
    censored.proc = 1.0;  // p_i is hidden until completion
    const MachineState state{censored_completion_, censored_load_, count_,
                             queued_, task_id};
    u = dispatcher_->dispatch(censored, state);
  } else {
    const MachineState state{completion_, load_, count_, queued_, task_id};
    u = dispatcher_->dispatch(probe, state);
  }
  if (u < 0 || u >= m_ || !probe.eligible.contains(u)) {
    throw std::logic_error(
        "StreamingEngine: dispatcher chose ineligible machine " +
        std::to_string(u) + " for set " + probe.eligible.str());
  }
  return u;
}

StreamingEngine::Decision StreamingEngine::decide(const Task& task,
                                                  long long task_id) {
  admit(task);
  settle_until(task.release);

  if (observer_ != nullptr) {
    ObsEvent e;
    e.kind = ObsEventKind::kTaskReleased;
    e.time = task.release;
    e.task = static_cast<int>(task_id);
    e.release = task.release;
    e.proc = task.proc;
    e.weight = task.weight;
    e.eligible = &task.eligible;
    observer_->on_event(e);
  }

  const int u = choose(task, task_id);
  const std::size_t uj = static_cast<std::size_t>(u);
  Decision d{task_id, task.release, task.proc, task.weight, u,
             std::max(task.release, completion_[uj]), 0.0, 0.0};
  if (clairvoyance_ == Clairvoyance::kNonClairvoyant) {
    // Setup is charged when the machine switches key ranges (previous
    // task's processing set differs); the first task on a machine warms up
    // for free.
    if (has_last_set_[uj] && !(last_set_[uj] == task.eligible)) d.setup = setup_;
    last_set_[uj] = task.eligible;
    has_last_set_[uj] = true;
  }
  // Left-to-right so C_i = (S_i + setup) + p_i is the exact dyadic value
  // the [setup-accounting] audit recomputes; with setup = 0 this is
  // bit-identical to the clairvoyant start + proc.
  d.finish = (d.start + d.setup) + task.proc;
  if (!std::isfinite(d.finish)) {
    // Only a fault-mode segment may never end.
    throw std::invalid_argument(
        "StreamingEngine::release: completion time overflows to +inf");
  }
  if (observer_ != nullptr) {
    ObsEvent e = task_event(d);
    e.kind = ObsEventKind::kTaskDispatched;
    e.time = d.release;
    observer_->on_event(e);
  }
  return d;
}

ObsEvent StreamingEngine::task_event(const Decision& d) {
  ObsEvent e;
  e.task = static_cast<int>(d.task);
  e.machine = d.machine;
  e.release = d.release;
  e.proc = d.proc;
  e.weight = d.weight;
  e.setup = d.setup;
  return e;
}

void StreamingEngine::commit(const Decision& d) {
  if (observer_ != nullptr) {
    narrate_busy(d.machine, d.start);
    // All four task milestones are known the moment the assignment commits
    // (immediate dispatch): started/completed carry future model times.
    ObsEvent e = task_event(d);
    e.kind = ObsEventKind::kTaskStarted;
    e.time = d.start;
    observer_->on_event(e);
    e.kind = ObsEventKind::kTaskCompleted;
    e.time = d.finish;
    observer_->on_event(e);
  }
  const std::size_t uj = static_cast<std::size_t>(d.machine);
  load_[uj] += d.proc;
  ++count_[uj];
  occupy(d.machine, d.finish, d.setup + d.proc);
  ++released_;
}

void StreamingEngine::narrate_busy(int machine, double start) {
  // Machine occupancy sits between the dispatched and started events: a
  // machine whose frontier the task starts past was idle in between.
  const std::size_t uj = static_cast<std::size_t>(machine);
  const double prev = completion_[uj];
  if (observed_busy_[uj] && !(start > prev)) return;
  if (observed_busy_[uj]) {
    observer_->on_event(ObsEvent{
        .kind = ObsEventKind::kMachineIdle, .time = prev, .machine = machine});
  }
  observer_->on_event(ObsEvent{
      .kind = ObsEventKind::kMachineBusy, .time = start, .machine = machine});
  observed_busy_[uj] = true;
}

void StreamingEngine::finish_observation() {
  if (observer_ == nullptr) return;
  for (std::size_t ji = 0; ji < observed_busy_.size(); ++ji) {
    const int j = static_cast<int>(ji);
    if (!observed_busy_[ji]) continue;
    observer_->on_event(ObsEvent{.kind = ObsEventKind::kMachineIdle,
                                 .time = completion_[ji],
                                 .machine = j});
    observed_busy_[ji] = false;
  }
}

std::vector<double> StreamingEngine::profile(double t) const {
  std::vector<double> w(completion_.size());
  for (std::size_t j = 0; j < w.size(); ++j) {
    w[j] = std::max(0.0, completion_[j] - t);
  }
  return w;
}

void StreamingEngine::occupy(int machine, double end, double work) {
  const auto j = static_cast<std::size_t>(machine);
  // Settling retires each machine's segments from the front, which is only
  // sound while its ends never decrease.
  if (!(end >= completion_[j])) {
    throw std::logic_error(
        "StreamingEngine: segment on machine " + std::to_string(machine) +
        " ends before the machine's previous end");
  }
  completion_[j] = end;
  ++in_flight_;
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
  const bool nc = clairvoyance_ == Clairvoyance::kNonClairvoyant;
  if (++queued_[j] == 1) {
    // A fault-mode segment that never ends stays queued for the rest of
    // the run, and so does everything behind it: neither needs storing.
    if (std::isfinite(end)) {
      fronts_.push(end, machine);
      if (fronts_.size() > refine_at_) refine_fronts();
    }
    if (nc) front_work_[j] = work;
    return;
  }
  if (!std::isfinite(end)) return;
  Ring& ring = rings_[j];
  if (ring.size == ring.cap) grow(ring);
  const std::uint32_t tail = (ring.head + ring.size) & (ring.cap - 1);
  ring.buf[tail] = end;
  if (nc) ring.buf[ring.cap + tail] = work;
  ++ring.size;
}

void StreamingEngine::refine_fronts() {
  // Fronts spread over a few service times, so at unit service time a
  // bucket holds about width x (busy machines) of them. Past eight, sorting
  // and ordered inserts into long buckets cost more than stepping over
  // empty ones. The width halves down to 2^-5, rebucketing the at most m
  // fronts once per halving.
  const double width = front_width_ / 2;
  CalendarQueue<int> finer(width, kInitialBuckets);
  while (!fronts_.empty()) {
    const double front = fronts_.top_time();
    finer.push(front, fronts_.pop());
  }
  fronts_ = std::move(finer);
  front_width_ = width;
  refine_at_ = width > kFinestFrontWidth
                   ? static_cast<std::size_t>(8 / width)
                   : std::numeric_limits<std::size_t>::max();
}

void StreamingEngine::grow(Ring& ring) const {
  const std::uint32_t cap = ring.cap == 0 ? kInitialRing : 2 * ring.cap;
  const std::uint32_t halves =
      clairvoyance_ == Clairvoyance::kNonClairvoyant ? 2 : 1;
  auto buf = std::make_unique<double[]>(std::size_t{halves} * cap);
  for (std::uint32_t h = 0; h < halves; ++h) {
    for (std::uint32_t i = 0; i < ring.size; ++i) {
      buf[h * cap + i] =
          ring.buf[h * ring.cap + ((ring.head + i) & (ring.cap - 1))];
    }
  }
  ring.buf = std::move(buf);
  ring.cap = cap;
  ring.head = 0;
}

Assignment StreamingEngine::release(double time, double proc,
                                    const ProcSet& eligible,
                                    long long task_id, double weight) {
  // The probe Task handed to the dispatcher is a member, and assigning M_i
  // to it shares the caller's ProcSet block, so a request allocates
  // nothing; `weight` rides along for the observer events only.
  probe_.release = time;
  probe_.proc = proc;
  probe_.eligible = eligible.empty() ? all_ : eligible;
  probe_.weight = weight;
  if (faults_ != nullptr) return release_faulty(task_id);
  const Decision d = decide(probe_, task_id);
  commit(d);
  return Assignment{d.machine, d.start};
}

void StreamingEngine::drain() {
  settle_until(std::numeric_limits<double>::max());
}

std::size_t StreamingEngine::memory_bytes() const {
  std::size_t bytes = 0;
  bytes += completion_.capacity() * sizeof(double);
  bytes += load_.capacity() * sizeof(double);
  bytes += count_.capacity() * sizeof(int);
  bytes += queued_.capacity() * sizeof(int);
  bytes += rings_.capacity() * sizeof(Ring);
  const std::size_t halves =
      clairvoyance_ == Clairvoyance::kNonClairvoyant ? 2 : 1;
  for (const Ring& ring : rings_) bytes += halves * ring.cap * sizeof(double);
  bytes += all_.machines().capacity() * sizeof(int);
  bytes += probe_.eligible.machines().capacity() * sizeof(int);
  bytes += fronts_.memory_bytes();
  bytes += observed_busy_.capacity() / 8;
  if (faults_ != nullptr) {
    const Faults& f = *faults_;
    bytes += sizeof(Faults);
    bytes += f.availability.memory_bytes();
    bytes += f.retries.memory_bytes();
    bytes += f.occupied.capacity() * sizeof(double);
    bytes += f.up.capacity() * sizeof(int);
    bytes += f.degraded.capacity() * sizeof(ProcSet);
    for (const ProcSet& set : f.degraded) {
      bytes += set.machines().capacity() * sizeof(int);
    }
  }
  return bytes;
}

// --- Fault layer ------------------------------------------------------------

StreamingEngine::Faults::Faults(const FaultPlan& plan,
                                const RecoveryPolicy& recovery, int m)
    : availability(plan),
      recovery(recovery),
      retries(kRetryWidth, kRetryBuckets, kMaxRetryBuckets, 0),
      occupied(static_cast<std::size_t>(m), 0.0),
      degraded(std::bit_floor(
          std::clamp(kDegradedMembers / static_cast<std::size_t>(m),
                     std::size_t{1}, kMaxDegradedSlots))) {}

const ProcSet& StreamingEngine::Faults::degraded_set() {
  const std::uint64_t hash = ProcSet::hash_of(up);
  ProcSet& slot = degraded[hash & (degraded.size() - 1)];
  if (slot.hash() != hash || slot.machines() != up) slot = ProcSet(up);
  return slot;
}

void StreamingEngine::set_faults(const FaultPlan* plan,
                                 RecoveryPolicy recovery) {
  if (released_ > 0) {
    throw std::logic_error(
        "StreamingEngine::set_faults: attach before releases");
  }
  if (plan != nullptr && clairvoyance_ == Clairvoyance::kNonClairvoyant) {
    throw std::logic_error(
        "StreamingEngine::set_faults: incompatible with non-clairvoyant mode");
  }
  if (plan != nullptr && plan->m() != m_) {
    throw std::invalid_argument(
        "StreamingEngine::set_faults: plan covers " + std::to_string(plan->m()) +
        " machines, engine has " + std::to_string(m_));
  }
  faults_ = plan != nullptr ? std::make_unique<Faults>(*plan, recovery, m_)
                            : nullptr;
}

const FaultStats& StreamingEngine::fault_stats() const {
  if (faults_ == nullptr) {
    throw std::logic_error("StreamingEngine::fault_stats: faults not active");
  }
  return faults_->stats;
}

const std::vector<double>& StreamingEngine::occupied() const {
  if (faults_ == nullptr) {
    throw std::logic_error("StreamingEngine::occupied: faults not active");
  }
  return faults_->occupied;
}

Assignment StreamingEngine::release_faulty(long long task_id) {
  admit(probe_);
  // From here on the probe is each attempt's dispatcher view, so the task
  // itself moves into its first attempt.
  Retry first{static_cast<int>(task_id), 0, probe_.proc, probe_.release,
              probe_.proc, probe_.weight, std::move(probe_.eligible)};
  const double now = first.release;

  // Retries that fall due before this release dispatch first, so model time
  // stays non-decreasing across all attempts (settling is monotone).
  process_retries(now);

  if (observer_ != nullptr) {
    ObsEvent e;
    e.kind = ObsEventKind::kTaskReleased;
    e.time = now;
    e.task = first.task;
    e.release = first.release;
    e.proc = first.proc;
    e.weight = first.weight;
    e.eligible = &first.eligible;
    observer_->on_event(e);
  }
  ++released_;
  if (fault_log_ != nullptr) fault_log_->begin_task(first.task);
  return dispatch_attempt(std::move(first), now);
}

void StreamingEngine::process_retries(double until) {
  CalendarQueue<Retry>& retries = faults_->retries;
  while (!retries.empty() && retries.top_time() <= until) {
    const double now = retries.top_time();
    dispatch_attempt(retries.pop(), now);
  }
}

void StreamingEngine::record(const FaultAttempt& attempt) {
  Faults& f = *faults_;
  f.stats.count(attempt);
  if (attempt.machine >= 0) {
    f.occupied[static_cast<std::size_t>(attempt.machine)] += attempt.work();
  }
  if (fault_log_ != nullptr) fault_log_->record(attempt);
}

void StreamingEngine::settle(const Retry& attempt, TaskFate fate,
                             double completion) {
  faults_->stats.count(fate);
  if (fault_log_ != nullptr) fault_log_->settle(attempt.task, fate);
  if (fate_sink_ != nullptr) {
    fate_sink_->on_fate(
        TaskEnd{attempt.task, fate, completion, attempt.release, attempt.weight});
  }
}

Assignment StreamingEngine::dispatch_attempt(Retry a, double now) {
  Faults& f = *faults_;
  const Assignment none{-1, -1.0};

  // Degraded eligible set M_i ∩ up(now); M_i itself while all of it is up.
  // The view carries the remaining work and the default weight.
  probe_.release = now;
  probe_.proc = a.remaining;
  probe_.weight = 1.0;
  if (ignore_downtime_) {
    probe_.eligible = a.eligible;
  } else {
    f.up.clear();
    for (int j : a.eligible.machines()) {
      if (f.availability.is_up(j, now)) f.up.push_back(j);
    }
    if (f.up.empty()) {
      // Every eligible machine is down: park until the earliest recovery.
      double wake = kInfTime;
      for (int j : a.eligible.machines()) {
        wake = std::min(wake, f.availability.next_up(j, now));
      }
      record(FaultAttempt{a.task, a.attempt, now, -1, now, wake, false});
      if (wake == kInfTime) {
        // No eligible machine ever recovers: reported drop, never a hang.
        settle(a, TaskFate::kDropped, -1.0);
      } else {
        f.retries.push(wake, std::move(a));
      }
      return none;
    }
    if (static_cast<int>(f.up.size()) == a.eligible.size()) {
      probe_.eligible = a.eligible;
    } else {
      probe_.eligible = f.degraded_set();
    }
  }

  // Queue depths at the attempt instant. Attempt times are globally
  // non-decreasing, and every segment (killed or completed) joins its
  // machine's finish FIFO, so a killed segment stays queued until its
  // crash.
  settle_until(now);
  const int u = choose(probe_, a.task);

  const std::size_t uj = static_cast<std::size_t>(u);
  double start = std::max(now, completion_[uj]);
  // The machine frontier may sit inside a later down interval; execution
  // can only begin once the machine is back up.
  if (!ignore_downtime_) start = f.availability.next_up(u, start);
  const double crash =
      ignore_downtime_ ? kInfTime : f.availability.next_down(u, start);

  if (start + a.remaining <= crash) {
    const double finish = start + a.remaining;
    occupy(u, finish, a.remaining);
    load_[uj] += a.remaining;
    ++count_[uj];
    record(FaultAttempt{a.task, a.attempt, now, u, start, finish, false});
    settle(a, TaskFate::kCompleted, finish);
    if (observer_ != nullptr) {
      // Only the successful attempt is narrated; killed segments and parks
      // live in the fault log.
      ObsEvent e;
      e.task = a.task;
      e.machine = u;
      e.release = a.release;
      e.proc = a.proc;
      e.weight = a.weight;
      e.kind = ObsEventKind::kTaskDispatched;
      e.time = now;
      observer_->on_event(e);
      e.kind = ObsEventKind::kTaskStarted;
      e.time = start;
      observer_->on_event(e);
      e.kind = ObsEventKind::kTaskCompleted;
      e.time = finish;
      observer_->on_event(e);
    }
    return Assignment{u, start};
  }

  // Killed at the crash: the machine was occupied up to the crash instant.
  occupy(u, crash, crash - start);
  load_[uj] += crash - start;
  record(FaultAttempt{a.task, a.attempt, now, u, start, crash, true});
  if (f.recovery.kind != RecoveryKind::kCheckpoint) {
    f.stats.wasted_work += crash - start;
    if (fault_log_ != nullptr) fault_log_->add_wasted(crash - start);
  }
  if (a.attempt >= f.recovery.max_retries) {
    settle(a, TaskFate::kDropped, -1.0);
    return none;
  }
  if (f.recovery.kind == RecoveryKind::kCheckpoint) {
    a.remaining -= crash - start;
  }
  const double retry = f.recovery.retry_time(a.task, a.attempt, crash);
  ++a.attempt;
  f.retries.push(retry, std::move(a));
  return none;
}

void StreamingEngine::drain_faults() {
  if (faults_ == nullptr) {
    throw std::logic_error("StreamingEngine::drain_faults: faults not active");
  }
  process_retries(kInfTime);
}

}  // namespace flowsched
