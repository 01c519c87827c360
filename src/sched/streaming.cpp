#include "sched/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flowsched {

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
  return bytes;
}

}  // namespace flowsched
