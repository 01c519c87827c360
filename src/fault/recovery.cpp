#include "fault/recovery.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace flowsched {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* recovery_kind_name(RecoveryKind kind) {
  switch (kind) {
    case RecoveryKind::kImmediate: return "immediate";
    case RecoveryKind::kBackoff: return "backoff";
    case RecoveryKind::kCheckpoint: return "checkpoint";
  }
  return "?";
}

RecoveryKind parse_recovery_kind(const std::string& name) {
  if (name == "immediate") return RecoveryKind::kImmediate;
  if (name == "backoff") return RecoveryKind::kBackoff;
  if (name == "checkpoint") return RecoveryKind::kCheckpoint;
  throw std::invalid_argument("unknown recovery kind: " + name);
}

double RecoveryPolicy::retry_time(int task, int attempt, double kill_time) const {
  if (kind != RecoveryKind::kBackoff) return kill_time;
  double delay = backoff_base;
  for (int k = 0; k < attempt && delay < backoff_cap; ++k) delay *= 2;
  delay = std::min(delay, backoff_cap);
  if (jitter > 0 && grid > 0) {
    const auto span = static_cast<std::uint64_t>(jitter / grid);
    const std::uint64_t h = splitmix64(
        jitter_seed ^ splitmix64(static_cast<std::uint64_t>(task) * 0x10001ULL +
                                 static_cast<std::uint64_t>(attempt)));
    delay += static_cast<double>(h % (span + 1)) * grid;
  }
  return kill_time + delay;
}

std::string RecoveryPolicy::str() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "recovery %s %d %.17g %.17g %.17g %llu",
                recovery_kind_name(kind), max_retries, backoff_base,
                backoff_cap, jitter,
                static_cast<unsigned long long>(jitter_seed));
  return buf;
}

void FaultLog::begin_task(int task) {
  if (task != tasks())
    throw std::logic_error("FaultLog: tasks must be registered in order");
  fates_.push_back(TaskFate::kPending);
  completing_.push_back(0);
}

void FaultStats::count(const FaultAttempt& attempt) {
  if (attempt.machine < 0) {
    ++parked;
  } else {
    ++attempts;
    if (attempt.killed) ++kills;
  }
}

void FaultStats::count(TaskFate fate) {
  if (fate == TaskFate::kCompleted) {
    ++completed;
  } else if (fate == TaskFate::kDropped) {
    ++dropped;
  }
}

void FaultLog::record(const FaultAttempt& attempt) {
  attempts_.push_back(attempt);
  stats_.count(attempt);
}

void FaultLog::settle(int task, TaskFate fate) {
  if (task < 0 || task >= tasks()) throw std::logic_error("FaultLog: bad task");
  auto idx = static_cast<std::size_t>(task);
  if (fates_[idx] != TaskFate::kPending)
    throw std::logic_error("FaultLog: task settled twice");
  if (fate == TaskFate::kCompleted) {
    if (attempts_.empty() || attempts_.back().task != task ||
        attempts_.back().machine < 0 || attempts_.back().killed) {
      throw std::logic_error(
          "FaultLog: a completed task's last attempt must complete it");
    }
    completing_[idx] = attempts_.size() - 1;
  }
  fates_[idx] = fate;
  stats_.count(fate);
}

TaskFate FaultLog::fate(int task) const {
  if (task < 0 || task >= tasks()) throw std::logic_error("FaultLog: bad task");
  return fates_[static_cast<std::size_t>(task)];
}

double FaultLog::completion(int task) const {
  if (fate(task) != TaskFate::kCompleted)
    throw std::logic_error("FaultLog: completion of a non-completed task");
  return attempts_[completing_[static_cast<std::size_t>(task)]].end;
}

const FaultAttempt* FaultLog::completing_segment(int task) const {
  if (fate(task) != TaskFate::kCompleted) return nullptr;
  return &attempts_[completing_[static_cast<std::size_t>(task)]];
}

}  // namespace flowsched
