#include "check/stream_audit.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace flowsched {
namespace {

std::string fmt(double x) {
  std::ostringstream os;
  os.precision(17);
  os << x;
  return os.str();
}

// EFT-class policies commit start = max(r, min_j C_j): the EFT variants by
// construction, FIFO because it is EFT on unrestricted sets (Prop. 1).
bool eft_class(const std::string& algo) {
  return algo.rfind("EFT-", 0) == 0 || algo == "FIFO";
}

}  // namespace

StreamAuditor::StreamAuditor(StreamAuditConfig config)
    : config_(std::move(config)) {}

void StreamAuditor::violation(const std::string& line) {
  if (static_cast<int>(violations_.size()) >= config_.max_violations) return;
  violations_.push_back(algo_ + ": " + line);
}

void StreamAuditor::on_run_begin(const RunInfo& info) {
  if (begun_) {
    violations_.push_back(algo_ +
                          ": [stream-protocol] on_run_begin while a run is open");
  }
  begun_ = true;
  algo_ = info.algo;
  work_conservation_ = config_.force_work_conservation || eft_class(info.algo);
  frontier_.assign(static_cast<std::size_t>(info.m > 0 ? info.m : 0), 0.0);
  if (info.m <= 0) violation("[stream-protocol] RunInfo.m <= 0");
  next_task_ = 0;
  stage_ = 3;
  last_release_ = 0;
}

void StreamAuditor::on_event(const ObsEvent& e) {
  if (!begun_) {
    violation("[stream-protocol] event outside a run");
    return;
  }
  switch (e.kind) {
    case ObsEventKind::kTaskReleased: {
      if (stage_ != 3) {
        violation("[stream-protocol] task " + std::to_string(e.task) +
                  " released while task " + std::to_string(next_task_) +
                  " is mid-milestones");
      }
      if (e.task != static_cast<int>(next_task_)) {
        violation("[stream-protocol] task ids not sequential: got " +
                  std::to_string(e.task) + ", expected " +
                  std::to_string(next_task_));
      }
      if (e.release < last_release_) {
        violation("[stream-protocol] releases decrease at task " +
                  std::to_string(e.task) + " (" + fmt(e.release) + " < " +
                  fmt(last_release_) + ")");
      }
      if (e.time != e.release) {
        violation("[stream-protocol] released event time " + fmt(e.time) +
                  " != release " + fmt(e.release));
      }
      last_release_ = e.release;
      stage_ = 0;
      cur_release_ = e.release;
      cur_proc_ = e.proc;
      cur_machine_ = -1;
      cur_eligible_.clear();
      if (e.eligible != nullptr) {
        const auto& machines = e.eligible->machines();
        cur_eligible_.assign(machines.begin(), machines.end());
      }
      break;
    }
    case ObsEventKind::kTaskDispatched: {
      if (stage_ != 0 || e.task != static_cast<int>(next_task_)) {
        violation("[stream-protocol] dispatched out of order for task " +
                  std::to_string(e.task));
        break;
      }
      stage_ = 1;
      cur_machine_ = e.machine;
      const bool eligible =
          std::find(cur_eligible_.begin(), cur_eligible_.end(), e.machine) !=
          cur_eligible_.end();
      if (!eligible) {
        violation("[stream-eligibility] task " + std::to_string(e.task) +
                  " dispatched to machine " + std::to_string(e.machine) +
                  " outside its processing set");
      }
      break;
    }
    case ObsEventKind::kTaskStarted: {
      if (stage_ != 1 || e.task != static_cast<int>(next_task_)) {
        violation("[stream-protocol] started out of order for task " +
                  std::to_string(e.task));
        break;
      }
      stage_ = 2;
      cur_start_ = e.time;
      if (cur_machine_ >= 0 &&
          static_cast<std::size_t>(cur_machine_) < frontier_.size()) {
        const double expected = std::max(
            cur_release_, frontier_[static_cast<std::size_t>(cur_machine_)]);
        if (e.time != expected) {
          violation("[stream-accounting] task " + std::to_string(e.task) +
                    " starts at " + fmt(e.time) + ", expected max(release, C_" +
                    std::to_string(cur_machine_) + ") = " + fmt(expected));
        }
      }
      if (work_conservation_ && !cur_eligible_.empty()) {
        double best = std::numeric_limits<double>::infinity();
        for (int j : cur_eligible_) {
          if (j >= 0 && static_cast<std::size_t>(j) < frontier_.size()) {
            best = std::min(best, frontier_[static_cast<std::size_t>(j)]);
          }
        }
        const double earliest = std::max(cur_release_, best);
        if (e.time != earliest) {
          violation("[stream-work-conservation] task " +
                    std::to_string(e.task) + " starts at " + fmt(e.time) +
                    " but an eligible machine was free at " + fmt(earliest));
        }
      }
      break;
    }
    case ObsEventKind::kTaskCompleted: {
      if (stage_ != 2 || e.task != static_cast<int>(next_task_)) {
        violation("[stream-protocol] completed out of order for task " +
                  std::to_string(e.task));
        break;
      }
      stage_ = 3;
      if (e.time != cur_start_ + cur_proc_) {
        violation("[stream-accounting] task " + std::to_string(e.task) +
                  " completes at " + fmt(e.time) + " != start + proc = " +
                  fmt(cur_start_ + cur_proc_));
      }
      if (cur_machine_ >= 0 &&
          static_cast<std::size_t>(cur_machine_) < frontier_.size()) {
        frontier_[static_cast<std::size_t>(cur_machine_)] = e.time;
      }
      ++next_task_;
      break;
    }
    case ObsEventKind::kMachineBusy:
    case ObsEventKind::kMachineIdle:
      // Full-schedule occupancy narration (StreamingEngine emits it only
      // when a driver asks); nothing for the online checks to do with it.
      break;
  }
}

void StreamAuditor::on_run_end(double /*makespan*/) {
  if (!begun_) {
    violation("[stream-protocol] on_run_end without on_run_begin");
    return;
  }
  if (stage_ != 3) {
    violation("[stream-protocol] run ended with task " +
              std::to_string(next_task_) + " mid-milestones");
  }
  begun_ = false;
}

}  // namespace flowsched
