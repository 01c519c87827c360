// StreamAuditor: invariant auditing for unbounded event streams.
//
// InvariantAuditor (check/audit.hpp) retains every task record so its
// end-of-run oracles can replay the whole schedule — the right tool for
// fuzz-sized instances, unusable against a 10^8-request stream. The
// StreamAuditor validates the engine protocol online, holding O(m) state
// (the per-machine frontier and the one task between its milestones), so
// it can ride along any StreamingEngine / simulate_cluster_streaming run
// at full scale (docs/streaming.md).
//
// Checks, in the auditor's [tag] vocabulary:
//
//   [stream-protocol]     task ids are sequential from 0; the four
//                         milestones of a task arrive in order (released,
//                         dispatched, started, completed) before the next
//                         task's; releases are non-decreasing; milestone
//                         timestamps are consistent (released/dispatched at
//                         the release instant, started >= release).
//   [stream-eligibility]  the dispatched machine is in the task's
//                         processing set (captured at the released event).
//   [stream-accounting]   started == max(release, C_j before) on the chosen
//                         machine and completed == started + proc, both as
//                         exact doubles — the engine computes precisely
//                         these expressions, so any deviation is a real
//                         divergence, not rounding.
//   [stream-work-conservation]
//                         for EFT-class policies (EFT-*, FIFO): started ==
//                         max(release, min_{j in M_i} C_j before) — no
//                         eligible machine could have started the task
//                         earlier. Armed automatically from RunInfo::algo,
//                         or forced via the config.
#pragma once

#include <string>
#include <vector>

#include "obs/observer.hpp"

namespace flowsched {

struct StreamAuditConfig {
  /// Arm [stream-work-conservation] regardless of the run's algo name.
  bool force_work_conservation = false;
  /// Violations recorded before the auditor goes quiet (the stream may be
  /// unbounded; the first few lines carry all the signal).
  int max_violations = 16;
};

class StreamAuditor final : public SchedObserver {
 public:
  explicit StreamAuditor(StreamAuditConfig config = {});

  void on_run_begin(const RunInfo& info) override;
  void on_event(const ObsEvent& event) override;
  void on_run_end(double makespan) override;

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }

  long long tasks_seen() const { return next_task_; }

 private:
  void violation(const std::string& line);

  StreamAuditConfig config_;
  std::string algo_;
  bool work_conservation_ = false;
  bool begun_ = false;

  // Per-machine completion frontier mirror (the auditor's own accounting,
  // advanced at the dispatched milestone).
  std::vector<double> frontier_;

  // The single in-flight task record between its released and completed
  // milestones (milestones of one task are contiguous in emission order —
  // that contiguity is itself a [stream-protocol] check).
  long long next_task_ = 0;
  int stage_ = 3;             // 0 released, 1 dispatched, 2 started, 3 done
  double cur_release_ = 0;
  double cur_proc_ = 0;
  double cur_start_ = 0;
  int cur_machine_ = -1;
  std::vector<int> cur_eligible_;  // copied at the released event
  double last_release_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace flowsched
