// Figure 3: the EFT-Min schedule of the Theorem 8 adversary, m = 6, k = 3,
// from t = 0 to t = 4, rendered as an ASCII Gantt chart, and the same
// stream's optimal schedule (every flow = 1) for contrast.
//
//   bench_fig3_schedule [--trace-dir DIR]
//
// With --trace-dir the bench also writes DIR/fig3_trace.json: a Chrome
// trace_event file (docs/trace-format.md) holding both runs — the EFT-Min
// schedule traced live through the engine observer, and the offline optimum
// replayed through replay_schedule — so the Figure 3 contrast can be
// scrubbed side by side in Perfetto.
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "adversary/th8_stream.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "sched/engine.hpp"
#include "util/args.hpp"

using namespace flowsched;

int bench_main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::string trace_dir = args.get("trace-dir", "");
  args.reject_unknown();

  const int m = 6;
  const int k = 3;
  const int steps = 4;

  std::printf("== Figure 3: EFT-Min on the Theorem 8 adversary (m=6, k=3) ==\n\n");
  std::printf("Tasks are released m per time step; the i-th task of a step\n");
  std::printf("has type m-k-i+2 (interval start) for i <= m-k, and type 1\n");
  std::printf("afterwards. Cell numbers are task ids (step*%d + position).\n\n", m);

  TraceRecorder trace;

  const auto inst = th8_instance(m, k, steps);
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched =
      trace_dir.empty()
          ? run_dispatcher(inst, eft)
          : run_dispatcher(inst, eft, trace,
                           RunTag{.experiment = "bench_fig3_schedule"});
  std::printf("--- EFT-Min schedule ---\n%s\n", sched.gantt().c_str());
  std::printf("EFT-Min Fmax over %d steps: %.0f\n\n", steps, sched.max_flow());

  const auto opt = th8_optimal_schedule(inst, m, k);
  if (!trace_dir.empty()) {
    replay_schedule(
        opt,
        RunInfo{.m = m,
                .algo = "OPT",
                .tag = RunTag{.experiment = "bench_fig3_schedule", .rep = 1}},
        trace);
  }
  std::printf("--- Offline optimal schedule (paper's strategy) ---\n%s\n",
              opt.gantt().c_str());
  std::printf("Optimal Fmax: %.0f\n\n", opt.max_flow());

  if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/fig3_trace.json";
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open " + path);
    trace.write_json(out);
    std::fprintf(stderr, "trace (%d runs, %zu events) -> %s\n", trace.runs(),
                 trace.events(), path.c_str());
  }

  // The long-run behaviour: EFT-Min converges to flow m-k+1 = 4.
  EftDispatcher eft_long(TieBreakKind::kMin);
  const auto result = run_th8(eft_long, m, k);
  std::printf("Long-run EFT-Min Fmax: %.0f (theory: m-k+1 = %d), OPT = %.0f\n",
              result.achieved_fmax, m - k + 1, result.opt_fmax);
  return 0;
}

// A usage error (unknown option, stray argument, unwritable --trace-dir)
// is reported on stderr with exit status 2, like the other tools.
int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_fig3_schedule: %s\n", e.what());
    return 2;
  }
}
