// flowsched_fuzz — the differential fuzzer driver (src/check/fuzz.hpp).
//
// Usage:
//   flowsched_fuzz run [--seed N] [--runs N] [--threads N]
//       [--structure inclusive|nested|ksize|interval|adversary|all]
//       [--corpus-dir DIR] [--inject-bug] [--no-shrink] [--no-oracles]
//       [--lp-every N] [--fault-every N] [--inject-fault-bug]
//       [--stream-every N] [--no-bounds] [--shard-every N]
//       [--nc-every N] [--inject-nc-bug] [--weighted-every N]
//       [--control-every N] [--inject-control-bug]
//       [--max-n N] [--max-m N] [--unit]
//   flowsched_fuzz replay --input FILE [--no-oracles]
//
// `run` executes a fuzz campaign: each run draws a random structured
// instance, pushes it through every policy under the InvariantAuditor with
// its bound oracles armed, and cross-checks the schedules against the
// offline oracles; failures are shrunk and written as reproducer files
// under --corpus-dir. The report is byte-identical for a given --seed at
// any --threads. Every --fault-every-th run additionally executes the
// fault-injection battery (seeded machine failures and recovery policies
// audited by the [fault-*] checks); --inject-fault-bug plants a
// downtime-ignoring engine backdoor the battery must catch and shrink.
// Every --nc-every-th run executes the non-clairvoyant battery (hidden
// processing times, per-machine setup charges, the [nc-*]/[diff-nc*]
// checks); --inject-nc-bug plants a clairvoyance leak that [nc-no-peek]
// must catch and shrink. Every --weighted-every-th run executes the
// weighted battery ([weighted-*]/[diff-weighted]) on a randomly-weighted
// copy of the instance. Every --control-every-th run executes the
// adaptive-replication control battery ([control-*]/[diff-control]:
// audited closed-loop re-tuning plus the controller-off-vs-static
// differential); --inject-control-bug plants a flapping controller that
// [control-determinism]/[control-movement-bound] must catch and shrink.
// `replay` re-checks a committed reproducer (or any instance / fault-case /
// ncsetup file) through the matching battery.
//
// Exit status: 0 clean, 1 findings / replay violations, 2 usage error.
#include <iostream>
#include <stdexcept>
#include <string>

#include "check/fuzz.hpp"
#include "util/args.hpp"

using namespace flowsched;

namespace {

std::vector<FuzzStructure> parse_structures(const std::string& name) {
  if (name.empty() || name == "all") return {};
  for (FuzzStructure s : kAllFuzzStructures) {
    if (to_string(s) == name) return {s};
  }
  throw std::invalid_argument(
      "unknown --structure '" + name +
      "' (expected inclusive|nested|ksize|interval|adversary|all)");
}

int run_command(const ArgParser& args) {
  FuzzConfig config;
  config.seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  config.runs = args.integer("runs", 64);
  config.threads = args.integer("threads", 1);
  config.structures = parse_structures(args.get("structure", "all"));
  config.corpus_dir = args.get("corpus-dir", "");
  config.inject_bug = args.has("inject-bug");
  config.shrink = !args.has("no-shrink");
  if (args.has("no-oracles")) {
    config.bound_oracles = false;
    config.differential = false;
  }
  config.lp_every = args.integer("lp-every", config.lp_every);
  config.fault_every = args.integer("fault-every", config.fault_every);
  config.stream_every = args.integer("stream-every", config.stream_every);
  if (args.has("no-bounds")) config.bounds_diff = false;
  config.shard_every = args.integer("shard-every", config.shard_every);
  config.inject_fault_bug = args.has("inject-fault-bug");
  config.nc_every = args.integer("nc-every", config.nc_every);
  config.inject_nc_bug = args.has("inject-nc-bug");
  config.weighted_every = args.integer("weighted-every", config.weighted_every);
  config.control_every = args.integer("control-every", config.control_every);
  config.inject_control_bug = args.has("inject-control-bug");
  config.sizes.max_n = args.integer("max-n", config.sizes.max_n);
  config.sizes.max_m = args.integer("max-m", config.sizes.max_m);
  if (args.has("unit")) config.sizes.unit_tasks = true;
  args.reject_unknown();

  const FuzzReport report = run_fuzz(config);
  std::cout << report.summary();
  return report.ok() ? 0 : 1;
}

int replay_command(const ArgParser& args) {
  const std::string input = args.get("input", "");
  const bool oracles = !args.has("no-oracles");
  args.reject_unknown();
  if (input.empty()) {
    throw std::invalid_argument("replay requires --input FILE");
  }
  const std::vector<std::string> violations =
      replay_corpus_file(input, oracles, oracles);
  if (violations.empty()) {
    std::cout << "clean: " << input << "\n";
    return 0;
  }
  for (const std::string& v : violations) std::cout << v << "\n";
  std::cout << violations.size() << " violation(s): " << input << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    const std::string command = args.command().empty() ? "run" : args.command();
    if (command == "run") return run_command(args);
    if (command == "replay") return replay_command(args);
    throw std::invalid_argument("unknown command '" + command +
                                "' (expected run|replay)");
  } catch (const std::exception& e) {
    std::cerr << "flowsched_fuzz: " << e.what() << "\n";
    return 2;
  }
}
