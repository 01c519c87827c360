// Fault-case serialization: an instance plus its availability trace.
//
// A fault case is the instance text format (io/instance_io.hpp) extended
// with two directives:
//
//     down <machine> <from> <to>    # machine 1-based; to may be "inf"
//     recovery <kind> [<max_retries> <base> <cap> <jitter> <jitter_seed>]
//
// A recovery directive carries either no parameters (the policy defaults)
// or all five and nothing after them: max_retries an integer >= 0; base,
// cap and jitter finite and >= 0, with jitter at most 2^53 grid steps; the
// seed an unsigned integer. Anything else fails with the line number.
//
// Plain instance files are valid fault cases with an empty plan, so the
// fuzz corpus can mix both and the replayer picks the right audit per file.
#pragma once

#include <iosfwd>
#include <string>

#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "model/instance.hpp"

namespace flowsched {

/// One parsed fault case. `plan.fault_free()` distinguishes a plain
/// instance from a genuine fault trace.
struct FaultCase {
  Instance instance;
  FaultPlan plan{1};
  RecoveryPolicy recovery;
};

/// True when the file contains at least one `down` or `recovery` directive
/// (cheap scan; used by the corpus replayer to route files).
bool has_fault_directives(const std::string& text);

/// Parses the extended format. Throws std::invalid_argument with a
/// line-numbered message on malformed fault directives, and whatever
/// parse_instance_string throws for the instance part.
FaultCase parse_fault_case(const std::string& text);

/// Writes instance + recovery + down directives (round-trips through
/// parse_fault_case).
void write_fault_case(std::ostream& out, const Instance& inst,
                      const FaultPlan& plan, const RecoveryPolicy& recovery);
std::string fault_case_to_string(const Instance& inst, const FaultPlan& plan,
                                 const RecoveryPolicy& recovery);

}  // namespace flowsched
