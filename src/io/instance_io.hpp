// Plain-text instance and schedule serialization.
//
// Instance format (one directive per line, '#' comments, blank lines
// ignored):
//
//     # a 4-machine instance
//     machines 4
//     task <release> <proc> <machines> [weight]
//
// where <machines> is either '*' (all machines) or a comma-separated list
// of 1-based machine names/indices, e.g. "1,2" or "M1,M2", and the optional
// trailing <weight> is the flow-time weight w_i > 0 (written back only when
// it differs from the unweighted default 1). Tasks may appear
// in any order; the Instance constructor sorts by release.
//
// Schedules are exported as CSV: task, release, proc, machine (1-based),
// start, completion, flow.
#pragma once

#include <iosfwd>
#include <string>

#include "model/instance.hpp"
#include "model/schedule.hpp"

namespace flowsched {

/// Parses the text format above. Throws std::invalid_argument with a
/// line-numbered message on malformed input.
Instance parse_instance(std::istream& in);
Instance parse_instance_string(const std::string& text);

/// Reads a file; throws std::runtime_error when unreadable.
Instance load_instance(const std::string& path);

/// Writes the same format back (round-trips through parse_instance).
void write_instance(std::ostream& out, const Instance& inst);
std::string instance_to_string(const Instance& inst);

/// Schedule CSV with a header row.
void write_schedule_csv(std::ostream& out, const Schedule& sched);

}  // namespace flowsched
