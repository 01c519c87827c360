#include "io/instance_io.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace flowsched {
namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument("parse_instance: line " + std::to_string(line) +
                              ": " + message);
}

// Parses "*", "1,3,4" or "M1,M3,M4" (1-based) into a ProcSet (0-based).
ProcSet parse_machines(const std::string& spec, int line) {
  if (spec == "*") return {};
  if (spec.empty() || spec.front() == ',' || spec.back() == ',' ||
      spec.find(",,") != std::string::npos) {
    fail(line, "malformed machine list '" + spec + "'");
  }
  std::vector<int> machines;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty() && (token[0] == 'M' || token[0] == 'm')) {
      token.erase(0, 1);
    }
    try {
      std::size_t used = 0;
      const int one_based = std::stoi(token, &used);
      if (used != token.size()) fail(line, "bad machine token '" + token + "'");
      if (one_based < 1) fail(line, "machine indices are 1-based");
      machines.push_back(one_based - 1);
    } catch (const std::invalid_argument&) {
      fail(line, "bad machine token '" + token + "'");
    } catch (const std::out_of_range&) {
      fail(line, "machine index out of range");
    }
  }
  if (machines.empty()) fail(line, "empty machine list");
  return ProcSet(std::move(machines));
}

}  // namespace

Instance parse_instance(std::istream& in) {
  int m = -1;
  std::vector<Task> tasks;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::string directive;
    if (!(line >> directive)) continue;  // blank
    if (directive == "machines") {
      if (m >= 0) fail(line_no, "duplicate 'machines' directive");
      if (!(line >> m) || m <= 0) fail(line_no, "need 'machines <positive>'");
    } else if (directive == "task") {
      if (m < 0) fail(line_no, "'task' before 'machines'");
      Task t;
      std::string spec;
      if (!(line >> t.release >> t.proc >> spec)) {
        fail(line_no, "need 'task <release> <proc> <machines>'");
      }
      if (t.release < 0) fail(line_no, "negative release");
      if (!(t.proc > 0)) fail(line_no, "non-positive processing time");
      t.eligible = parse_machines(spec, line_no);
      if (!t.eligible.within(m)) fail(line_no, "machine index exceeds m");
      // Optional 4th token: the flow-time weight w_i (defaults to 1).
      if (line >> t.weight) {
        if (!(t.weight > 0)) fail(line_no, "non-positive weight");
      } else {
        line.clear();
        t.weight = 1.0;
      }
      tasks.push_back(std::move(t));
      std::string extra;
      if (line >> extra) fail(line_no, "trailing tokens after task");
    } else {
      fail(line_no, "unknown directive '" + directive + "'");
    }
  }
  if (m < 0) throw std::invalid_argument("parse_instance: missing 'machines'");
  return Instance(m, std::move(tasks));
}

Instance parse_instance_string(const std::string& text) {
  std::istringstream in(text);
  return parse_instance(in);
}

Instance load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_instance: cannot open " + path);
  return parse_instance(in);
}

void write_instance(std::ostream& out, const Instance& inst) {
  // Shortest representation that round-trips through parse_instance.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "machines " << inst.m() << "\n";
  for (const Task& t : inst.tasks()) {
    out << "task " << t.release << ' ' << t.proc << ' ';
    if (t.eligible.size() == inst.m()) {
      out << '*';
    } else {
      const auto& machines = t.eligible.machines();
      for (std::size_t i = 0; i < machines.size(); ++i) {
        if (i > 0) out << ',';
        out << machines[i] + 1;
      }
    }
    if (t.weight != 1.0) out << ' ' << t.weight;
    out << "\n";
  }
}

std::string instance_to_string(const Instance& inst) {
  std::ostringstream out;
  write_instance(out, inst);
  return out.str();
}

void write_schedule_csv(std::ostream& out, const Schedule& sched) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  const Instance& inst = sched.instance();
  out << "task,release,proc,machine,start,completion,flow\n";
  for (int i = 0; i < inst.n(); ++i) {
    out << i << ',' << inst.task(i).release << ',' << inst.task(i).proc << ',';
    if (sched.assigned(i)) {
      out << sched.machine(i) + 1 << ',' << sched.start(i) << ','
          << sched.completion(i) << ',' << sched.flow(i);
    } else {
      out << ",,,";
    }
    out << "\n";
  }
}

}  // namespace flowsched
