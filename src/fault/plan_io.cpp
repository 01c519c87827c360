#include "fault/plan_io.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/instance_io.hpp"

namespace flowsched {

namespace {

bool starts_with_directive(const std::string& line, const char* word) {
  std::istringstream ss(line);
  std::string first;
  return (ss >> first) && first == word;
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw std::invalid_argument("fault case line " + std::to_string(line_no) +
                              ": " + what);
}

double parse_time(const std::string& tok, int line_no) {
  if (tok == "inf") return std::numeric_limits<double>::infinity();
  double v = 0;
  std::size_t pos = 0;
  try {
    v = std::stod(tok, &pos);
  } catch (const std::exception&) {
    fail(line_no, "bad time '" + tok + "'");
  }
  if (pos != tok.size()) fail(line_no, "bad time '" + tok + "'");
  return v;
}

// A number that is the whole token: `convert` (a std::sto* function) must
// consume every character. `what` names the field in the error.
template <typename Convert>
auto parse_whole(const std::string& tok, int line_no, const char* what,
                 Convert convert) {
  std::size_t pos = 0;
  try {
    const auto v = convert(tok, &pos);
    if (pos == tok.size()) return v;
  } catch (const std::exception&) {
  }
  fail(line_no, std::string("bad recovery ") + what + " '" + tok + "'");
}

// The optional parameter list of a recovery directive: none (the policy's
// defaults) or all five, each a valid value.
void parse_recovery_params(std::istringstream& ss, int line_no,
                           RecoveryPolicy* recovery) {
  std::vector<std::string> toks;
  for (std::string tok; ss >> tok;) toks.push_back(tok);
  if (toks.empty()) return;
  if (toks.size() != 5)
    fail(line_no,
         "expected: recovery <kind> [<max_retries> <base> <cap> <jitter> "
         "<seed>]");
  const int max_retries = parse_whole(
      toks[0], line_no, "max_retries",
      [](const std::string& t, std::size_t* pos) { return std::stoi(t, pos); });
  if (max_retries < 0) fail(line_no, "recovery max_retries must be >= 0");
  const auto amount = [&](std::size_t i, const char* name) {
    const double v = parse_whole(
        toks[i], line_no, name,
        [](const std::string& t, std::size_t* pos) { return std::stod(t, pos); });
    if (!std::isfinite(v) || v < 0)
      fail(line_no, std::string("recovery ") + name + " must be finite and >= 0");
    return v;
  };
  const double base = amount(1, "base");
  const double cap = amount(2, "cap");
  const double jitter = amount(3, "jitter");
  // retry_time draws jitter steps as a uint64_t; 2^53 steps keeps every
  // step count an exact double.
  if (jitter / recovery->grid > 0x1p53)
    fail(line_no, "recovery jitter exceeds 2^53 grid steps");
  // stoull would wrap a leading '-' around.
  if (toks[4].find_first_not_of("0123456789") != std::string::npos)
    fail(line_no, "bad recovery seed '" + toks[4] + "'");
  recovery->max_retries = max_retries;
  recovery->backoff_base = base;
  recovery->backoff_cap = cap;
  recovery->jitter = jitter;
  recovery->jitter_seed = parse_whole(
      toks[4], line_no, "seed",
      [](const std::string& t, std::size_t* pos) { return std::stoull(t, pos); });
}

}  // namespace

bool has_fault_directives(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with_directive(line, "down") ||
        starts_with_directive(line, "recovery"))
      return true;
  }
  return false;
}

FaultCase parse_fault_case(const std::string& text) {
  // Split fault directives out, hand the rest to the instance parser.
  std::istringstream in(text);
  std::string line;
  std::string instance_text;
  struct Down {
    int machine;
    double from, to;
    int line_no;
  };
  std::vector<Down> downs;
  RecoveryPolicy recovery;
  bool saw_recovery = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (starts_with_directive(line, "down")) {
      std::istringstream ss(line);
      std::string word, from_tok, to_tok;
      int machine = 0;
      ss >> word >> machine >> from_tok >> to_tok;
      if (ss.fail() || to_tok.empty()) fail(line_no, "expected: down <machine> <from> <to>");
      downs.push_back(Down{machine - 1, parse_time(from_tok, line_no),
                           parse_time(to_tok, line_no), line_no});
    } else if (starts_with_directive(line, "recovery")) {
      if (saw_recovery) fail(line_no, "duplicate recovery directive");
      saw_recovery = true;
      std::istringstream ss(line);
      std::string word, kind;
      ss >> word >> kind;
      if (ss.fail()) fail(line_no, "expected: recovery <kind> [params]");
      try {
        recovery.kind = parse_recovery_kind(kind);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      parse_recovery_params(ss, line_no, &recovery);
    } else {
      instance_text += line;
      instance_text += '\n';
    }
  }

  FaultCase fc{parse_instance_string(instance_text), FaultPlan{1}, recovery};
  fc.plan = FaultPlan(fc.instance.m());
  for (const Down& d : downs) {
    if (d.machine < 0 || d.machine >= fc.instance.m())
      fail(d.line_no, "down machine out of range");
    try {
      fc.plan.add_down(d.machine, d.from, d.to);
    } catch (const std::invalid_argument& e) {
      fail(d.line_no, e.what());
    }
  }
  return fc;
}

FaultCase load_fault_case(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fault case: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_fault_case(ss.str());
}

void write_fault_case(std::ostream& out, const Instance& inst,
                      const FaultPlan& plan, const RecoveryPolicy& recovery) {
  write_instance(out, inst);
  out << recovery.str() << "\n";
  out << plan.str();
}

std::string fault_case_to_string(const Instance& inst, const FaultPlan& plan,
                                 const RecoveryPolicy& recovery) {
  std::ostringstream ss;
  write_fault_case(ss, inst, plan, recovery);
  return ss.str();
}

}  // namespace flowsched
