// Minimal command-line argument parsing for the tools and parameterized
// benches: `program <command> --key value --flag`. No external
// dependencies; unknown keys are rejected explicitly so typos do not
// silently fall back to defaults.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace flowsched {

class ArgParser {
 public:
  /// Parses `argv[1]` as the command (may be empty if argc < 2) and the
  /// rest as --key [value] pairs. A key followed by another --key (or the
  /// end) is a boolean flag. Throws std::invalid_argument on stray
  /// positional tokens.
  ArgParser(int argc, const char* const* argv);

  const std::string& command() const { return command_; }

  bool has(const std::string& key) const {
    queried_.insert(key);
    return options_.count(key) > 0;
  }
  std::string get(const std::string& key, const std::string& fallback) const;
  double num(const std::string& key, double fallback) const;
  int integer(const std::string& key, int fallback) const;
  /// integer() that must be at least 1 (a count of reps or requests);
  /// throws std::invalid_argument naming the option otherwise.
  int positive(const std::string& key, int fallback) const;
  /// Decimal digits only (no sign, fraction or exponent) fitting in 64
  /// bits — for seeds, which a double would round past 2^53.
  std::uint64_t uint64(const std::string& key, std::uint64_t fallback) const;

  /// Call after all lookups: throws std::invalid_argument listing any
  /// option that was provided but never queried (typo protection).
  void reject_unknown() const;

 private:
  std::string command_;
  std::map<std::string, std::string> options_;
  mutable std::set<std::string> queried_;
};

}  // namespace flowsched
