#include "util/args.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace flowsched {

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc >= 2 && std::strncmp(argv[1], "--", 2) != 0) {
    command_ = argv[1];
  }
  int i = command_.empty() ? 1 : 2;
  for (; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("ArgParser: unexpected positional token '" +
                                  token + "'");
    }
    token.erase(0, 2);
    if (token.empty()) throw std::invalid_argument("ArgParser: bare '--'");
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      options_[token] = argv[++i];
    } else {
      options_[token] = "";
    }
  }
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  queried_.insert(key);
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

double ArgParser::num(const std::string& key, double fallback) const {
  queried_.insert(key);
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("ArgParser: --" + key +
                                " expects a number, got '" + it->second + "'");
  }
}

int ArgParser::integer(const std::string& key, int fallback) const {
  const double value = num(key, fallback);
  // Range-check before the cast: NaN and out-of-range doubles have no int.
  if (!(value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max()) ||
      value != std::trunc(value)) {
    throw std::invalid_argument("ArgParser: --" + key + " expects an integer");
  }
  return static_cast<int>(value);
}

std::uint64_t ArgParser::uint64(const std::string& key,
                                std::uint64_t fallback) const {
  queried_.insert(key);
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& text = it->second;
  const auto reject = [&] {
    return std::invalid_argument("ArgParser: --" + key +
                                 " expects an unsigned 64-bit integer, got '" +
                                 text + "'");
  };
  if (text.empty()) throw reject();
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') throw reject();
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) throw reject();
    value = value * 10 + digit;
  }
  return value;
}

void ArgParser::reject_unknown() const {
  std::string unknown;
  for (const auto& [key, value] : options_) {
    if (queried_.count(key) == 0) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + key;
    }
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("ArgParser: unknown option(s): " + unknown);
  }
}

}  // namespace flowsched
