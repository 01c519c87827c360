// Minimal JSON support for the observability layer: deterministic value
// formatting for the writers (TraceRecorder, MetricsCollector::to_json) and
// a small strict parser for the validator (obs/trace_check.hpp) and tests.
//
// The writer side is string-building, not a DOM: trace files are written
// streamingly in one deterministic pass so that byte-identical runs produce
// byte-identical files. The parser builds a full value tree; it is strict
// (no trailing commas, no comments) and meant for test-sized documents, not
// gigabyte traces.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace flowsched {

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included). Control characters become \u00XX.
std::string json_escape(std::string_view s);

/// Shortest round-trip decimal rendering of a double (std::to_chars):
/// integral values print as integers ("4", not "4.000000"), everything else
/// with exactly the digits needed to recover the bits. Deterministic, which
/// is what makes trace files byte-comparable across runs and thread counts.
std::string json_num(double x);

/// 0x-prefixed lowercase hex rendering of a 64-bit id (cell ids do not fit
/// in JSON's interoperable integer range, so they travel as strings).
std::string json_hex(std::uint64_t x);

/// Parsed JSON value (strict subset: RFC 8259 without extensions). A
/// boolean keeps its kind but not its value: no reader needs it.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const std::vector<JsonValue>& as_array() const { return arr_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  static JsonValue null();
  static JsonValue boolean();
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue> obj_;
};

/// Parses one JSON document. Throws std::invalid_argument with a byte
/// offset on malformed input or trailing garbage.
JsonValue json_parse(std::string_view text);

}  // namespace flowsched
