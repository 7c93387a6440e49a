// A minimal recursive-descent JSON reader — just enough to validate and
// inspect the exporter's own output (tests round-trip through it; the
// `ph_obs_json_check` tool uses it to fail CI on a malformed metrics
// dump), plus the string/number writers every obs JSON emitter shares.
// Not a general-purpose JSON library: no \uXXXX decoding beyond
// pass-through, numbers parsed as double.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ph::obs::json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Kind { null, boolean, number, string, array, object };

  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::shared_ptr<Array> array;    // shared_ptr keeps Value copyable+cheap
  std::shared_ptr<Object> object;

  bool is_object() const { return kind == Kind::object; }
  bool is_array() const { return kind == Kind::array; }
  bool is_number() const { return kind == Kind::number; }
  bool is_string() const { return kind == Kind::string; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* get(const std::string& key) const {
    if (kind != Kind::object) return nullptr;
    auto it = object->find(key);
    return it == object->end() ? nullptr : &it->second;
  }
};

/// Parses `text` into `out`. On failure returns false and, when `error` is
/// non-null, describes what went wrong (with byte offset).
bool parse(std::string_view text, Value& out, std::string* error = nullptr);

/// Appends `s` as a quoted JSON string (control characters escaped).
void append_escaped(std::string& out, std::string_view s);

/// Appends `value` as a JSON number: integral values below 1e15 print
/// without exponent, others via %.17g so doubles round-trip; inf and nan,
/// which JSON lacks, print as null. Every obs writer uses this one format.
void append_number(std::string& out, double value);

/// Serializes a Value back to JSON text (keys in map order, numbers via
/// %.17g so doubles round-trip). `ph_bench_compare --perturb` uses this to
/// rewrite a report with one metric nudged.
std::string serialize(const Value& value);

}  // namespace ph::obs::json
