#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pgraph::trace::json {

/// Escape `s` for embedding inside a JSON string literal (no quotes added).
std::string escape(std::string_view s);

/// Format a double the way the exporters do: shortest round-trippable
/// representation that is still plain JSON (no inf/nan — clamped to 0).
std::string number(double v);

/// A tiny immutable JSON document, parsed by parse() below.  This exists
/// so that the schema-validation tests (and the trace exporter's own
/// round-trip checks) do not need an external JSON dependency.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }

  double as_number(double fallback = 0.0) const {
    return kind_ == Kind::Number ? num_ : fallback;
  }
  bool as_bool(bool fallback = false) const {
    return kind_ == Kind::Bool ? num_ != 0.0 : fallback;
  }
  const std::string& as_string() const { return str_; }
  const std::vector<Value>& items() const { return arr_; }
  /// Object member by key; a shared Null value if absent or not an object.
  const Value& operator[](const std::string& key) const;
  bool has(const std::string& key) const;
  std::size_t size() const {
    return kind_ == Kind::Array ? arr_.size() : obj_.size();
  }
  const std::map<std::string, Value>& members() const { return obj_; }

 private:
  friend class Parser;
  Kind kind_ = Kind::Null;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::map<std::string, Value> obj_;
};

/// Parse `text` into `out` as Python's json module (scripts/bench_diff.py)
/// reads it: RFC 8259 numbers, strings and whitespace, strict UTF-8, and
/// the last value of a repeated key.  Arrays and objects nest at most 64
/// deep, and NaN/Infinity are refused.  Returns false (with a one-line
/// message ending "at offset <n>" in `*err` when given) on malformed
/// input; `out` is unspecified then.
bool parse(std::string_view text, Value& out, std::string* err = nullptr);

}  // namespace pgraph::trace::json
