#ifndef HINPRIV_SERVICE_JSON_H_
#define HINPRIV_SERVICE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace hinpriv::service {

// Minimal JSON document model for the attack-service wire protocol
// (protocol.h) — the repo is dependency-free, so the service carries its
// own parser/serializer instead of pulling one in. Scope is deliberately
// small: numbers are doubles (every id in the protocol fits in the 2^53
// exact-integer range), objects preserve insertion order with linear-time
// lookup (protocol objects have < 10 members), and parsing enforces a
// nesting-depth cap so adversarial frames cannot blow the stack.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
  }
  static JsonValue Int(int64_t i) {
    return Number(static_cast<double>(i));
  }
  static JsonValue Str(std::string s) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed reads; the fallback is returned on kind mismatch so protocol
  // decoding can treat absent and mistyped fields uniformly. AsInt also
  // returns it for a number outside [-2^63, 2^63), where the cast would
  // be undefined.
  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  int64_t AsInt(int64_t fallback = 0) const {
    return is_number() && number_ >= -0x1p63 && number_ < 0x1p63
               ? static_cast<int64_t>(number_)
               : fallback;
  }
  const std::string& AsString() const { return string_; }

  // Array access.
  size_t size() const { return array_.size(); }
  const JsonValue& at(size_t i) const { return array_[i]; }
  const std::vector<JsonValue>& items() const { return array_; }
  void Append(JsonValue v) { array_.push_back(std::move(v)); }

  // Object access. Find returns nullptr when the key is absent (or this is
  // not an object); Set replaces an existing member in place.
  const JsonValue* Find(std::string_view key) const;
  void Set(std::string key, JsonValue value);
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

  // Convenience for `Find(key)->As...()` with a fallback on absence.
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  std::string GetString(std::string_view key,
                        const std::string& fallback = "") const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  // Compact single-line serialization (no insignificant whitespace).
  std::string Serialize() const;

  // Strict parse of one JSON document (trailing non-whitespace is an
  // error). Nesting deeper than 64 levels is rejected.
  static util::Result<JsonValue> Parse(std::string_view text);

 private:
  void SerializeTo(std::string* out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace hinpriv::service

#endif  // HINPRIV_SERVICE_JSON_H_
