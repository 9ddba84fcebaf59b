#ifndef ARDA_UTIL_JSON_H_
#define ARDA_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file
/// Minimal JSON value model and recursive-descent parser, the inverse of
/// the repo's emitters (which all escape through arda::JsonEscape). Used
/// by the augmentation service to decode per-request configuration and by
/// clients/tests to decode responses. Strict by design: no comments, no
/// trailing commas, no NaN/Infinity literals — exactly RFC 8259 minus
/// the freedom to be lenient, so a request that parses here round-trips
/// byte-identically through the emitters.
///
/// Numbers are held as double (plus an exact-int64 flag for integral
/// values in range, so seeds and counts survive). Object member order is
/// not preserved (members sort by key); none of the protocol messages
/// depend on member order.

namespace arda::json {

enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

/// One parsed JSON value. Cheap to move, expensive to copy (subtrees are
/// owned by value).
class Value {
 public:
  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  /// True when the number was an integer literal representable in int64.
  bool IsExactInt64() const { return exact_int_; }
  int64_t AsInt64() const { return int_; }
  /// The number's value when it is an integer in int64 range: an exact
  /// int64 literal, or a number such as 1e3 whose value is one. nullopt
  /// for a non-number, a fraction (2.5), a non-finite value or a value
  /// outside int64 (1e300, or 99999999999999999999, which parses as a
  /// double).
  std::optional<int64_t> ToInt64() const;
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::map<std::string, Value>& AsObject() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;

  /// Typed member accessors with defaults: missing members (or a non-
  /// object receiver) return `fallback`; present members of the wrong
  /// type return a Status via the Get* forms below.
  std::string StringOr(std::string_view key, std::string fallback) const;
  double NumberOr(std::string_view key, double fallback) const;
  /// ToInt64() of a number member; `fallback` when the member is absent,
  /// not a number, or a number with no int64 value (never a cast of an
  /// out-of-range double).
  int64_t IntOr(std::string_view key, int64_t fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;

  static Value MakeNull();
  static Value MakeBool(bool b);
  static Value MakeNumber(double d);
  static Value MakeInt(int64_t i);
  static Value MakeString(std::string s);
  static Value MakeArray(std::vector<Value> items);
  static Value MakeObject(std::map<std::string, Value> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  int64_t int_ = 0;
  bool exact_int_ = false;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Parses one JSON document; trailing non-whitespace is an error. The
/// parser guards against pathological nesting (InvalidArgument beyond
/// depth 64) so a hostile request cannot overflow the service's stack.
Result<Value> Parse(std::string_view text);

/// Serializes a Value back to compact JSON (object members in sorted key
/// order, strings escaped via arda::JsonEscape). Exact-int64 numbers
/// print as integers; other numbers with %.17g so doubles round-trip.
std::string Serialize(const Value& value);

}  // namespace arda::json

#endif  // ARDA_UTIL_JSON_H_
