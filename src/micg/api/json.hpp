// Minimal JSON document type: the library's one JSON codec. It carries
// the micg::api request/response surface, the micg::serve wire protocol,
// tune's calibration profiles and the micg.metrics.v1 files that
// obs/emit.hpp writes and reads. Scope is deliberately small:
//
//  * values: null, bool, integer (int64), double, string, array, object;
//  * objects preserve insertion order, so dump() is deterministic and a
//    parse/dump round trip of server output is byte-stable (goldens);
//  * parse() enforces a nesting-depth cap and rejects trailing garbage;
//    every malformed input raises micg::check_error — never UB, matching
//    the discipline of the hardened graph readers (PR 3);
//  * integers that fit int64 round-trip exactly (vertex ids must not pass
//    through a double).
//
// No external dependency; this is the whole JSON surface of the server.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "micg/support/assert.hpp"

namespace micg::api {

class json;

/// Insertion-ordered key/value sequence (lookup is linear; API objects
/// have a handful of fields).
using json_object = std::vector<std::pair<std::string, json>>;
using json_array = std::vector<json>;

class json {
 public:
  enum class kind { null, boolean, integer, real, string, array, object };

  json() : v_(nullptr) {}
  json(std::nullptr_t) : v_(nullptr) {}
  json(bool b) : v_(b) {}
  json(std::int64_t i) : v_(i) {}
  json(int i) : v_(static_cast<std::int64_t>(i)) {}
  json(std::uint32_t i) : v_(static_cast<std::int64_t>(i)) {}
  json(double d) : v_(d) {}
  json(std::string s) : v_(std::move(s)) {}
  json(const char* s) : v_(std::string(s)) {}
  json(json_array a) : v_(std::move(a)) {}
  json(json_object o) : v_(std::move(o)) {}

  [[nodiscard]] kind type() const {
    return static_cast<kind>(v_.index());
  }
  [[nodiscard]] bool is_null() const { return type() == kind::null; }
  [[nodiscard]] bool is_bool() const { return type() == kind::boolean; }
  [[nodiscard]] bool is_number() const {
    return type() == kind::integer || type() == kind::real;
  }
  [[nodiscard]] bool is_string() const { return type() == kind::string; }
  [[nodiscard]] bool is_array() const { return type() == kind::array; }
  [[nodiscard]] bool is_object() const { return type() == kind::object; }

  /// Checked accessors; throw micg::check_error on a type mismatch (the
  /// server maps that to a bad_request error).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< also accepts integral reals
  [[nodiscard]] double as_double() const;     ///< integer or real
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const json_array& as_array() const;
  [[nodiscard]] const json_object& as_object() const;

  /// Object field lookup; nullptr when absent (or when not an object).
  [[nodiscard]] const json* find(std::string_view key) const;
  /// Required object field; throws micg::check_error when absent.
  [[nodiscard]] const json& at(std::string_view key) const;
  /// Append/overwrite an object field (value must be an object or null;
  /// null promotes to an empty object first).
  void set(std::string_view key, json value);

  /// Serialize compactly (no whitespace); object order = insertion order.
  [[nodiscard]] std::string dump() const;

  /// Parse a complete JSON document. Throws micg::check_error on malformed
  /// input, nesting beyond `max_depth`, or trailing non-whitespace.
  static json parse(std::string_view text, int max_depth = 64);

  friend bool operator==(const json& a, const json& b) { return a.v_ == b.v_; }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               json_array, json_object>
      v_;
};

/// Escape and quote a string per JSON rules (shared with obs emitters'
/// conventions; control characters become \u00XX).
void json_append_escaped(std::string& out, std::string_view s);

}  // namespace micg::api
