#include "micg/api/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace micg::api {

// ---------------------------------------------------------------------------
// Accessors

bool json::as_bool() const {
  MICG_CHECK(is_bool(), "json: expected a boolean");
  return std::get<bool>(v_);
}

std::int64_t json::as_int() const {
  if (type() == kind::integer) return std::get<std::int64_t>(v_);
  if (type() == kind::real) {
    const double d = std::get<double>(v_);
    // Range first: casting a double outside int64 is undefined behaviour.
    MICG_CHECK(d >= -0x1p63 && d < 0x1p63,
               "json: integer outside the int64 range");
    const auto i = static_cast<std::int64_t>(d);
    MICG_CHECK(static_cast<double>(i) == d,
               "json: expected an integer, got a non-integral number");
    return i;
  }
  MICG_CHECK(false, "json: expected a number");
  return 0;  // unreachable
}

double json::as_double() const {
  if (type() == kind::integer) {
    return static_cast<double>(std::get<std::int64_t>(v_));
  }
  MICG_CHECK(type() == kind::real, "json: expected a number");
  return std::get<double>(v_);
}

const std::string& json::as_string() const {
  MICG_CHECK(is_string(), "json: expected a string");
  return std::get<std::string>(v_);
}

const json_array& json::as_array() const {
  MICG_CHECK(is_array(), "json: expected an array");
  return std::get<json_array>(v_);
}

const json_object& json::as_object() const {
  MICG_CHECK(is_object(), "json: expected an object");
  return std::get<json_object>(v_);
}

const json* json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<json_object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const json& json::at(std::string_view key) const {
  const json* v = find(key);
  MICG_CHECK(v != nullptr,
             "json: missing required field \"" + std::string(key) + "\"");
  return *v;
}

void json::set(std::string_view key, json value) {
  if (is_null()) v_ = json_object{};
  MICG_CHECK(is_object(), "json: set() on a non-object");
  auto& obj = std::get<json_object>(v_);
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj.emplace_back(std::string(key), std::move(value));
}

// ---------------------------------------------------------------------------
// Serialization

void json_append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

void append_value(std::string& out, const json& v) {
  switch (v.type()) {
    case json::kind::null:
      out += "null";
      return;
    case json::kind::boolean:
      out += v.as_bool() ? "true" : "false";
      return;
    case json::kind::integer:
      out += std::to_string(v.as_int());
      return;
    case json::kind::real: {
      const double d = v.as_double();
      // JSON has no Inf/NaN; emit null like every mainstream serializer.
      if (!std::isfinite(d)) {
        out += "null";
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out += buf;
      return;
    }
    case json::kind::string:
      json_append_escaped(out, v.as_string());
      return;
    case json::kind::array: {
      out += '[';
      bool first = true;
      for (const auto& e : v.as_array()) {
        if (!first) out += ',';
        first = false;
        append_value(out, e);
      }
      out += ']';
      return;
    }
    case json::kind::object: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        json_append_escaped(out, k);
        out += ':';
        append_value(out, e);
      }
      out += '}';
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Parsing

class parser {
 public:
  parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  json parse_document() {
    json v = parse_value();
    skip_ws();
    MICG_CHECK(pos_ == text_.size(), err("trailing garbage after document"));
    return v;
  }

 private:
  [[nodiscard]] std::string err(const std::string& what) const {
    return "json parse: " + what + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    MICG_CHECK(pos_ < text_.size(), err("unexpected end of input"));
    return text_[pos_];
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    MICG_CHECK(consume(c),
               err(std::string("expected '") + c + "'"));
  }

  void literal(std::string_view word) {
    MICG_CHECK(text_.substr(pos_, word.size()) == word,
               err("invalid literal"));
    pos_ += word.size();
  }

  json parse_value() {
    MICG_CHECK(depth_ < max_depth_, err("nesting too deep"));
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return json(parse_string());
      case 't': literal("true"); return json(true);
      case 'f': literal("false"); return json(false);
      case 'n': literal("null"); return json(nullptr);
      default: return parse_number();
    }
  }

  json parse_object() {
    expect('{');
    ++depth_;
    json_object obj;
    if (!consume('}')) {
      do {
        skip_ws();
        MICG_CHECK(pos_ < text_.size() && text_[pos_] == '"',
                   err("expected object key"));
        std::string key = parse_string();
        expect(':');
        obj.emplace_back(std::move(key), parse_value());
      } while (consume(','));
      expect('}');
    }
    --depth_;
    return json(std::move(obj));
  }

  json parse_array() {
    expect('[');
    ++depth_;
    json_array arr;
    if (!consume(']')) {
      do {
        arr.push_back(parse_value());
      } while (consume(','));
      expect(']');
    }
    --depth_;
    return json(std::move(arr));
  }

  std::string parse_string() {
    // pos_ is at the opening quote (peek in callers skipped whitespace).
    MICG_CHECK(pos_ < text_.size() && text_[pos_] == '"',
               err("expected string"));
    ++pos_;
    std::string out;
    while (true) {
      MICG_CHECK(pos_ < text_.size(), err("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        MICG_CHECK(pos_ < text_.size(), err("unterminated escape"));
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            MICG_CHECK(pos_ + 4 <= text_.size(), err("truncated \\u escape"));
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                MICG_CHECK(false, err("bad \\u escape digit"));
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // combined; each half encodes independently, which round-trips
            // the escapes the emitters produce: only \u00XX controls).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            MICG_CHECK(false, err("unknown escape"));
        }
      } else {
        MICG_CHECK(static_cast<unsigned char>(c) >= 0x20,
                   err("unescaped control character"));
        out += c;
      }
    }
  }

  json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    MICG_CHECK(!tok.empty() && tok != "-", err("invalid number"));
    // JSON forbids leading zeros: after the sign, "0" is only valid as the
    // whole integer part ("0.5" yes, "01" no).
    std::string_view digits = tok;
    if (digits.front() == '-') digits.remove_prefix(1);
    MICG_CHECK(!(digits.size() >= 2 && digits[0] == '0' &&
                 std::isdigit(static_cast<unsigned char>(digits[1])) != 0),
               err("invalid number"));
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), value);
      if (ec == std::errc() && ptr == tok.data() + tok.size()) {
        return json(value);
      }
      // Integer overflow (or stray sign): fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const std::string copy(tok);  // strtod needs NUL termination
    const double d = std::strtod(copy.c_str(), &end);
    MICG_CHECK(end == copy.c_str() + copy.size() && errno == 0 &&
                   std::isfinite(d),
               err("invalid number"));
    return json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  int max_depth_;
};

}  // namespace

std::string json::dump() const {
  std::string out;
  append_value(out, *this);
  return out;
}

json json::parse(std::string_view text, int max_depth) {
  return parser(text, max_depth).parse_document();
}

}  // namespace micg::api
