// Field lists: one table per struct drives its wire JSON and CLI flags.
//
// A struct opts in with `static constexpr auto fields()`, an array of
// basic_field entries (micg/api/api.hpp aliases the entry type over the
// member types its requests and responses use). Each entry names one
// member's wire field and CLI flag, and the generic codecs below read and
// write any listed struct from it:
//
//   * from_json<T>(params) ignores unknown fields for forward
//     compatibility; non-object params, wrong-typed fields and integers
//     outside their member's range throw micg::check_error;
//   * from_args<T>(args) turns each flag present into its wire field and
//     decodes them with from_json, so both paths share every check;
//   * to_json(value) writes the fields in list order.
//
// A member whose own type is listed is spliced: its fields read and write
// at the parent's level (every api request embeds exec_params this way).
#pragma once

#include <array>
#include <cstdint>
#include <ranges>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "micg/api/json.hpp"
#include "micg/api/parse.hpp"
#include "micg/support/assert.hpp"

namespace micg::api {

/// One member of T as it appears on the wire and on the command line;
/// `Ms` are the member types a list may name.
template <class T, class... Ms>
struct basic_field {
  /// Name in the wire JSON object; unused for a spliced member.
  const char* wire;
  std::variant<Ms T::*...> member;
  /// CLI flag without "--": nullptr = same as `wire`, "" = wire-only.
  /// Array members are always wire-only.
  const char* flag = nullptr;
  /// to_json leaves the field out while it equals its value in `T{}`.
  bool omit_unset = false;
  /// A bool spelled as one of two words, {false-word, true-word}; any
  /// other word is rejected.
  std::array<const char*, 2> words{};
};

/// Structs with a field list — the ones the generic codecs accept.
template <class T>
concept listed = requires { T::fields(); };

namespace detail {

/// Calls fn(field, member, member's value in a default object) for every
/// field of `obj`, splicing nested lists in place.
template <class T, class Fn>
void for_each_field(T&& obj, Fn&& fn) {
  using U = std::remove_cvref_t<T>;
  static const U unset{};
  static constexpr auto list = U::fields();
  for (const auto& f : list) {
    std::visit(
        [&](auto m) {
          if constexpr (listed<std::remove_cvref_t<decltype(obj.*m)>>) {
            for_each_field(obj.*m, fn);
          } else {
            fn(f, obj.*m, unset.*m);
          }
        },
        f.member);
  }
}

template <class M>
void decode(const json& j, M& out, const std::array<const char*, 2>& words,
            const char* name) {
  if constexpr (std::is_same_v<M, bool>) {
    if (words[0] == nullptr) {
      out = j.as_bool();
      return;
    }
    const std::string& s = j.as_string();
    MICG_CHECK(s == words[0] || s == words[1],
               std::string(name) + " must be " + words[1] + " or " +
                   words[0] + ", got '" + s + "'");
    out = s == words[1];
  } else if constexpr (std::is_integral_v<M>) {
    // Range-checked before narrowing, so 2^32 + 1 cannot wrap into a
    // valid thread count.
    const std::int64_t v = j.as_int();
    MICG_CHECK(std::in_range<M>(v),
               std::string(name) + " out of range: " + std::to_string(v));
    out = static_cast<M>(v);
  } else if constexpr (std::is_same_v<M, double>) {
    out = j.as_double();
  } else if constexpr (std::is_same_v<M, std::string>) {
    out = j.as_string();
  } else if constexpr (std::ranges::range<M>) {
    out.clear();
    out.reserve(j.as_array().size());
    for (const json& e : j.as_array()) decode(e, out.emplace_back(), {}, name);
  } else {
    for_each_field(out, [&](const auto& f, auto& x, const auto&) {
      if (const json* v = j.find(f.wire)) decode(*v, x, f.words, f.wire);
    });
  }
}

template <class M>
json encode(const M& x, const std::array<const char*, 2>& words) {
  if constexpr (std::is_same_v<M, bool>) {
    return words[0] != nullptr ? json(words[x ? 1 : 0]) : json(x);
  } else if constexpr (std::ranges::range<M> &&
                       !std::is_same_v<M, std::string>) {
    json_array out;
    out.reserve(x.size());
    for (const auto& e : x) out.push_back(encode(e, {}));
    return json(std::move(out));
  } else if constexpr (listed<M>) {
    json_object out;
    out.reserve(M::fields().size());
    for_each_field(x, [&](const auto& f, const auto& v, const auto& unset) {
      if (!f.omit_unset || v != unset) {
        out.emplace_back(f.wire, encode(v, f.words));
      }
    });
    return json(std::move(out));
  } else {
    return json(x);
  }
}

}  // namespace detail

/// Reads T from a wire params object (or null = all defaults). Unknown
/// fields are ignored for forward compatibility; a wrong-typed or
/// out-of-range field, or a non-object `v`, throws micg::check_error.
template <listed T>
T from_json(const json& v) {
  MICG_CHECK(v.is_object() || v.is_null(),
             "request params must be a JSON object");
  T out{};
  detail::decode(v, out, {}, "params");
  return out;
}

/// Reads T from CLI flags: each flag present becomes its wire field, then
/// from_json decodes them, so both paths share every check. Malformed
/// numbers throw usage_error naming the flag.
template <listed T>
T from_args(const arg_parser& args) {
  json params(json_object{});
  detail::for_each_field(T{}, [&](const auto& f, const auto& x, const auto&) {
    using M = std::remove_cvref_t<decltype(x)>;
    const std::string name = f.flag != nullptr ? f.flag : f.wire;
    if (name.empty() || !args.has_flag(name)) return;
    const std::string s = args.flag(name, "");
    if constexpr (std::is_same_v<M, bool>) {
      // Without words, any value but "no" enables (`--d2 yes`).
      params.set(f.wire, f.words[0] != nullptr ? json(s) : json(s != "no"));
    } else if constexpr (std::is_integral_v<M>) {
      params.set(f.wire, json(args.flag_int(name, 0)));
    } else if constexpr (std::is_same_v<M, double>) {
      params.set(f.wire, json(args.flag_double(name, 0)));
    } else {
      params.set(f.wire, json(s));
    }
  });
  return from_json<T>(params);
}

/// Serializes T in list order, leaving out omit_unset fields at their
/// default.
template <listed T>
json to_json(const T& in) {
  return detail::encode(in, {});
}

/// (wire name, CLI flag) of every field T reads, spliced lists expanded;
/// the flag is "" for wire-only fields.
template <listed T>
std::vector<std::pair<std::string, std::string>> field_names() {
  std::vector<std::pair<std::string, std::string>> out;
  detail::for_each_field(T{}, [&](const auto& f, const auto&, const auto&) {
    out.emplace_back(f.wire, f.flag != nullptr ? f.flag : f.wire);
  });
  return out;
}

}  // namespace micg::api
