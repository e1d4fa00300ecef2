#include "micg/obs/emit.hpp"

#include <cstdint>
#include <fstream>
#include <limits>

#include "micg/api/json.hpp"
#include "micg/support/assert.hpp"

namespace micg::obs {

namespace {

using api::json;
using api::json_array;
using api::json_object;

// ---------------------------------------------------------------------------
// Writing

json to_value(const std::string& s) { return s; }
json to_value(double d) { return d; }  // non-finite dumps as null

json to_value(std::uint64_t c) {
  MICG_CHECK(c <= static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()),
             "metrics JSON: counter exceeds the int64 range");
  return static_cast<std::int64_t>(c);
}

template <typename T>
json object_of(const std::vector<std::pair<std::string, T>>& kv) {
  json_object out;
  out.reserve(kv.size());
  for (const auto& [k, v] : kv) out.emplace_back(k, to_value(v));
  return out;
}

json record_json(const snapshot& s) {
  json_array spans;
  spans.reserve(s.spans.size());
  for (const auto& sp : s.spans) {
    spans.emplace_back(json_object{{"name", sp.name},
                                   {"index", sp.index},
                                   {"depth", sp.depth},
                                   {"seconds", sp.seconds},
                                   {"values", object_of(sp.values)}});
  }
  return json_object{{"schema", schema_name},
                     {"meta", object_of(s.meta)},
                     {"counters", object_of(s.counters)},
                     {"timers", object_of(s.timers)},
                     {"values", object_of(s.values)},
                     {"spans", std::move(spans)}};
}

// ---------------------------------------------------------------------------
// Reading: walk the parsed tree, rejecting keys the writer never emits.

std::string string_of(const json& v) { return v.as_string(); }

double number_of(const json& v) {
  return v.is_null() ? std::numeric_limits<double>::quiet_NaN()
                     : v.as_double();
}

std::uint64_t counter_of(const json& v) {
  const std::int64_t c = v.as_int();
  MICG_CHECK(c >= 0, "metrics JSON: negative counter");
  return static_cast<std::uint64_t>(c);
}

template <typename T, typename FromValue>
void read_object(const json& v, std::vector<std::pair<std::string, T>>& out,
                 const FromValue& from_value) {
  for (const auto& [k, e] : v.as_object()) out.emplace_back(k, from_value(e));
}

void check_schema(const json& v) {
  MICG_CHECK(v.as_string() == schema_name,
             "metrics JSON: unknown schema: " + v.as_string());
}

span_record read_span(const json& v) {
  span_record sp;
  for (const auto& [k, e] : v.as_object()) {
    if (k == "name") {
      sp.name = e.as_string();
    } else if (k == "index") {
      sp.index = e.as_int();
    } else if (k == "depth") {
      sp.depth = static_cast<int>(e.as_int());
    } else if (k == "seconds") {
      sp.seconds = number_of(e);
    } else if (k == "values") {
      read_object(e, sp.values, number_of);
    } else {
      MICG_CHECK(false, "metrics JSON: unknown span key: " + k);
    }
  }
  return sp;
}

snapshot read_record(const json& v) {
  snapshot s;
  for (const auto& [k, e] : v.as_object()) {
    if (k == "schema") {
      check_schema(e);
    } else if (k == "meta") {
      read_object(e, s.meta, string_of);
    } else if (k == "counters") {
      read_object(e, s.counters, counter_of);
    } else if (k == "timers") {
      read_object(e, s.timers, number_of);
    } else if (k == "values") {
      read_object(e, s.values, number_of);
    } else if (k == "spans") {
      for (const auto& sp : e.as_array()) s.spans.push_back(read_span(sp));
    } else {
      MICG_CHECK(false, "metrics JSON: unknown record key: " + k);
    }
  }
  return s;
}

}  // namespace

std::string to_json(const snapshot& s) { return record_json(s).dump(); }

std::string to_json(const std::vector<snapshot>& records) {
  json_array out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(record_json(r));
  return json(json_object{{"schema", schema_name},
                          {"records", std::move(out)}})
             .dump() +
         "\n";
}

void write_json_file(const std::string& path,
                     const std::vector<snapshot>& records) {
  std::ofstream os(path);
  MICG_CHECK(os.good(), "cannot open metrics file for writing: " + path);
  os << to_json(records);
  os.flush();
  MICG_CHECK(os.good(), "failed writing metrics file: " + path);
}

snapshot from_json(const std::string& text) {
  return read_record(json::parse(text));
}

std::vector<snapshot> records_from_json(const std::string& text) {
  const json doc = json::parse(text);
  std::vector<snapshot> records;
  for (const auto& [k, v] : doc.as_object()) {
    if (k == "schema") {
      check_schema(v);
    } else if (k == "records") {
      for (const auto& r : v.as_array()) records.push_back(read_record(r));
    } else {
      MICG_CHECK(false, "metrics JSON: unknown file key: " + k);
    }
  }
  return records;
}

}  // namespace micg::obs
