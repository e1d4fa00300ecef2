// Serialization of obs snapshots — the `micg.metrics.v1` schema.
//
// One run record (a snapshot) serializes to a JSON object:
//
//   {
//     "schema": "micg.metrics.v1",
//     "meta":     {"kernel": "iterative_color", ...},   // strings
//     "counters": {"color.rounds": 3, ...},             // integers
//     "timers":   {"rt.worker_busy": 0.0123, ...},      // seconds
//     "values":   {"color.num_colors": 42, ...},        // gauges
//     "spans": [
//       {"name": "color.round", "index": 0, "depth": 0,
//        "seconds": 0.001, "values": {"conflicts": 17}},
//       ...
//     ]
//   }
//
// A metrics *file* (what --metrics-json / MICG_METRICS_JSON produces)
// wraps one or more records:
//
//   {"schema": "micg.metrics.v1", "records": [<record>, ...]}
//
// Both directions go through micg::api::json, the library's one JSON
// codec, so every file is strict JSON (Python's json.load reads it).
// Two value rules follow from that codec:
//
//  * a non-finite timer, gauge or span value (inf, NaN) is written as
//    `null`, and the reader maps `null` back to a quiet NaN;
//  * counters are written as JSON integers, whose range is int64: the
//    writer throws micg::check_error on a counter above INT64_MAX rather
//    than wrap it, and the reader rejects negative or fractional counters.
#pragma once

#include <string>
#include <vector>

#include "micg/obs/obs.hpp"

namespace micg::obs {

/// Schema identifier stamped into every record and metrics file.
inline constexpr const char* schema_name = "micg.metrics.v1";

/// One record as a JSON object.
std::string to_json(const snapshot& s);

/// A metrics file: {"schema": ..., "records": [...]}.
std::string to_json(const std::vector<snapshot>& records);

/// Write a metrics file to `path`; throws micg::check_error on I/O error.
void write_json_file(const std::string& path,
                     const std::vector<snapshot>& records);

/// Parse a single record produced by to_json(const snapshot&). Throws
/// micg::check_error on malformed input, a non-object document, a schema
/// mismatch or a key the writer never emits.
snapshot from_json(const std::string& json);

/// Parse a metrics file produced by to_json(const vector<snapshot>&).
std::vector<snapshot> records_from_json(const std::string& json);

}  // namespace micg::obs
