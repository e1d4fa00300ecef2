// In-memory span tracer for the traced benchmark run.
//
// A span wraps one call the benchmark makes into a library module's
// public function (api::run, serve::client::call_line, ...). It records
// its name, start, end, parent span and request id. Tracing is off
// unless a `tracer` is installed, and an uninstalled scope costs one
// pointer test.
//
// Self time of a span is its duration minus the time its children
// cover. Children may overlap (client calls issued concurrently from
// several connections under one phase span), so the covered time is the
// length of the *union* of the children's intervals, clipped to the
// parent.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::trace {

struct span_record {
  std::int64_t id = 0;
  std::int64_t parent = -1;   ///< -1 = root
  std::string name;
  std::int64_t request = -1;  ///< request id; -1 when not request-scoped
  double start_s = 0.0;       ///< seconds since the tracer was created
  double end_s = 0.0;
};

class tracer {
 public:
  tracer();

  /// Install as the process tracer (nullptr uninstalls).
  static void install(tracer* t);
  static tracer* active();

  [[nodiscard]] double now() const;
  std::int64_t next_id();
  void record(span_record r);
  [[nodiscard]] std::vector<span_record> spans() const;

 private:
  double origin_ = 0.0;
  mutable std::mutex mu_;
  std::int64_t next_id_ = 0;
  std::vector<span_record> spans_;
};

/// RAII span. The parent defaults to the innermost open scope on this
/// thread; pass one explicitly for work done on another thread.
class scope {
 public:
  explicit scope(std::string name, std::int64_t request = -1,
                 std::int64_t parent = -2);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  /// This span's id (-1 when tracing is off).
  [[nodiscard]] std::int64_t id() const { return rec_.id; }

 private:
  tracer* t_;
  span_record rec_;
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
double covered_length(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

struct self_row {
  std::string name;
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per-name totals and self times, largest self time first.
std::vector<self_row> self_time_table(const std::vector<span_record>& spans);

void write_spans_jsonl(std::ostream& out,
                       const std::vector<span_record>& spans);
void write_self_time(std::ostream& out, const std::vector<self_row>& rows);

}  // namespace perfbench::trace
