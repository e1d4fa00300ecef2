// Open- and closed-loop request generator over blocking connections.
//
// A phase is a list of requests, each with a scheduled send time. The
// writer connection (0) sends the write requests in order, so the
// benchmark knows exactly which mutations each compaction folded in.
// The reader connections (1..N-1) take reads from one shared queue in
// schedule order; a free connection takes the next read, sleeps until
// its scheduled time (open loop) or sends at once (closed loop).
//
// Open-loop latency runs from the *scheduled* send time, not from the
// actual send: when the server stalls, every connection is busy and
// later requests go out late, and that lateness is part of their
// latency (no coordinated omission). Lateness itself is reported as
// send - scheduled.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct request {
  double at_s = 0.0;   ///< scheduled send time, seconds from phase start
  bool write = false;  ///< sent on the writer connection only
  std::string line;    ///< one NDJSON request frame
};

struct outcome {
  bool sent = false;
  double sched_s = 0.0;  ///< closed loop: equals sent_s
  double sent_s = 0.0;
  double done_s = 0.0;
  std::string response;

  [[nodiscard]] double latency_ms() const { return (done_s - sched_s) * 1e3; }
  [[nodiscard]] double late_ms() const { return (sent_s - sched_s) * 1e3; }
};

/// One connection's round trip: request frame in, response frame out.
using transport = std::function<std::string(const std::string&)>;
/// Opens connection `conn` (called on that connection's thread).
using transport_factory = std::function<transport(int conn)>;

struct phase_options {
  int connections = 2;  ///< writer + at least one reader
  /// Closed loop: readers send back to back, ignoring `at_s`, and stop
  /// taking new reads once `stop_after_s` has passed. Writes stay paced
  /// by `at_s` in both modes.
  bool closed_loop = false;
  double stop_after_s = 0.0;
  std::int64_t trace_parent = -1;  ///< span the request spans nest under
};

/// Run one phase; outcomes align with `reqs` (unsent ones have
/// sent == false, which only happens in closed loop).
std::vector<outcome> run_phase(const std::vector<request>& reqs,
                               const phase_options& opt,
                               const transport_factory& open);

/// Requests scheduled at or before `t` that were still unsent at `t`.
std::int64_t backlog_at(const std::vector<outcome>& out, double t);

/// True when a response frame carries "status": "ok".
bool response_ok(const std::string& line);

/// Attempted/failed counts behind `failed` in the result line: a
/// refused request (overloaded, deadline, shutting down) and an answer
/// that fails its oracle check both count as failed.
struct tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
