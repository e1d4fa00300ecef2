// Unit tests of the benchmark's own statistics: quantile choice, latency
// from the scheduled send time, self-time subtraction and failure
// counting. Exits non-zero on the first failed check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void quantile_choice() {
  using namespace perfbench;
  check(samples_beyond(1000, 0.99) == 10, "p99 of 1000 leaves 10 beyond");
  check(tail_quantile(1000) == 0.99, "1000 samples support p99");
  check(tail_quantile(999) == 0.9, "999 samples fall back to p90");
  check(tail_quantile(10000) == 0.999, "10000 samples support p99.9");
  check(tail_quantile(99) == 0.5, "99 samples support only the median");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(near(quantile_sorted(v, 0.99), 990.0), "nearest-rank p99 of 1..1000");
  check(near(median({3, 1, 2}), 2.0) && near(median({4, 1, 2, 3}), 2.5),
        "median of odd and even samples");
  const summary s = summarize(v);
  check(s.n == 1000 && s.tail_q == 0.99 && near(s.tail, 990.0),
        "summary picks p99 as the tail at n=1000");
}

void latency_from_schedule() {
  using namespace perfbench;
  // 20 reads every 10 ms over one reader connection; the server stalls
  // 200 ms on the first. Every read scheduled during the stall must
  // carry the stall in its latency, even though its own round trip is
  // instant once sent.
  std::vector<request> reqs;
  for (int i = 0; i < 20; ++i) {
    reqs.push_back({0.010 * i, false, std::to_string(i)});
  }
  phase_options po;
  po.connections = 2;
  const auto out = run_phase(reqs, po, [](int) -> transport {
    return [](const std::string& line) {
      if (line == "0") std::this_thread::sleep_for(std::chrono::milliseconds(200));
      return std::string(R"({"status":"ok"})");
    };
  });
  check(out[0].latency_ms() >= 190.0, "the stalled request itself is slow");
  check(out[5].latency_ms() >= 140.0 && out[5].late_ms() >= 140.0,
        "a request scheduled at 50 ms is charged the stall (latency " +
            std::to_string(out[5].latency_ms()) + " ms)");
  check(out[5].done_s - out[5].sent_s < 0.05,
        "while its own round trip is short");
  check(out[19].latency_ms() < 50.0, "requests after the stall recover");
  check(backlog_at(out, 0.1) >= 5, "backlog counts reads due but unsent");

  phase_options closed = po;
  closed.closed_loop = true;
  closed.stop_after_s = 10.0;
  const auto back = run_phase(reqs, closed, [](int) -> transport {
    return [](const std::string&) { return std::string(R"({"status":"ok"})"); };
  });
  check(back[5].sched_s == back[5].sent_s, "closed loop times from the send");
}

void self_time_with_overlap() {
  using perfbench::trace::span_record;
  // Parent [0,10]; children [1,4], [3,6] overlap, [8,12] runs past the
  // parent's end. Covered = [1,6] + [8,10] = 7, so self = 3.
  std::vector<span_record> spans = {
      {0, -1, "phase", -1, 0.0, 10.0},
      {1, 0, "call", 1, 1.0, 4.0},
      {2, 0, "call", 2, 3.0, 6.0},
      {3, 0, "call", 3, 8.0, 12.0},
  };
  const auto rows = perfbench::trace::self_time_table(spans);
  double phase_self = -1;
  double call_total = -1;
  for (const auto& r : rows) {
    if (r.name == "phase") phase_self = r.self_ms;
    if (r.name == "call") call_total = r.total_ms;
  }
  check(near(phase_self, 3000.0), "self time subtracts the union of children");
  check(near(call_total, 10000.0), "children keep their full duration");
  check(near(perfbench::trace::covered_length({{0, 1}, {2, 3}}, 0.5, 2.5), 1.0),
        "covered length clips to the window");
}

void refusals_count_as_failed() {
  using namespace perfbench;
  std::vector<request> reqs;
  for (int i = 0; i < 12; ++i) reqs.push_back({0.0, false, std::to_string(i)});
  phase_options po;
  po.connections = 3;
  const auto out = run_phase(reqs, po, [](int) -> transport {
    return [](const std::string& line) {
      return std::stoi(line) % 3 == 0
                 ? std::string(R"({"status":"overloaded","error":"full"})")
                 : std::string(R"({"status":"ok","result":{}})");
    };
  });
  tally t;
  for (const auto& o : out) t.add(response_ok(o.response));
  check(t.attempted == 12 && t.failed == 4, "overloaded answers count as failed");
  check(near(t.failed_frac(), 1.0 / 3.0), "failed_frac = failed / attempted");
  check(!response_ok("not json"), "an unparsable frame is a failure");
}

}  // namespace

int main() {
  quantile_choice();
  latency_from_schedule();
  self_time_with_overlap();
  refusals_count_as_failed();
  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
