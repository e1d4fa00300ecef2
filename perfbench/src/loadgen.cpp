#include "loadgen.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "micg/api/json.hpp"
#include "micg/support/assert.hpp"
#include "trace.hpp"

namespace perfbench {

std::vector<outcome> run_phase(const std::vector<request>& reqs,
                               const phase_options& opt,
                               const transport_factory& open) {
  MICG_CHECK(opt.connections >= 2, "a phase needs a writer and a reader");
  using clock = std::chrono::steady_clock;
  std::vector<outcome> out(reqs.size());
  std::vector<std::size_t> reads;
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    (reqs[i].write ? writes : reads).push_back(i);
  }
  // Connect first, then start the clock: dialing is not part of a phase.
  std::vector<transport> conns(static_cast<std::size_t>(opt.connections));
  for (int c = 0; c < opt.connections; ++c) {
    conns[static_cast<std::size_t>(c)] = open(c);
  }
  const auto start = clock::now();
  const auto since = [&] {
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  const auto send = [&](int conn, std::size_t i, bool wait) {
    const request& r = reqs[i];
    if (wait) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<clock::duration>(
                      std::chrono::duration<double>(r.at_s)));
    }
    outcome& o = out[i];
    o.sent_s = since();
    o.sched_s = wait ? r.at_s : o.sent_s;
    {
      trace::scope span("serve::client::call_line",
                        static_cast<std::int64_t>(i), opt.trace_parent);
      o.response = conns[static_cast<std::size_t>(conn)](r.line);
    }
    o.done_s = since();
    o.sent = true;
  };

  std::atomic<std::size_t> next_read{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (const std::size_t i : writes) {
      if (opt.closed_loop && reqs[i].at_s > opt.stop_after_s) break;
      send(0, i, true);
    }
  });
  for (int c = 1; c < opt.connections; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const std::size_t k = next_read.fetch_add(1);
        if (k >= reads.size()) return;
        if (opt.closed_loop && since() >= opt.stop_after_s) return;
        send(c, reads[k], !opt.closed_loop);
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

std::int64_t backlog_at(const std::vector<outcome>& out, double t) {
  std::int64_t n = 0;
  for (const auto& o : out) {
    if (o.sent && o.sched_s <= t && o.sent_s > t) ++n;
  }
  return n;
}

bool response_ok(const std::string& line) {
  try {
    const micg::api::json doc = micg::api::json::parse(line);
    const micg::api::json* st = doc.find("status");
    return st != nullptr && st->is_string() && st->as_string() == "ok";
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace perfbench
