#include "micg/benchkit/benchkit.hpp"

#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "micg/obs/emit.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/stats.hpp"
#include "micg/support/timer.hpp"

namespace micg::benchkit {

void print_figure(const std::string& title,
                  const std::vector<int>& threads,
                  const std::vector<series>& curves) {
  table_printer t(title);
  std::vector<std::string> header{"threads"};
  for (const auto& c : curves) header.push_back(c.name);
  t.header(std::move(header));
  for (std::size_t i = 0; i < threads.size(); ++i) {
    std::vector<std::string> row{std::to_string(threads[i])};
    for (const auto& c : curves) {
      row.push_back(i < c.values.size() ? table_printer::fmt(c.values[i])
                                        : "-");
    }
    t.row(std::move(row));
  }
  t.print(std::cout);
  std::cout << '\n';
}

series geomean_series(const std::string& name,
                      const std::vector<std::vector<double>>& per_graph) {
  series s;
  s.name = name;
  if (per_graph.empty()) return s;
  const std::size_t points = per_graph.front().size();
  for (std::size_t i = 0; i < points; ++i) {
    std::vector<double> column;
    column.reserve(per_graph.size());
    for (const auto& pg : per_graph) {
      MICG_CHECK(pg.size() == points, "ragged per-graph series");
      column.push_back(pg[i]);
    }
    s.values.push_back(geometric_mean(column));
  }
  return s;
}

std::vector<int> default_measured_threads() {
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> out;
  for (const int t : {1, 2, 4, 8}) {
    if (t == 1 || t <= hw) out.push_back(t);
  }
  return out;
}

namespace {
double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    const double parsed = std::atof(v);
    if (parsed > 0.0) return parsed;
  }
  return fallback;
}
}  // namespace

config config::from_env() {
  config c;
  c.model_scale = env_double("MICG_SCALE", c.model_scale);
  c.measured_scale = env_double("MICG_MEASURED_SCALE", c.measured_scale);
  c.measured_runs =
      static_cast<int>(env_double("MICG_RUNS",
                                  static_cast<double>(c.measured_runs)));
  if (const char* v = std::getenv("MICG_MEASURED_THREADS")) {
    std::vector<int> threads;
    std::stringstream ss(v);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const int t = std::atoi(tok.c_str());
      if (t >= 1) threads.push_back(t);
    }
    if (!threads.empty()) c.measured_threads = std::move(threads);
  }
  if (const char* v = std::getenv("MICG_METRICS_JSON")) c.metrics_json = v;
  if (const char* v = std::getenv("MICG_MEMOPT")) c.memopt = v;
  MICG_CHECK(c.memopt == "fast" || c.memopt == "scalar" || c.memopt == "both",
             "MICG_MEMOPT must be fast, scalar or both");
  return c;
}

config config::from_args(int argc, char** argv) {
  config c = from_env();
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-json") {
      c.metrics_json = argv[i + 1];
    } else if (std::string(argv[i]) == "--memopt") {
      c.memopt = argv[i + 1];
    }
  }
  MICG_CHECK(c.memopt == "fast" || c.memopt == "scalar" || c.memopt == "both",
             "--memopt must be fast, scalar or both");
  return c;
}

metrics_sink::~metrics_sink() {
  try {
    flush();
  } catch (const std::exception& e) {
    std::cerr << "metrics sink: " << e.what() << "\n";
  }
}

void metrics_sink::record(obs::snapshot snap) {
  if (!enabled()) return;
  records_.push_back(std::move(snap));
  dirty_ = true;
}

void metrics_sink::flush() {
  if (!enabled() || !dirty_) return;
  obs::write_json_file(path_, records_);
  dirty_ = false;
}

void record_run(
    metrics_sink& sink,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const std::function<void()>& body) {
  if (!sink.enabled()) {
    body();
    return;
  }
  obs::recorder rec;
  {
    obs::scoped_global guard(rec);
    body();
  }
  for (const auto& [k, v] : meta) rec.set_meta(k, v);
  sink.record(rec.take());
}

const micg::graph::csr_graph& suite_graph(const std::string& name,
                                          double scale) {
  static std::map<std::pair<std::string, double>, micg::graph::csr_graph>
      cache;
  const auto key = std::make_pair(name, scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key, micg::graph::make_suite_graph(
                               micg::graph::suite_entry_by_name(name),
                               scale))
             .first;
  }
  return it->second;
}

double time_stable(const std::function<void()>& body, int runs) {
  MICG_CHECK(runs >= 1, "need at least one run");
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    stopwatch sw;
    body();
    times.push_back(sw.seconds());
  }
  const auto kept = static_cast<std::size_t>((runs + 1) / 2);
  return tail_mean(times, kept);
}

}  // namespace micg::benchkit
