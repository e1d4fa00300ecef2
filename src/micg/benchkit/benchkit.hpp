// Shared infrastructure for the figure/table benchmark harnesses.
//
// Every bench prints two kinds of series:
//   * model:KNF / model:Host — machine-model speedups from traces of the
//     real algorithms (the series compared against the paper's figures);
//   * measured — wall-clock runs of the real threaded implementations on
//     the current host. On a small CI container these are recorded for
//     completeness; their absolute shape depends on the local core count.
//
// Configuration is parsed once into a benchkit::config and passed
// explicitly to the harness helpers:
//   MICG_SCALE            graph scale for the modeled series (default 1.0)
//   MICG_MEASURED_SCALE   graph scale for measured runs (default 0.02)
//   MICG_MEASURED_THREADS comma list for measured sweeps (default "1,2,4,8")
//   MICG_RUNS             measured repetitions; the mean of the last
//                         half is reported (default 4; paper used 10/5)
//   MICG_METRICS_JSON     path for the structured metrics record
//                         (--metrics-json PATH overrides; empty = off)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "micg/graph/csr.hpp"
#include "micg/graph/suite.hpp"
#include "micg/obs/obs.hpp"
#include "micg/support/table.hpp"

namespace micg::benchkit {

/// One curve: y value per thread count.
struct series {
  std::string name;
  std::vector<double> values;
};

/// Print a figure: rows = thread counts, one column per series.
void print_figure(const std::string& title,
                  const std::vector<int>& threads,
                  const std::vector<series>& curves);

/// Geometric mean across per-graph curves (paper §V-A convention).
series geomean_series(const std::string& name,
                      const std::vector<std::vector<double>>& per_graph);

/// {1, 2, 4, 8} without the entries above the host's hardware threads:
/// a measured series never oversubscribes the cores it runs on.
std::vector<int> default_measured_threads();

/// All harness configuration, parsed once instead of re-read from the
/// environment at every call site.
struct config {
  double model_scale = 1.0;
  double measured_scale = 0.02;
  /// MICG_MEASURED_THREADS overrides (unclamped).
  std::vector<int> measured_threads = default_measured_threads();
  int measured_runs = 4;
  /// Output path for the structured metrics record; empty disables the
  /// metrics sink.
  std::string metrics_json;
  /// Which memory-hierarchy configurations the figure benches measure:
  /// "fast" (SIMD + edge-balanced), "scalar" (the
  /// pre-optimization path), or "both" (one labeled curve set per path,
  /// so the fast-path speedup is reproducible from the shipped binaries).
  /// MICG_MEMOPT / --memopt override; invalid values are rejected.
  std::string memopt = "both";

  /// True when the scalar (fast) path should be measured under `memopt`.
  [[nodiscard]] bool run_scalar() const { return memopt != "fast"; }
  [[nodiscard]] bool run_fast() const { return memopt != "scalar"; }

  /// Parse the MICG_* environment variables.
  static config from_env();
  /// from_env() plus command-line overrides (--metrics-json PATH,
  /// --memopt fast|scalar|both).
  static config from_args(int argc, char** argv);
};

/// Collects obs snapshots and writes one micg.metrics.v1 file (see
/// obs/emit.hpp) on flush/destruction. A sink with an empty path is
/// disabled: record() drops, the destructor writes nothing.
class metrics_sink {
 public:
  explicit metrics_sink(std::string path) : path_(std::move(path)) {}
  ~metrics_sink();
  metrics_sink(const metrics_sink&) = delete;
  metrics_sink& operator=(const metrics_sink&) = delete;

  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  void record(obs::snapshot snap);
  /// Write the file now (also called by the destructor).
  void flush();

 private:
  std::string path_;
  std::vector<obs::snapshot> records_;
  bool dirty_ = false;
};

/// Run `body` once with a fresh recorder installed globally, stamp the
/// snapshot with `meta`, and record it into `sink`. When the sink is
/// disabled the body runs un-instrumented.
void record_run(
    metrics_sink& sink,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const std::function<void()>& body);

/// Build (and memoize per process) a suite graph at `scale`.
const micg::graph::csr_graph& suite_graph(const std::string& name,
                                          double scale);

/// Run `body()` `runs` times and return the mean of the last half of the
/// wall-clock times (paper: 10 runs, mean of the last 5).
double time_stable(const std::function<void()>& body, int runs);

}  // namespace micg::benchkit
