// Ablation: coloring chunk size (§V-B: "Different chunk sizes (from 40 to
// 150) were tried and only the best results are reported" — dynamic and
// guided best at 100, static best at 40). Machine-model speedup at 121
// threads vs chunk size for the three OpenMP schedules, plus a measured
// sweep of the real implementation.
#include <iostream>

#include "micg/benchkit/benchkit.hpp"
#include "micg/color/iterative.hpp"
#include "micg/model/exec_model.hpp"
#include "micg/model/machine.hpp"
#include "micg/model/tracegen.hpp"
#include "micg/support/stats.hpp"
#include "micg/support/timer.hpp"

int main(int argc, char** argv) {
  using micg::table_printer;
  using micg::rt::backend;
  micg::stopwatch total;
  const auto cfg = micg::benchkit::config::from_args(argc, argv);
  const double scale = cfg.model_scale;
  const auto knf = micg::model::machine_config::knf();
  const std::vector<std::int64_t> chunks{10, 20, 40, 70, 100, 150, 250,
                                         400};

  std::cout << "Ablation: coloring chunk size (geomean over suite, scale="
            << scale << ")\n\n";

  table_printer t("Machine-model speedup at 121 threads vs chunk size");
  std::vector<std::string> header{"schedule"};
  for (auto c : chunks) header.push_back("c=" + std::to_string(c));
  t.header(std::move(header));

  const struct {
    const char* name;
    backend kind;
  } schedules[] = {{"OpenMP-dynamic", backend::omp_dynamic},
                   {"OpenMP-static-chunked", backend::omp_static_chunked},
                   {"OpenMP-guided", backend::omp_guided},
                   {"TBB-simple", backend::tbb_simple},
                   {"CilkPlus", backend::cilk_holder}};

  // Traces are per-graph; reuse across schedules/chunks.
  std::vector<micg::model::work_trace> traces;
  for (const auto& entry : micg::graph::table1_suite()) {
    traces.push_back(micg::model::coloring_trace(
        micg::benchkit::suite_graph(entry.name, scale), false));
  }

  for (const auto& s : schedules) {
    std::vector<std::string> row{s.name};
    for (auto c : chunks) {
      std::vector<double> per_graph;
      for (const auto& trace : traces) {
        micg::model::exec_options o;
        o.policy = s.kind;
        o.threads = 121;
        o.chunk = c;
        per_graph.push_back(micg::model::model_speedup(trace, o, knf));
      }
      row.push_back(table_printer::fmt(micg::geometric_mean(per_graph)));
    }
    t.row(std::move(row));
  }
  t.print(std::cout);
  std::cout << '\n';

  // Measured: real iterative coloring, chunk sweep at a fixed thread
  // count on this host.
  const double mscale = cfg.measured_scale;
  const int runs = cfg.measured_runs;
  const auto& g = micg::benchkit::suite_graph("hood", mscale);
  const int threads = cfg.measured_threads.back();
  table_printer mt("Measured runtime (ms) on this host, " +
                   std::to_string(threads) + " threads, hood");
  std::vector<std::string> mheader{"schedule"};
  for (auto c : chunks) mheader.push_back("c=" + std::to_string(c));
  mt.header(std::move(mheader));
  for (const auto& s : schedules) {
    std::vector<std::string> row{s.name};
    for (auto c : chunks) {
      micg::color::iterative_options opt;
      opt.ex.kind = s.kind;
      opt.ex.threads = threads;
      opt.ex.chunk = c;
      const double secs = micg::benchkit::time_stable(
          [&] { micg::color::iterative_color(g, opt); }, runs);
      row.push_back(table_printer::fmt(secs * 1e3));
    }
    mt.row(std::move(row));
  }
  mt.print(std::cout);

  // Structured metrics: one instrumented coloring at the paper-best chunk.
  micg::benchkit::metrics_sink sink(cfg.metrics_json);
  if (sink.enabled()) {
    micg::color::iterative_options opt;
    opt.ex.kind = backend::omp_dynamic;
    opt.ex.threads = threads;
    opt.ex.chunk = 100;
    micg::benchkit::record_run(
        sink,
        {{"bench", "ablate_chunk_size"}, {"graph", "hood"}},
        [&] { micg::color::iterative_color(g, opt); });
  }

  std::cout << "\n[ablate_chunk_size] done in "
            << table_printer::fmt(total.seconds(), 1) << "s\n";
  return 0;
}
