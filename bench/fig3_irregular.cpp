// Figure 3: speedup of the irregular-computation microbenchmark
// (Algorithm 5) on all graphs for iter in {1, 3, 5, 10}, one panel per
// programming model. Paper findings: OpenMP/TBB speedups *decrease* with
// the iteration count (FPU pressure), Cilk's *increases* (per-task
// overhead amortizes), and at iter=10 all three models converge; the best
// speedup is 49 at 121 threads versus 46 at 61 (SMT still pays).
#include <iostream>

#include "micg/benchkit/benchkit.hpp"
#include "micg/irregular/kernel.hpp"
#include "micg/model/exec_model.hpp"
#include "micg/model/machine.hpp"
#include "micg/model/tracegen.hpp"
#include "micg/support/rng.hpp"
#include "micg/support/timer.hpp"

namespace {

using micg::benchkit::series;
using micg::rt::backend;

series modeled(const std::string& name, backend kind, std::int64_t chunk,
               int iterations, const std::vector<int>& grid,
               const micg::model::machine_config& m, double scale) {
  std::vector<std::vector<double>> per_graph;
  for (const auto& entry : micg::graph::table1_suite()) {
    const auto& g = micg::benchkit::suite_graph(entry.name, scale);
    const auto trace = micg::model::irregular_trace(g, iterations);
    per_graph.push_back(
        micg::model::model_sweep(trace, kind, chunk, grid, m).speedup);
  }
  return micg::benchkit::geomean_series(name, per_graph);
}

std::vector<series> panel(backend kind, std::int64_t chunk,
                          const std::vector<int>& grid,
                          const micg::model::machine_config& m,
                          double scale) {
  std::vector<series> curves;
  for (int iter : {1, 3, 5, 10}) {
    curves.push_back(modeled(std::to_string(iter) + "-iter", kind, chunk,
                             iter, grid, m, scale));
  }
  return curves;
}

}  // namespace

int main(int argc, char** argv) {
  micg::stopwatch total;
  const auto cfg = micg::benchkit::config::from_args(argc, argv);
  const double scale = cfg.model_scale;
  const auto knf = micg::model::machine_config::knf();
  const auto grid = micg::model::paper_thread_grid(121);

  std::cout << "Figure 3: irregular-computation speedup, all graphs "
               "(scale=" << scale << ")\n\n";

  micg::benchkit::print_figure("Fig 3(a): OpenMP-dynamic [model:KNF]", grid,
               panel(backend::omp_dynamic, 100, grid, knf, scale));
  micg::benchkit::print_figure("Fig 3(b): Cilk Plus [model:KNF]", grid,
               panel(backend::cilk_holder, 100, grid, knf, scale));
  micg::benchkit::print_figure("Fig 3(c): TBB-simple [model:KNF]", grid,
               panel(backend::tbb_simple, 0, grid, knf, scale));

  // Measured: run the real Algorithm 5 kernel (in-place mode), once per
  // memory-hierarchy path selected by --memopt (fast = SIMD gather +
  // edge-balanced chunks, scalar = the pre-optimization loop — results
  // are bit-identical, so the pairs of curves isolate the memory
  // effects).
  const auto& mgrid = cfg.measured_threads;
  const double mscale = cfg.measured_scale;
  const int runs = cfg.measured_runs;
  struct mem_variant {
    const char* name;
    micg::rt::mem_opts mem;
  };
  std::vector<mem_variant> variants;
  if (cfg.run_fast()) variants.push_back({"fast", micg::rt::mem_opts{}});
  if (cfg.run_scalar()) {
    variants.push_back({"scalar", micg::rt::scalar_mem_opts()});
  }
  std::vector<series> curves;
  for (const auto& variant : variants) {
    for (int iter : {1, 10}) {
      std::vector<std::vector<double>> per_graph;
      for (const auto& entry : micg::graph::table1_suite()) {
        const auto& g = micg::benchkit::suite_graph(entry.name, mscale);
        std::vector<double> state(
            static_cast<std::size_t>(g.num_vertices()));
        micg::xoshiro256ss rng(7);
        for (auto& x : state) x = rng.uniform();
        std::vector<double> curve;
        double t1 = 0.0;
        for (int t : mgrid) {
          micg::irregular::kernel_options opt;
          opt.ex.kind = backend::omp_dynamic;
          opt.ex.threads = t;
          opt.ex.chunk = 100;
          opt.iterations = iter;
          opt.mem = variant.mem;
          const double secs = micg::benchkit::time_stable(
              [&] { micg::irregular::irregular_kernel(g, state, opt); },
              runs);
          if (t == mgrid.front()) t1 = secs;
          curve.push_back(t1 / secs);
        }
        per_graph.push_back(std::move(curve));
      }
      curves.push_back(micg::benchkit::geomean_series(
          std::to_string(iter) + "-iter/" + variant.name, per_graph));
    }
  }
  micg::benchkit::print_figure("Fig 3 (measured on this host, OpenMP-dynamic)", mgrid,
               curves);

  // Structured metrics: one instrumented kernel run per iteration count
  // and memory path.
  micg::benchkit::metrics_sink sink(cfg.metrics_json);
  if (sink.enabled()) {
    const auto& g = micg::benchkit::suite_graph("pwtk", mscale);
    for (const auto& variant : variants) {
      for (int iter : {1, 10}) {
        std::vector<double> state(
            static_cast<std::size_t>(g.num_vertices()));
        micg::xoshiro256ss rng(7);
        for (auto& x : state) x = rng.uniform();
        micg::irregular::kernel_options opt;
        opt.ex.kind = backend::omp_dynamic;
        opt.ex.threads = mgrid.back();
        opt.ex.chunk = 100;
        opt.iterations = iter;
        opt.mem = variant.mem;
        micg::benchkit::record_run(
            sink,
            {{"bench", "fig3_irregular"},
             {"graph", "pwtk"},
             {"iter", std::to_string(iter)},
             {"memopt", variant.name},
             {"threads", std::to_string(mgrid.back())}},
            [&] { micg::irregular::irregular_kernel(g, state, opt); });
      }
    }
  }

  std::cout << "[fig3_irregular] done in "
            << micg::table_printer::fmt(total.seconds(), 1) << "s\n";
  return 0;
}
