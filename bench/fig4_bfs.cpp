// Figure 4: speedup of parallel layered BFS.
//   (a) pwtk on the MIC description — the outlier: narrow frontiers cap
//       the speedup and the model's slope breaks near 13 threads;
//   (b) inline_1 — about twice pwtk's peak;
//   (c) all graphs on KNF: paper model vs OpenMP-Block-relaxed,
//       TBB-Block-relaxed and CilkPlus-Bag-relaxed (plus the locked
//       OpenMP-Block to show relaxed > locked, §V-D);
//   (d) all graphs on the 12-core host, including OpenMP-TLS (SNAP).
// All variant curves share one baseline per graph (the fastest 1-thread
// configuration, §V-A), so costlier variants sit lower.
#include <iostream>

#include "micg/bfs/seq.hpp"
#include "micg/benchkit/benchkit.hpp"
#include "micg/bfs/direction.hpp"
#include "micg/bfs/layered.hpp"
#include "micg/model/bfs_model.hpp"
#include "micg/model/exec_model.hpp"
#include "micg/model/machine.hpp"
#include "micg/model/tracegen.hpp"
#include "micg/support/timer.hpp"

namespace {

using micg::benchkit::series;
using micg::rt::backend;

constexpr int kBlock = 32;  // the paper's best block size (§V-D)

struct bfs_variant_spec {
  std::string name;
  micg::model::bfs_trace_options trace;
  backend policy;
  std::int64_t chunk;
};

std::vector<bfs_variant_spec> mic_variants() {
  using micg::model::bfs_frontier;
  return {
      {"OpenMP-Block-relaxed", {bfs_frontier::block, true},
       backend::omp_dynamic, kBlock},
      {"OpenMP-Block", {bfs_frontier::block, false}, backend::omp_dynamic,
       kBlock},
      {"TBB-Block-relaxed", {bfs_frontier::block, true},
       backend::tbb_simple, kBlock},
      {"CilkPlus-Bag-relaxed", {bfs_frontier::bag, true},
       backend::cilk_holder, 0},
  };
}

/// Model curves for one graph: the paper's analytical model plus the
/// machine model for each requested variant, all over one shared baseline.
std::vector<std::vector<double>> graph_curves(
    const micg::graph::csr_graph& g,
    const std::vector<bfs_variant_spec>& variants,
    const std::vector<int>& grid, const micg::model::machine_config& m,
    double solo_overlap) {
  const auto source = g.num_vertices() / 2;
  const auto ref = micg::bfs::seq_bfs(g, source);

  std::vector<std::vector<double>> curves;
  curves.push_back(
      micg::model::bfs_model_curve(ref.frontier_sizes, grid, kBlock));

  // Shared baseline: the relaxed block queue is the fastest 1-thread
  // configuration (evaluated with the same solo_overlap as the curves so
  // out-of-order hosts normalize consistently).
  micg::model::bfs_trace_options fastest;
  micg::model::exec_options base_opt;
  base_opt.policy = backend::omp_static;
  base_opt.threads = 1;
  base_opt.solo_overlap = solo_overlap;
  const double base = micg::model::trace_time(
      micg::model::bfs_trace(g, source, fastest), base_opt, m);

  for (const auto& v : variants) {
    const auto trace = micg::model::bfs_trace(g, source, v.trace);
    std::vector<double> curve;
    for (int t : grid) {
      micg::model::exec_options o;
      o.policy = v.policy;
      o.threads = t;
      o.chunk = v.chunk;
      o.solo_overlap = solo_overlap;
      curve.push_back(micg::model::model_speedup_vs(trace, o, m, base));
    }
    curves.push_back(std::move(curve));
  }
  return curves;
}

void single_graph_panel(const std::string& title, const std::string& name,
                        const std::vector<int>& grid,
                        const micg::model::machine_config& m,
                        double scale) {
  const auto& g = micg::benchkit::suite_graph(name, scale);
  std::vector<bfs_variant_spec> variants = {
      {"OpenMP-Block-relaxed",
       {micg::model::bfs_frontier::block, true}, backend::omp_dynamic,
       kBlock},
      {"OpenMP-Block", {micg::model::bfs_frontier::block, false},
       backend::omp_dynamic, kBlock},
  };
  const auto curves = graph_curves(g, variants, grid, m, 0.0);
  std::vector<series> out;
  out.push_back({"Model", curves[0]});
  out.push_back({"OpenMP-Block-relaxed", curves[1]});
  out.push_back({"OpenMP-Block", curves[2]});
  micg::benchkit::print_figure(title, grid, out);
}

void all_graphs_panel(const std::string& title,
                      const std::vector<bfs_variant_spec>& variants,
                      const std::vector<int>& grid,
                      const micg::model::machine_config& m,
                      double solo_overlap, double scale) {
  std::vector<std::vector<std::vector<double>>> per_graph;  // graph x curve
  for (const auto& entry : micg::graph::table1_suite()) {
    const auto& g = micg::benchkit::suite_graph(entry.name, scale);
    per_graph.push_back(graph_curves(g, variants, grid, m, solo_overlap));
  }
  std::vector<series> out;
  for (std::size_t c = 0; c < per_graph.front().size(); ++c) {
    std::vector<std::vector<double>> column;
    for (const auto& pg : per_graph) column.push_back(pg[c]);
    const std::string name =
        c == 0 ? "Model" : variants[c - 1].name;
    out.push_back(micg::benchkit::geomean_series(name, column));
  }
  micg::benchkit::print_figure(title, grid, out);
}

}  // namespace

int main(int argc, char** argv) {
  micg::stopwatch total;
  const auto cfg = micg::benchkit::config::from_args(argc, argv);
  const double scale = cfg.model_scale;
  const auto knf = micg::model::machine_config::knf();
  const auto host = micg::model::machine_config::host_xeon();
  const auto grid = micg::model::paper_thread_grid(121);

  std::cout << "Figure 4: layered parallel BFS speedup (block size "
            << kBlock << ", scale=" << scale << ")\n\n";

  single_graph_panel("Fig 4(a): pwtk on KNF [model]", "pwtk", grid, knf,
                     scale);
  single_graph_panel("Fig 4(b): inline_1 on KNF [model]", "inline_1", grid,
                     knf, scale);
  all_graphs_panel("Fig 4(c): all graphs on KNF [model]", mic_variants(),
                   grid, knf, 0.0, scale);

  // Host panel: 1..24 threads, out-of-order cores, plus OpenMP-TLS.
  std::vector<int> host_grid;
  for (int t = 1; t <= 24; t += 1) host_grid.push_back(t);
  auto host_variants = mic_variants();
  host_variants.push_back({"OpenMP-TLS",
                           {micg::model::bfs_frontier::tls, false},
                           backend::omp_dynamic, kBlock});
  all_graphs_panel("Fig 4(d): all graphs on host CPU [model]",
                   host_variants, host_grid, host, 0.6, scale);

  // Measured: real BFS variants on this host.
  const auto& mgrid = cfg.measured_threads;
  const double mscale = cfg.measured_scale;
  const int runs = cfg.measured_runs;
  std::vector<series> measured;
  for (auto variant : micg::bfs::all_bfs_variants()) {
    std::vector<std::vector<double>> per_graph;
    for (const char* name : {"pwtk", "inline_1"}) {
      const auto& g = micg::benchkit::suite_graph(name, mscale);
      const auto source = g.num_vertices() / 2;
      std::vector<double> curve;
      double t1 = 0.0;
      for (int t : mgrid) {
        micg::bfs::parallel_bfs_options opt;
        opt.variant = variant;
        opt.ex.threads = t;
        opt.block = kBlock;
        const double secs = micg::benchkit::time_stable(
            [&] { micg::bfs::parallel_bfs(g, source, opt); }, runs);
        if (t == mgrid.front()) t1 = secs;
        curve.push_back(t1 / secs);
      }
      per_graph.push_back(std::move(curve));
    }
    measured.push_back(micg::benchkit::geomean_series(
        micg::bfs::bfs_variant_name(variant), per_graph));
  }
  micg::benchkit::print_figure("Fig 4 (measured on this host, pwtk+inline_1)", mgrid,
               measured);

  // Measured: direction-optimizing BFS (api::run's default BFS) over the
  // same baseline grid. Levels are identical to every variant above.
  std::vector<std::vector<double>> dir_per_graph;
  for (const char* name : {"pwtk", "inline_1"}) {
    const auto& g = micg::benchkit::suite_graph(name, mscale);
    const auto source = g.num_vertices() / 2;
    std::vector<double> curve;
    double t1 = 0.0;
    for (int t : mgrid) {
      micg::bfs::direction_options opt;
      opt.ex.threads = t;
      opt.block = kBlock;
      const double secs = micg::benchkit::time_stable(
          [&] { micg::bfs::direction_optimizing_bfs(g, source, opt); },
          runs);
      if (t == mgrid.front()) t1 = secs;
      curve.push_back(t1 / secs);
    }
    dir_per_graph.push_back(std::move(curve));
  }
  micg::benchkit::print_figure(
      "Fig 4 extra (measured direction-optimizing BFS)", mgrid,
      {micg::benchkit::geomean_series(micg::bfs::direction_bfs_name,
                                      dir_per_graph)});

  // Structured metrics: one instrumented run per BFS variant, plus
  // direction-optimizing BFS.
  micg::benchkit::metrics_sink sink(cfg.metrics_json);
  if (sink.enabled()) {
    const auto& g = micg::benchkit::suite_graph("pwtk", mscale);
    const auto source = g.num_vertices() / 2;
    for (auto variant : micg::bfs::all_bfs_variants()) {
      micg::bfs::parallel_bfs_options opt;
      opt.variant = variant;
      opt.ex.threads = mgrid.back();
      opt.block = kBlock;
      micg::benchkit::record_run(
          sink,
          {{"bench", "fig4_bfs"},
           {"graph", "pwtk"},
           {"threads", std::to_string(mgrid.back())}},
          [&] { micg::bfs::parallel_bfs(g, source, opt); });
    }
    micg::bfs::direction_options opt;
    opt.ex.threads = mgrid.back();
    opt.block = kBlock;
    micg::benchkit::record_run(
        sink,
        {{"bench", "fig4_bfs"},
         {"graph", "pwtk"},
         {"threads", std::to_string(mgrid.back())}},
        [&] { micg::bfs::direction_optimizing_bfs(g, source, opt); });
  }

  std::cout << "[fig4_bfs] done in "
            << micg::table_printer::fmt(total.seconds(), 1) << "s\n";
  return 0;
}
