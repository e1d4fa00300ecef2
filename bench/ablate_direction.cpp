// Ablation (beyond the paper, §VI future work): direction-optimizing BFS
// versus plain layered BFS (OpenMP-Block-relaxed). On the high-diameter
// FEM suite the bottom-up heuristic never fires and every step is the
// layered level step; on RMAT graphs it collapses the few huge middle
// levels. Reports steps taken in each direction and measured runtimes at
// the largest MICG_MEASURED_THREADS entry, clamped to the host's hardware
// threads.
#include <algorithm>
#include <iostream>
#include <thread>

#include "micg/bfs/direction.hpp"
#include "micg/bfs/layered.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/benchkit/benchkit.hpp"
#include "micg/graph/generators.hpp"
#include "micg/support/timer.hpp"

int main(int argc, char** argv) {
  using micg::table_printer;
  micg::stopwatch total;
  const auto cfg = micg::benchkit::config::from_args(argc, argv);
  const double mscale = cfg.measured_scale;
  const int runs = cfg.measured_runs;
  const int threads = std::min(
      cfg.measured_threads.back(),
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  micg::benchkit::metrics_sink sink(cfg.metrics_json);

  std::cout << "Ablation: direction-optimizing vs layered BFS ("
            << threads << " threads)\n\n";

  table_printer t("Direction-optimizing BFS");
  t.header({"graph", "levels", "top-down", "bottom-up", "layered ms",
            "dir-opt ms", "ratio"});

  struct case_t {
    std::string name;
    micg::graph::csr_graph g;
  };
  std::vector<case_t> cases;
  cases.push_back({"pwtk(mesh)", micg::graph::make_suite_graph(
                                     micg::graph::suite_entry_by_name(
                                         "pwtk"),
                                     mscale)});
  cases.push_back({"ldoor(mesh)", micg::graph::make_suite_graph(
                                      micg::graph::suite_entry_by_name(
                                          "ldoor"),
                                      mscale)});
  cases.push_back(
      {"rmat-15", micg::graph::make_rmat(15, 16, 0.57, 0.19, 0.19, 9)});

  for (auto& c : cases) {
    micg::graph::vertex_t src = c.g.num_vertices() / 2;
    while (c.g.degree(src) == 0) ++src;

    micg::bfs::parallel_bfs_options lopt;
    lopt.variant = micg::bfs::bfs_variant::omp_block_relaxed;
    lopt.ex.threads = threads;
    const double layered_ms =
        1e3 * micg::benchkit::time_stable(
                  [&] { micg::bfs::parallel_bfs(c.g, src, lopt); }, runs);

    micg::bfs::direction_options dopt;
    dopt.ex.threads = threads;
    const auto dres = micg::bfs::direction_optimizing_bfs(c.g, src, dopt);
    const double dir_ms =
        1e3 * micg::benchkit::time_stable(
                  [&] { micg::bfs::direction_optimizing_bfs(c.g, src, dopt); },
                  runs);

    t.row({c.name,
           table_printer::fmt(static_cast<long long>(dres.num_levels)),
           table_printer::fmt(static_cast<long long>(dres.top_down_steps)),
           table_printer::fmt(
               static_cast<long long>(dres.bottom_up_steps)),
           table_printer::fmt(layered_ms), table_printer::fmt(dir_ms),
           table_printer::fmt(layered_ms / dir_ms)});

    // Structured metrics: one instrumented dir-opt run per case.
    if (sink.enabled()) {
      micg::benchkit::record_run(
          sink,
          {{"bench", "ablate_direction"}, {"graph", c.name}},
          [&] { micg::bfs::direction_optimizing_bfs(c.g, src, dopt); });
    }
  }
  t.print(std::cout);

  std::cout << "\n[ablate_direction] done in "
            << table_printer::fmt(total.seconds(), 1) << "s\n";
  return 0;
}
