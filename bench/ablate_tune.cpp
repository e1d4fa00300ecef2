// Ablation: predicted vs measured auto-tuning — does the knob picker
// (micg::tune) choose the configuration the hardware actually prefers?
//
// For each (graph shape, kernel) pair this bench times the *true* knob
// grid the kernels can execute — the memory fast-path combinations, the
// chunk ladder, layered vs direction-optimizing BFS — alongside the static
// default and the picker's choice for this host ($MICG_CALIB or the
// builtin profile). The summary row per pair reports the tuned pick, the
// empirical best, the tuned-vs-default speedup and the regret vs best.
// tools/run_bench.sh commits the result as BENCH_tune.json and asserts
// the headline claim: auto matches or beats the static defaults on a
// majority of pairs and is never materially worse.
//
// Configs are timed in interleaved rounds (round-robin, min per config)
// for the same drift-spreading reason as ablate_memlat.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "micg/benchkit/benchkit.hpp"
#include "micg/bfs/direction.hpp"
#include "micg/bfs/layered.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/stats.hpp"
#include "micg/irregular/pagerank.hpp"
#include "micg/rt/edge_partition.hpp"
#include "micg/support/simd.hpp"
#include "micg/support/table.hpp"
#include "micg/support/timer.hpp"
#include "micg/tune/calib.hpp"
#include "micg/tune/tune.hpp"

namespace {

using micg::table_printer;
using micg::rt::mem_opts;
using micg::rt::partition_mode;

/// RMAT scale from the measured-scale knob: 0.02 -> 10, 1.0 -> 16.
int rmat_scale(double mscale) {
  return std::max(10, 16 + static_cast<int>(std::lround(std::log2(mscale))));
}

/// One timed configuration: a label and a closure running the kernel.
struct timed_config {
  std::string name;
  std::function<void()> run;
};

/// Interleaved-min timing over `runs` rounds, ms per config.
std::vector<double> time_interleaved(const std::vector<timed_config>& cfgs,
                                     int runs) {
  std::vector<double> best(cfgs.size(),
                           std::numeric_limits<double>::infinity());
  for (int r = 0; r < runs; ++r) {
    for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
      micg::stopwatch sw;
      cfgs[ci].run();
      best[ci] = std::min(best[ci], 1e3 * sw.seconds());
    }
  }
  return best;
}

/// Print one sweep table and emit per-config + summary metrics records.
/// Row 0 must be the static default; row 1 must be the tuned pick.
void report(const std::string& graph, const std::string& kernel,
            const micg::tune::knob_plan& plan,
            const std::vector<timed_config>& cfgs,
            const std::vector<double>& ms, micg::benchkit::metrics_sink& sink,
            int* tuned_wins, int* pairs) {
  const double default_ms = ms[0];
  const double tuned_ms = ms[1];
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (ms[i] < ms[best_i]) best_i = i;
  }
  table_printer t(graph + " / " + kernel + "  (tuned pick: " +
                  micg::tune::knobs_summary(plan) + ")");
  t.header({"config", "ms", "vs default"});
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    std::string name = cfgs[i].name;
    if (i == best_i) name += " *";
    t.row({name, table_printer::fmt(ms[i]),
           table_printer::fmt(default_ms / ms[i])});
    if (sink.enabled()) {
      micg::obs::recorder rec;
      rec.set_meta("bench", "ablate_tune");
      rec.set_meta("graph", graph);
      rec.set_meta("kernel", kernel);
      rec.set_meta("config", cfgs[i].name);
      rec.set_value("time_ms", ms[i]);
      rec.set_value("speedup_vs_default", default_ms / ms[i]);
      sink.record(rec.take());
    }
  }
  t.print(std::cout);
  std::cout << '\n';

  ++*pairs;
  if (tuned_ms <= default_ms * 1.005) ++*tuned_wins;
  if (sink.enabled()) {
    micg::obs::recorder rec;
    rec.set_meta("bench", "ablate_tune");
    rec.set_meta("graph", graph);
    rec.set_meta("kernel", kernel);
    rec.set_meta("config", "summary");
    rec.set_meta("tuned_config", cfgs[1].name);
    rec.set_meta("best_config", cfgs[best_i].name);
    rec.set_meta("tuned_knobs", micg::tune::knobs_summary(plan));
    rec.set_value("default_ms", default_ms);
    rec.set_value("tuned_ms", tuned_ms);
    rec.set_value("best_ms", ms[best_i]);
    rec.set_value("tuned_speedup_vs_default", default_ms / tuned_ms);
    rec.set_value("tuned_regret_vs_best", tuned_ms / ms[best_i]);
    sink.record(rec.take());
  }
}

}  // namespace

int main(int argc, char** argv) {
  micg::stopwatch total;
  const auto cfg = micg::benchkit::config::from_args(argc, argv);
  const int threads = cfg.measured_threads.back();
  const int runs = cfg.measured_runs;
  micg::benchkit::metrics_sink sink(cfg.metrics_json);

  const int scale = rmat_scale(cfg.measured_scale);
  const auto side =
      static_cast<micg::graph::vertex_t>(std::int64_t{1} << ((scale + 1) / 2));
  std::vector<std::pair<std::string, micg::graph::csr_graph>> graphs;
  graphs.emplace_back("rmat",
                      micg::graph::make_rmat(scale, 16, 0.57, 0.19, 0.19, 42));
  graphs.emplace_back("grid2d", micg::graph::make_grid_2d(side, side));

  const auto& prof = micg::tune::host_profile();
  std::cout << "Ablation: predicted vs measured tuning (" << threads
            << " threads, profile=" << (prof.synthetic ? "synthetic:" : "")
            << (prof.host.empty() ? "builtin" : prof.host)
            << ", isa=" << micg::simd::isa_name() << ", runs=" << runs
            << ")\n\n";

  int tuned_wins = 0, pairs = 0;
  for (const auto& [gname, g] : graphs) {
    const auto stats = micg::graph::compute_graph_stats(g);
    const auto plan = micg::tune::pick_knobs(prof, stats);

    // ------------------------------------------------------- pagerank
    {
      const auto run_pr = [&g, threads](const mem_opts& mem,
                                        std::int64_t chunk) {
        micg::irregular::pagerank_options opt;
        opt.ex.threads = threads;
        opt.ex.chunk = chunk;
        opt.max_iterations = 10;
        opt.tolerance = 0.0;  // fixed work per run
        opt.mem = mem;
        micg::irregular::pagerank(g, opt);
      };
      std::vector<timed_config> cfgs;
      cfgs.push_back({"default", [&run_pr] { run_pr(mem_opts{}, 64); }});
      cfgs.push_back({"tuned", [&run_pr, &plan] {
                        run_pr(plan.mem, plan.chunk > 0 ? plan.chunk : 64);
                      }});
      for (bool simd : {false, true}) {
        for (partition_mode part :
             {partition_mode::vertex, partition_mode::edge}) {
          for (int dist : {0, 8, 32}) {
            const mem_opts mem{.partition = part,
                               .prefetch_distance = dist,
                               .simd = simd};
            std::string name = std::string(simd ? "simd" : "scalar") + "/" +
                               micg::rt::partition_mode_name(part) + "/pf" +
                               std::to_string(dist);
            cfgs.push_back(
                {std::move(name), [&run_pr, mem] { run_pr(mem, 64); }});
          }
        }
      }
      for (std::int64_t chunk : {256, 1024, 4096}) {
        cfgs.push_back({"default/c" + std::to_string(chunk),
                        [&run_pr, chunk] { run_pr(mem_opts{}, chunk); }});
      }
      const auto ms = time_interleaved(cfgs, runs);
      report(gname, "pagerank", plan, cfgs, ms, sink, &tuned_wins, &pairs);
    }

    // ------------------------------------------------------------ bfs
    {
      micg::graph::vertex_t src = 0;
      while (g.degree(src) == 0) ++src;
      const auto run_queue = [&g, src, threads](std::int64_t chunk) {
        micg::bfs::parallel_bfs_options opt;
        opt.ex.threads = threads;
        opt.ex.chunk = chunk;
        micg::bfs::parallel_bfs(g, src, opt);
      };
      const auto run_dir = [&g, src, threads](partition_mode part,
                                              double alpha,
                                              std::int64_t chunk) {
        micg::bfs::direction_options opt;
        opt.ex.threads = threads;
        opt.ex.chunk = chunk;
        opt.partition = part;
        opt.alpha = alpha;
        micg::bfs::direction_optimizing_bfs(g, src, opt);
      };
      // The default is direction-optimizing BFS (api::run's default); the
      // tuner only picks its chunk.
      std::vector<timed_config> cfgs;
      cfgs.push_back({"dir/default", [&run_dir] {
                        run_dir(partition_mode::edge, 14.0, 64);
                      }});
      cfgs.push_back({"tuned", [&run_dir, &plan] {
                        run_dir(partition_mode::edge, 14.0,
                                plan.chunk > 0 ? plan.chunk : 64);
                      }});
      cfgs.push_back({"queue", [&run_queue] { run_queue(64); }});
      cfgs.push_back({"dir/vertex", [&run_dir] {
                        run_dir(partition_mode::vertex, 14.0, 64);
                      }});
      cfgs.push_back({"dir/edge/alpha8", [&run_dir] {
                        run_dir(partition_mode::edge, 8.0, 64);
                      }});
      const auto ms = time_interleaved(cfgs, runs);
      report(gname, "bfs", plan, cfgs, ms, sink, &tuned_wins, &pairs);
    }
  }

  std::cout << "[ablate_tune] tuned matched/beat default on " << tuned_wins
            << "/" << pairs << " (graph, kernel) pairs; done in "
            << table_printer::fmt(total.seconds(), 1) << "s\n";
  return 0;
}
