// Ablation: block size of the block-accessed queue (§IV-C: "by keeping
// the block size small (but not so small so that we do not use atomics
// too often), the overhead is minimized"; §V-D: 32 "yields the best
// performance").
//
// Three views:
//  1. the paper's analytical model: achievable speedup vs block size;
//  2. the machine model: atomics-vs-granularity tradeoff;
//  3. real execution: queue padding overhead (sentinel slots vs frontier).
#include <iostream>

#include "micg/bfs/compact_frontier.hpp"
#include "micg/bfs/layered.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/benchkit/benchkit.hpp"
#include "micg/model/bfs_model.hpp"
#include "micg/model/exec_model.hpp"
#include "micg/model/machine.hpp"
#include "micg/model/tracegen.hpp"
#include "micg/support/timer.hpp"

int main(int argc, char** argv) {
  using micg::table_printer;
  micg::stopwatch total;
  const auto cfg = micg::benchkit::config::from_args(argc, argv);
  const double scale = cfg.model_scale;
  const auto knf = micg::model::machine_config::knf();
  const std::vector<int> blocks{1, 4, 8, 16, 32, 64, 128, 256, 1024};

  std::cout << "Ablation: block-accessed queue block size (scale=" << scale
            << ")\n\n";

  // 1) Paper model: larger blocks waste trailing-round slack on narrow
  // frontiers; the effect is graph-dependent.
  {
    table_printer t("Paper-model achievable speedup vs block size");
    std::vector<std::string> header{"graph"};
    for (int b : blocks) header.push_back("b=" + std::to_string(b));
    t.header(std::move(header));
    for (const char* name : {"pwtk", "inline_1", "ldoor"}) {
      const auto& g = micg::benchkit::suite_graph(name, scale);
      const auto ref = micg::bfs::seq_bfs(g, g.num_vertices() / 2);
      std::vector<std::string> row{name};
      for (int b : blocks) {
        row.push_back(table_printer::fmt(
            micg::model::bfs_model_speedup(ref.frontier_sizes, 121, b)));
      }
      t.row(std::move(row));
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  // 2) Machine model at 121 threads: chunk (= block) granularity sweep.
  {
    table_printer t("Machine-model speedup at 121 threads vs block size");
    std::vector<std::string> header{"graph"};
    for (int b : blocks) header.push_back("b=" + std::to_string(b));
    t.header(std::move(header));
    for (const char* name : {"pwtk", "inline_1", "ldoor"}) {
      const auto& g = micg::benchkit::suite_graph(name, scale);
      micg::model::bfs_trace_options bo;
      const auto trace =
          micg::model::bfs_trace(g, g.num_vertices() / 2, bo);
      std::vector<std::string> row{name};
      for (int b : blocks) {
        micg::model::exec_options o;
        o.policy = micg::rt::backend::omp_dynamic;
        o.threads = 121;
        o.chunk = b;
        row.push_back(table_printer::fmt(
            micg::model::model_speedup(trace, o, knf)));
      }
      t.row(std::move(row));
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  // 3) Real execution: sentinel padding overhead of the block queue
  // ("this scheme can produce slightly larger queues").
  {
    const double mscale = cfg.measured_scale;
    const int threads = cfg.measured_threads.back();
    table_printer t(
        "Measured queue padding (slots incl. sentinels / frontier), " +
        std::to_string(threads) + " threads, scale=" +
        table_printer::fmt(mscale, 3));
    std::vector<std::string> header{"graph"};
    for (int b : blocks) header.push_back("b=" + std::to_string(b));
    t.header(std::move(header));
    for (const char* name : {"pwtk", "inline_1"}) {
      const auto& g = micg::benchkit::suite_graph(name, mscale);
      std::vector<std::string> row{name};
      for (int b : blocks) {
        micg::bfs::parallel_bfs_options opt;
        opt.variant = micg::bfs::bfs_variant::omp_block_relaxed;
        opt.ex.threads = threads;
        opt.block = b;
        const auto r =
            micg::bfs::parallel_bfs(g, g.num_vertices() / 2, opt);
        std::size_t slots = 0;
        for (auto s : r.queue_slots_per_level) slots += s;
        row.push_back(table_printer::fmt(
            static_cast<double>(slots) /
            static_cast<double>(r.reached)));
      }
      t.row(std::move(row));
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  // 4) Sentinel padding vs compaction (the §IV-C design decision): wall
  // clock of the relaxed block queue against the scan-compacted frontier.
  {
    const double mscale = cfg.measured_scale;
    const int threads = cfg.measured_threads.back();
    const int runs = cfg.measured_runs;
    table_printer t("Measured: sentinel-padded block queue vs compacting frontier (ms, " +
                    std::to_string(threads) + " threads)");
    t.header({"graph", "sentinel(b=32)", "compact(scan)", "ratio"});
    for (const char* name : {"pwtk", "inline_1"}) {
      const auto& g = micg::benchkit::suite_graph(name, mscale);
      const auto src = g.num_vertices() / 2;
      micg::bfs::parallel_bfs_options sopt;
      sopt.variant = micg::bfs::bfs_variant::omp_block_relaxed;
      sopt.ex.threads = threads;
      sopt.block = 32;
      const double sentinel_ms =
          1e3 * micg::benchkit::time_stable(
                    [&] { micg::bfs::parallel_bfs(g, src, sopt); }, runs);
      micg::bfs::compact_bfs_options copt;
      copt.ex.threads = threads;
      const double compact_ms =
          1e3 * micg::benchkit::time_stable(
                    [&] { micg::bfs::parallel_bfs_compact(g, src, copt); },
                    runs);
      t.row({name, table_printer::fmt(sentinel_ms),
             table_printer::fmt(compact_ms),
             table_printer::fmt(compact_ms / sentinel_ms)});
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  // Structured metrics: one instrumented block-queue BFS run.
  micg::benchkit::metrics_sink sink(cfg.metrics_json);
  if (sink.enabled()) {
    const auto& g = micg::benchkit::suite_graph("pwtk", cfg.measured_scale);
    micg::bfs::parallel_bfs_options opt;
    opt.variant = micg::bfs::bfs_variant::omp_block_relaxed;
    opt.ex.threads = cfg.measured_threads.back();
    opt.block = 32;
    micg::benchkit::record_run(
        sink,
        {{"bench", "ablate_block_size"}, {"graph", "pwtk"}},
        [&] { micg::bfs::parallel_bfs(g, g.num_vertices() / 2, opt); });
  }

  std::cout << "[ablate_block_size] done in "
            << table_printer::fmt(total.seconds(), 1) << "s\n";
  return 0;
}
