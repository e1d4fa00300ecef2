// Ablation: memory-hierarchy fast paths — SIMD gather x software-prefetch
// distance x loop partitioning for the irregular kernels, and the
// partitioning of direction-optimizing BFS's bitmap bottom-up steps. The
// paper's KNF card is an in-order machine whose gather loops stall on
// every cache miss (§III-B); these are the knobs that hide or remove that
// latency. Every knob
// configuration computes bit-identical results (tested), so the sweep
// measures memory behavior only. The speedup column is baseline time /
// config time, where the baseline row runs the pre-optimization kernel
// (seed spmv/pagerank, vertex-partitioned bottom-up BFS).
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "micg/benchkit/benchkit.hpp"
#include "micg/bfs/direction.hpp"
#include "micg/graph/generators.hpp"
#include "micg/irregular/pagerank.hpp"
#include "micg/irregular/spmv.hpp"
#include "micg/rt/edge_partition.hpp"
#include "micg/rt/tls.hpp"
#include "micg/support/rng.hpp"
#include "micg/support/simd.hpp"
#include "micg/support/table.hpp"
#include "micg/support/timer.hpp"

namespace {

using micg::table_printer;
using micg::rt::mem_opts;
using micg::rt::partition_mode;

struct mem_config {
  std::string name;
  mem_opts mem;
};

std::vector<mem_config> sweep_configs() {
  std::vector<mem_config> cfgs;
  for (bool simd : {false, true}) {
    for (partition_mode part : {partition_mode::vertex, partition_mode::edge}) {
      for (int dist : {0, 8, 32}) {
        mem_config c;
        c.mem = {.partition = part, .prefetch_distance = dist, .simd = simd};
        c.name = std::string(simd ? "simd" : "scalar") + "/" +
                 micg::rt::partition_mode_name(part) + "/pf" +
                 std::to_string(dist);
        cfgs.push_back(c);
      }
    }
  }
  return cfgs;
}

/// RMAT scale derived from the measured-scale knob so MICG_MEASURED_SCALE
/// moves this bench like the suite benches: 0.02 -> 10, 1.0 -> 16.
int rmat_scale(double mscale) {
  return std::max(10, 16 + static_cast<int>(std::lround(std::log2(mscale))));
}

// ---------------------------------------------------------------------------
// Pre-optimization reference kernels, copied from the seed implementations.
// The library's scalar fallback (mem_opts{simd=false}) is already
// restructured for ISA parity — striped accumulators, per-iteration
// contribution array — so it is *not* the code this sweep claims a win
// over. These are: one left-to-right accumulator per row, and pagerank's
// original per-edge division.

std::vector<double> seed_spmv(const micg::graph::csr_graph& g,
                              const std::vector<double>& x, int threads) {
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  micg::rt::exec ex;
  ex.threads = threads;
  const double* src = x.data();
  double* dst = y.data();
  micg::rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) {
      const auto v = static_cast<micg::graph::vertex_t>(i);
      double acc = 0.0;
      for (auto w : g.neighbors(v)) acc += src[static_cast<std::size_t>(w)];
      dst[i] = acc;
    }
  });
  return y;
}

std::vector<double> seed_pagerank(const micg::graph::csr_graph& g,
                                  int threads, int iterations) {
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  const double damping = 0.85;
  std::vector<double> rank(static_cast<std::size_t>(n),
                           1.0 / static_cast<double>(n));
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  micg::rt::exec ex;
  ex.threads = threads;
  micg::rt::combinable<double> dangling_acc(threads);
  for (int it = 0; it < iterations; ++it) {
    dangling_acc.clear();
    micg::rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
      double local = 0.0;
      for (std::int64_t i = b; i < e; ++i) {
        if (g.degree(static_cast<micg::graph::vertex_t>(i)) == 0) {
          local += rank[static_cast<std::size_t>(i)];
        }
      }
      dangling_acc.local() += local;
    });
    const double dangling =
        dangling_acc.combine(0.0, [](double a, double b) { return a + b; });
    const double base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    micg::rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
      for (std::int64_t i = b; i < e; ++i) {
        const auto v = static_cast<micg::graph::vertex_t>(i);
        double sum = 0.0;
        for (auto w : g.neighbors(v)) {
          sum += rank[static_cast<std::size_t>(w)] /
                 static_cast<double>(g.degree(w));
        }
        next[static_cast<std::size_t>(v)] = base + damping * sum;
      }
    });
    rank.swap(next);
  }
  return rank;
}

}  // namespace

int main(int argc, char** argv) {
  micg::stopwatch total;
  const auto cfg = micg::benchkit::config::from_args(argc, argv);
  const int threads = cfg.measured_threads.back();
  const int runs = cfg.measured_runs;
  micg::benchkit::metrics_sink sink(cfg.metrics_json);

  const int scale = rmat_scale(cfg.measured_scale);
  const auto g = micg::graph::make_rmat(scale, 16, 0.57, 0.19, 0.19, 42);
  const auto n = g.num_vertices();

  std::cout << "Ablation: memory-hierarchy fast paths (" << threads
            << " threads, RMAT scale=" << scale << ", |V|="
            << table_printer::human(static_cast<long long>(n)) << ", |E|="
            << table_printer::human(static_cast<long long>(g.num_edges()))
            << ", isa=" << micg::simd::isa_name() << ")\n\n";

  micg::xoshiro256ss rng(7);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform();

  const auto configs = sweep_configs();

  // ------------------------------------------------------- irregular sweep
  //
  // Configs are timed in interleaved rounds (round-robin over the sweep,
  // `runs` times) and each config reports its fastest round. Timing each
  // config in one contiguous block is 20%+ off on a shared machine: any
  // system-wide slowdown lands entirely on whichever config happens to be
  // running, while interleaving spreads drift across all of them and the
  // min discards it.
  for (const char* kernel : {"spmv", "pagerank"}) {
    const bool is_spmv = std::string(kernel) == "spmv";
    const auto run_knobs = [&, is_spmv](const mem_opts& mem) {
      if (is_spmv) {
        micg::irregular::spmv_options opt;
        opt.ex.threads = threads;
        opt.mem = mem;
        micg::irregular::spmv(g, x, opt);
      } else {
        micg::irregular::pagerank_options opt;
        opt.ex.threads = threads;
        opt.max_iterations = 10;
        opt.tolerance = 0.0;  // fixed work per run
        opt.mem = mem;
        micg::irregular::pagerank(g, opt);
      }
    };
    // Row 0 is the pre-optimization kernel; every speedup is against it.
    std::vector<std::pair<std::string, std::function<void()>>> rows;
    rows.emplace_back("seed/vertex", [&, is_spmv] {
      if (is_spmv) {
        seed_spmv(g, x, threads);
      } else {
        seed_pagerank(g, threads, 10);
      }
    });
    for (const auto& c : configs) {
      rows.emplace_back(c.name, [&run_knobs, mem = c.mem] { run_knobs(mem); });
    }
    std::vector<double> best(rows.size(),
                             std::numeric_limits<double>::infinity());
    for (int r = 0; r < runs; ++r) {
      for (std::size_t ci = 0; ci < rows.size(); ++ci) {
        micg::stopwatch sw;
        rows[ci].second();
        best[ci] = std::min(best[ci], 1e3 * sw.seconds());
      }
    }
    table_printer t(std::string(kernel) +
                    ": simd x partition x prefetch distance");
    t.header({"config", "ms", "speedup"});
    const double baseline_ms = best.front();
    for (std::size_t ci = 0; ci < rows.size(); ++ci) {
      const double ms = best[ci];
      const double speedup = baseline_ms / ms;
      t.row({rows[ci].first, table_printer::fmt(ms),
             table_printer::fmt(speedup)});
      if (sink.enabled()) {
        micg::obs::recorder rec;
        {
          micg::obs::scoped_global guard(rec);
          rows[ci].second();
        }
        rec.set_meta("bench", "ablate_memlat");
        rec.set_meta("kernel", kernel);  // the seed rows don't self-tag
        rec.set_meta("config", rows[ci].first);
        rec.set_value("time_ms", ms);
        rec.set_value("speedup_vs_baseline", speedup);
        sink.record(rec.take());
      }
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  // ------------------------------------------------------ direction sweep
  {
    micg::graph::vertex_t src = 0;
    while (g.degree(src) == 0) ++src;
    table_printer t("direction bfs: bottom-up partition");
    t.header({"config", "ms", "speedup"});
    struct bfs_config {
      std::string name;
      partition_mode part;
    };
    const bfs_config bfs_cfgs[] = {
        {"bitmap/vertex", partition_mode::vertex},
        {"bitmap/edge", partition_mode::edge},
    };
    const auto run_once = [&](const bfs_config& c) {
      micg::bfs::direction_options opt;
      opt.ex.threads = threads;
      opt.partition = c.part;
      micg::bfs::direction_optimizing_bfs(g, src, opt);
    };
    const std::size_t ncfg = std::size(bfs_cfgs);
    std::vector<double> best(ncfg, std::numeric_limits<double>::infinity());
    for (int r = 0; r < runs; ++r) {
      for (std::size_t ci = 0; ci < ncfg; ++ci) {
        micg::stopwatch sw;
        run_once(bfs_cfgs[ci]);
        best[ci] = std::min(best[ci], 1e3 * sw.seconds());
      }
    }
    const double baseline_ms = best.front();
    for (std::size_t ci = 0; ci < ncfg; ++ci) {
      const auto& c = bfs_cfgs[ci];
      const double ms = best[ci];
      const double speedup = baseline_ms / ms;
      t.row({c.name, table_printer::fmt(ms), table_printer::fmt(speedup)});
      if (sink.enabled()) {
        micg::obs::recorder rec;
        {
          micg::obs::scoped_global guard(rec);
          run_once(c);
        }
        rec.set_meta("bench", "ablate_memlat");
        rec.set_meta("config", "bfs/" + c.name);
        rec.set_value("time_ms", ms);
        rec.set_value("speedup_vs_baseline", speedup);
        sink.record(rec.take());
      }
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "[ablate_memlat] done in "
            << table_printer::fmt(total.seconds(), 1) << "s\n";
  return 0;
}
