#include "micg/model/tracegen.hpp"

#include <vector>

#include "micg/bfs/seq.hpp"
#include "micg/color/iterative.hpp"
#include "micg/support/assert.hpp"

namespace micg::model {

// ---------------------------------------------------------------------------
// Calibrated kernel costs. One unit == one issue slot of a KNF core; the
// memory latency (machine_config::mem_latency = 40) turns miss counts into
// stall time. Calibration targets (EXPERIMENTS.md): coloring speedup ~72
// at 121 threads on naturally ordered graphs and ~153 on shuffled graphs
// (Figs 1-2); irregular-kernel speedups ~60 (iter=1) declining to ~49
// (iter=10) with the 61->121 plateau (Fig 3).
// ---------------------------------------------------------------------------

kernel_costs coloring_costs(bool shuffled) {
  kernel_costs c;
  c.cpu_per_edge = 6.0;    // load w, load color[w], stamp forbidden, loop
  c.cpu_per_vertex = 25.0; // first-fit scan + color store
  c.stall_per_edge = 1.0;
  c.stall_per_vertex = 2.0;
  // Natural FEM order: most neighbor colors are in cache; shuffling the
  // ids defeats all reuse ("break all the locality", §V-B).
  c.miss_per_edge = shuffled ? 0.62 : 0.17;
  c.miss_per_vertex = shuffled ? 1.0 : 0.3;
  return c;
}

kernel_costs conflict_detect_costs(bool shuffled) {
  // Same traversal, no first-fit scan, early exit on conflict.
  kernel_costs c = coloring_costs(shuffled);
  c.cpu_per_edge = 4.0;
  c.cpu_per_vertex = 8.0;
  return c;
}

kernel_costs irregular_costs(int iterations) {
  MICG_CHECK(iterations >= 1, "need at least one iteration");
  kernel_costs c;
  const auto it = static_cast<double>(iterations);
  // FLOPs scale with the iteration knob; each FP add on the in-order core
  // occupies the pipeline (cpu) and exposes a dependency bubble (stall).
  c.cpu_per_edge = 5.0 * it;
  c.cpu_per_vertex = 12.0 * it;
  c.stall_per_edge = 2.0 * it;
  c.stall_per_vertex = 4.0 * it;
  // Neighbor states are fetched once and stay cached across the inner
  // iteration loop, so memory traffic does not scale with `iterations`.
  c.miss_per_edge = 0.1;
  c.miss_per_vertex = 0.4;
  return c;
}

kernel_costs bfs_costs(bool shuffled) {
  kernel_costs c;
  c.cpu_per_edge = 6.0;     // level test + branch
  c.cpu_per_vertex = 25.0;  // queue pop, sentinel test, bookkeeping
  c.stall_per_edge = 1.0;
  c.stall_per_vertex = 2.0;
  c.miss_per_edge = shuffled ? 0.62 : 0.30;  // level array is touched cold
  c.miss_per_vertex = 0.5;
  return c;
}

namespace {

template <micg::graph::CsrGraph G>
work_item item_for_vertex(const G& g, typename G::vertex_type v,
                          const kernel_costs& c) {
  const auto deg = static_cast<double>(g.degree(v));
  work_item it;
  it.cpu_ops = c.cpu_per_vertex + c.cpu_per_edge * deg;
  it.stall_ops = c.stall_per_vertex + c.stall_per_edge * deg;
  it.mem_ops = c.miss_per_vertex + c.miss_per_edge * deg;
  return it;
}

}  // namespace

template <micg::graph::CsrGraph G>
work_trace coloring_trace(const G& g, bool shuffled) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  const kernel_costs tentative = coloring_costs(shuffled);
  const kernel_costs detect = conflict_detect_costs(shuffled);

  // Real round structure: run the actual iterative algorithm once, on one
  // thread, so the trace is a pure function of the graph. A concurrent
  // run's conflict counts depend on how host threads interleave, which
  // moved the modeled speedups from host to host; the model constants
  // were fitted to traces with almost no conflicts.
  micg::color::iterative_options copt;
  copt.ex.kind = rt::backend::omp_dynamic;
  copt.ex.threads = 1;
  copt.ex.chunk = 64;
  const auto run = micg::color::iterative_color(g, copt);

  work_trace trace;
  trace.cache_gain = shuffled ? 0.40 : 0.10;
  std::size_t visit_size = static_cast<std::size_t>(n);
  for (int round = 0; round < run.rounds; ++round) {
    // Visit vertices: the whole graph in round 0; later rounds use an
    // evenly spaced sample of the real conflict count (degree-
    // representative without recording the exact conflict set).
    std::vector<VId> visit;
    visit.reserve(visit_size);
    if (visit_size == static_cast<std::size_t>(n)) {
      for (VId v = 0; v < n; ++v) visit.push_back(v);
    } else if (visit_size > 0) {
      const std::size_t stride =
          std::max<std::size_t>(1, static_cast<std::size_t>(n) / visit_size);
      for (std::size_t i = 0; i < visit_size; ++i) {
        visit.push_back(static_cast<VId>(
            (i * stride) % static_cast<std::size_t>(n)));
      }
    }

    parallel_step tent;
    parallel_step det;
    tent.items.reserve(visit.size());
    det.items.reserve(visit.size());
    for (VId v : visit) {
      tent.items.push_back(item_for_vertex(g, v, tentative));
      det.items.push_back(item_for_vertex(g, v, detect));
    }
    // Swapping Visit/Conflict arrays and the maxcolor reduce are serial.
    det.serial_cpu_ops = 200.0;
    trace.steps.push_back(std::move(tent));
    trace.steps.push_back(std::move(det));

    visit_size = run.conflicts_per_round[static_cast<std::size_t>(round)];
  }
  return trace;
}

template <micg::graph::CsrGraph G>
work_trace irregular_trace(const G& g, int iterations) {
  using VId = typename G::vertex_type;
  const kernel_costs costs = irregular_costs(iterations);
  work_trace trace;
  trace.cache_gain = 0.10;
  parallel_step step;
  const VId n = g.num_vertices();
  step.items.reserve(static_cast<std::size_t>(n));
  for (VId v = 0; v < n; ++v) {
    step.items.push_back(item_for_vertex(g, v, costs));
  }
  trace.steps.push_back(std::move(step));
  return trace;
}

template <micg::graph::CsrGraph G>
work_trace bfs_trace(const G& g, typename G::vertex_type source,
                     const bfs_trace_options& opt) {
  using VId = typename G::vertex_type;
  const kernel_costs base = bfs_costs();
  const auto ref = micg::bfs::seq_bfs(g, source);

  // Bucket vertices by level (the real frontiers).
  std::vector<std::vector<VId>> levels(
      static_cast<std::size_t>(ref.num_levels));
  for (VId v = 0; v < g.num_vertices(); ++v) {
    const int lv = ref.level[static_cast<std::size_t>(v)];
    if (lv >= 0) levels[static_cast<std::size_t>(lv)].push_back(v);
  }

  work_trace trace;
  trace.cache_gain = 0.10;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    parallel_step step;
    step.items.reserve(levels[l].size());
    for (VId v : levels[l]) {
      work_item it = item_for_vertex(g, v, base);
      const auto deg = static_cast<double>(g.degree(v));
      switch (opt.frontier) {
        case bfs_frontier::block:
          // Discovered vertices pay one queue push; one atomic per block
          // is amortized into cpu_per_vertex. Locked insertion CASes on
          // every unvisited neighbor (~half the edges).
          it.cpu_ops += opt.relaxed ? 1.0 * deg : 15.0 * deg * 0.5;
          break;
        case bfs_frontier::tls:
          // Always locked; cheap local push, but the per-level merge is
          // serial (below).
          it.cpu_ops += 15.0 * deg * 0.5;
          break;
        case bfs_frontier::bag:
          // Pointer-heavy inserts and node allocation; extra misses from
          // chasing pennant nodes ("complex pointer techniques", §IV-C).
          it.cpu_ops += 8.0 * deg;
          it.mem_ops += 0.15 * deg;
          break;
      }
      step.items.push_back(it);
    }
    // Per-level serial work.
    const double next_frontier =
        l + 1 < levels.size() ? static_cast<double>(levels[l + 1].size())
                              : 0.0;
    switch (opt.frontier) {
      case bfs_frontier::block:
        step.serial_cpu_ops = 100.0;  // queue swap + cursor reset
        break;
      case bfs_frontier::tls:
        // SNAP merges local queues into the global queue serially.
        step.serial_cpu_ops = 100.0 + 2.0 * next_frontier;
        break;
      case bfs_frontier::bag:
        step.serial_cpu_ops = 400.0;  // bag unions (cheap but pointerful)
        break;
    }
    trace.steps.push_back(std::move(step));
  }
  return trace;
}

#define MICG_INSTANTIATE(G)                                         \
  template work_trace coloring_trace<G>(const G&, bool);            \
  template work_trace irregular_trace<G>(const G&, int);            \
  template work_trace bfs_trace<G>(const G&, typename G::vertex_type, \
                                   const bfs_trace_options&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::model
