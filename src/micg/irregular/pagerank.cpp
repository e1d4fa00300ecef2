#include "micg/irregular/pagerank.hpp"

#include <array>
#include <cmath>

#include "micg/obs/obs.hpp"
#include "micg/rt/reduce.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/simd.hpp"

namespace micg::irregular {

template <micg::graph::CsrGraph G>
pagerank_result pagerank(const G& g, const pagerank_options& opt) {
  using VId = typename G::vertex_type;
  using EId = typename G::edge_type;
  const VId n = g.num_vertices();
  MICG_CHECK(n > 0, "pagerank needs a non-empty graph");
  MICG_CHECK(opt.damping > 0.0 && opt.damping < 1.0,
             "damping must be in (0, 1)");
  MICG_CHECK(opt.ex.threads >= 1, "need at least one thread");

  const double init = 1.0 / static_cast<double>(n);
  pagerank_result r;
  r.rank.assign(static_cast<std::size_t>(n), init);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  // contrib[w] = rank[w] / degree(w), computed once per iteration: the
  // gather loop then sums plain doubles instead of dividing per edge
  // (|V| divisions instead of |E|).
  std::vector<double> contrib(static_cast<std::size_t>(n), 0.0);

  const EId* xadj = g.xadj().data();
  const VId* adj = g.adj().data();
  const bool vec = opt.mem.simd;

  // Fills contrib[i] from vertex i's rank and returns its dangling mass:
  // isolated vertices spread their whole rank everywhere.
  auto fill_contrib = [&](std::int64_t i, double rank_i) {
    const EId deg = xadj[i + 1] - xadj[i];
    if (deg == 0) {
      contrib[static_cast<std::size_t>(i)] = 0.0;
      return rank_i;
    }
    contrib[static_cast<std::size_t>(i)] = rank_i / static_cast<double>(deg);
    return 0.0;
  };
  // The reductions use fixed blocks (rt/reduce.hpp), not per-chunk
  // accumulators, so the result — and through `base`, every rank value —
  // is bit-identical across threads, chunk sizes and partitioning: the
  // invariance that lets the schedule change without moving the answer.
  double dangling = rt::deterministic_sum<1>(opt.ex, n, [&](std::int64_t i) {
    return std::array{fill_contrib(i, r.rank[static_cast<std::size_t>(i)])};
  })[0];

  for (r.iterations = 0; r.iterations < opt.max_iterations;
       ++r.iterations) {
    const double base =
        (1.0 - opt.damping) / static_cast<double>(n) +
        opt.damping * dangling / static_cast<double>(n);

    const double* src = contrib.data();
    rt::for_range_graph(
        opt.ex, n, xadj, opt.mem.partition,
        [&](std::int64_t b, std::int64_t e, int) {
          for (std::int64_t i = b; i < e; ++i) {
            const EId rb = xadj[i];
            const EId re = xadj[i + 1];
            const double sum = simd::gather_sum(
                src, adj + rb, static_cast<std::size_t>(re - rb), vec);
            next[static_cast<std::size_t>(i)] = base + opt.damping * sum;
          }
        });
    // One fused O(|V|) sweep: the convergence delta of this iteration,
    // plus contrib and the dangling mass of `next`, the rank the next
    // iteration gathers from.
    const auto [delta, next_dangling] =
        rt::deterministic_sum<2>(opt.ex, n, [&](std::int64_t i) {
          const double x = next[static_cast<std::size_t>(i)];
          return std::array{std::abs(x - r.rank[static_cast<std::size_t>(i)]),
                            fill_contrib(i, x)};
        });
    r.final_delta = delta;
    dangling = next_dangling;
    r.rank.swap(next);
    if (r.final_delta < opt.tolerance) {
      r.converged = true;
      ++r.iterations;
      break;
    }
  }
  if (obs::recorder* rec = opt.ex.sink(); rec != nullptr) {
    rec->set_meta("kernel", "pagerank");
    rec->set_meta("converged", r.converged ? "true" : "false");
    rec->set_meta("partition", rt::partition_mode_name(opt.mem.partition));
    rec->set_meta("simd", opt.mem.simd && simd::vectorized() ? simd::isa_name()
                                                             : "scalar");
    rec->get_counter("pagerank.iterations")
        .add(0, static_cast<std::uint64_t>(r.iterations));
    rec->set_value("pagerank.final_delta", r.final_delta);
  }
  return r;
}

#define MICG_INSTANTIATE(G) \
  template pagerank_result pagerank<G>(const G&, const pagerank_options&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::irregular
