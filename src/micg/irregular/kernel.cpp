#include "micg/irregular/kernel.hpp"


#include "micg/obs/obs.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/simd.hpp"

namespace micg::irregular {

namespace {

/// One vertex update: `iterations` rounds of averaging over the (fixed)
/// neighbor states read from `read` (the racing buffer in in_place mode,
/// the previous snapshot in jacobi mode). The neighbor sum goes through
/// the striped gather so the result is ISA-independent.
template <class VId>
double update_vertex(const double* read, double mine, const VId* row,
                     std::size_t deg, int iterations, bool vec) {
  const double inv = 1.0 / (static_cast<double>(deg) + 1.0);
  for (int i = 0; i < iterations; ++i) {
    const double sum = mine + simd::gather_sum(read, row, deg, vec);
    mine = sum * inv;
  }
  return mine;
}

}  // namespace

template <micg::graph::CsrGraph G>
std::vector<double> irregular_kernel(const G& g,
                                     std::span<const double> state,
                                     const kernel_options& opt) {
  using VId = typename G::vertex_type;
  using EId = typename G::edge_type;
  const VId n = g.num_vertices();
  MICG_CHECK(static_cast<VId>(state.size()) == n,
             "state size must equal vertex count");
  MICG_CHECK(opt.iterations >= 1, "need at least one iteration");
  MICG_CHECK(opt.ex.threads >= 1, "need at least one thread");

  obs::recorder* rec = opt.ex.sink();
  obs::counter* updates_ctr =
      rec != nullptr ? &rec->get_counter("irregular.vertex_updates")
                     : nullptr;
  obs::span sweep_span =
      rec != nullptr ? rec->start_span("irregular.sweep") : obs::span();
  sweep_span.value("iterations", static_cast<double>(opt.iterations));
  if (rec != nullptr) {
    rec->set_meta("kernel", "irregular_kernel");
    rec->set_meta("mode",
                  opt.mode == kernel_mode::in_place ? "in_place" : "jacobi");
    rec->set_meta("backend", rt::backend_name(opt.ex.kind));
    rec->set_meta("partition", rt::partition_mode_name(opt.mem.partition));
    rec->set_meta("simd", opt.mem.simd && simd::vectorized() ? simd::isa_name()
                                                             : "scalar");
  }

  const EId* xadj = g.xadj().data();
  const VId* adj = g.adj().data();
  const bool vec = opt.mem.simd;

  std::vector<double> out(state.begin(), state.end());
  // Algorithm 5 (in_place): concurrent reads of `out` while it is updated.
  // The races are benign for the benchmark's purpose (every write is a
  // convex combination of current values). Jacobi reads the snapshot.
  const double* read =
      opt.mode == kernel_mode::in_place ? out.data() : state.data();
  double* dst = out.data();
  rt::for_range_graph(
      opt.ex, n, xadj, opt.mem.partition,
      [&](std::int64_t b, std::int64_t e, int worker) {
        if (updates_ctr != nullptr) {
          updates_ctr->add(worker, static_cast<std::uint64_t>(e - b));
        }
        for (std::int64_t i = b; i < e; ++i) {
          const EId rb = xadj[i];
          const EId re = xadj[i + 1];
          dst[i] = update_vertex(read, read[i], adj + rb,
                                 static_cast<std::size_t>(re - rb),
                                 opt.iterations, vec);
        }
      });
  return out;
}

template <micg::graph::CsrGraph G>
std::vector<double> irregular_kernel_seq(const G& g,
                                         std::span<const double> state,
                                         int iterations) {
  using VId = typename G::vertex_type;
  using EId = typename G::edge_type;
  const VId n = g.num_vertices();
  MICG_CHECK(static_cast<VId>(state.size()) == n,
             "state size must equal vertex count");
  const EId* xadj = g.xadj().data();
  const VId* adj = g.adj().data();
  std::vector<double> out(state.begin(), state.end());
  for (VId v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    const EId rb = xadj[i];
    const EId re = xadj[i + 1];
    out[i] = update_vertex(out.data(), out[i], adj + rb,
                           static_cast<std::size_t>(re - rb), iterations,
                           /*vec=*/true);
  }
  return out;
}

#define MICG_INSTANTIATE(G)                          \
  template std::vector<double> irregular_kernel<G>(  \
      const G&, std::span<const double>, const kernel_options&); \
  template std::vector<double> irregular_kernel_seq<G>(          \
      const G&, std::span<const double>, int);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::irregular
