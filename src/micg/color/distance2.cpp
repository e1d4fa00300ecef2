#include "micg/color/distance2.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "micg/color/verify.hpp"
#include "micg/rt/reducer.hpp"
#include "micg/rt/tls.hpp"
#include "micg/support/assert.hpp"

namespace micg::color {

namespace {

/// Scratch capacity: first-fit distance-2 never needs more than
/// min(Delta^2 + 2, n + 1) slots.
template <micg::graph::CsrGraph G>
std::size_t d2_capacity(const G& g) {
  const auto d = static_cast<std::size_t>(g.max_degree());
  const auto by_degree = d * d + 2;
  const auto by_n = static_cast<std::size_t>(g.num_vertices()) + 2;
  return std::min(by_degree, by_n);
}

/// Visit the distance <= 2 neighborhood of v (excluding v itself; w == v
/// two-hop paths are skipped).
template <micg::graph::CsrGraph G, typename F>
void for_d2_neighborhood(const G& g, typename G::vertex_type v, F&& f) {
  using VId = typename G::vertex_type;
  for (VId w : g.neighbors(v)) {
    f(w);
    for (VId x : g.neighbors(w)) {
      if (x != v) f(x);
    }
  }
}

}  // namespace

template <micg::graph::CsrGraph G>
coloring greedy_color_distance2(const G& g) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  coloring result;
  result.color.assign(static_cast<std::size_t>(n), 0);
  forbidden_marks forbidden(d2_capacity(g));
  int maxcolor = 0;
  for (VId v = 0; v < n; ++v) {
    for_d2_neighborhood(g, v, [&](VId u) {
      forbidden.forbid(result.color[static_cast<std::size_t>(u)], v);
    });
    const int c = forbidden.first_allowed(v);
    result.color[static_cast<std::size_t>(v)] = c;
    maxcolor = std::max(maxcolor, c);
  }
  result.num_colors = maxcolor;
  return result;
}

template <micg::graph::CsrGraph G>
bool is_valid_distance2_coloring(const G& g, std::span<const int> color,
                                 const rt::exec& ex) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  if (static_cast<VId>(color.size()) != n) return false;
  return detail::all_vertices(ex, n, [&](std::int64_t i) {
    const auto v = static_cast<VId>(i);
    const int c = color[static_cast<std::size_t>(v)];
    if (c < 1) return false;
    bool ok = true;
    for_d2_neighborhood(g, v, [&](VId u) {
      if (u != v && color[static_cast<std::size_t>(u)] == c) ok = false;
    });
    return ok;
  });
}

template <micg::graph::CsrGraph G>
iterative_result iterative_color_distance2(const G& g,
                                           const iterative_options& opt) {
  using VId = typename G::vertex_type;
  MICG_CHECK(opt.ex.threads >= 1, "need at least one thread");
  const VId n = g.num_vertices();
  const std::size_t cap = d2_capacity(g);

  std::vector<std::atomic<int>> color(static_cast<std::size_t>(n));
  for (auto& c : color) c.store(0, std::memory_order_relaxed);

  std::vector<VId> visit(static_cast<std::size_t>(n));
  std::iota(visit.begin(), visit.end(), VId{0});

  rt::enumerable_thread_specific<forbidden_marks> scratch(
      opt.ex.threads, [cap] { return forbidden_marks(cap); });

  iterative_result result;
  std::vector<VId> conflicts(visit.size());

  while (!visit.empty()) {
    MICG_CHECK(result.rounds < opt.max_rounds,
               "iterative distance-2 coloring failed to converge");
    ++result.rounds;

    rt::for_range(opt.ex, static_cast<std::int64_t>(visit.size()),
                  [&](std::int64_t b, std::int64_t e, int) {
                    forbidden_marks& marks = scratch.local();
                    for (std::int64_t i = b; i < e; ++i) {
                      const VId v = visit[static_cast<std::size_t>(i)];
                      for_d2_neighborhood(g, v, [&](VId u) {
                        marks.forbid(
                            color[static_cast<std::size_t>(u)].load(
                                std::memory_order_relaxed),
                            v);
                      });
                      color[static_cast<std::size_t>(v)].store(
                          marks.first_allowed(v), std::memory_order_relaxed);
                    }
                  });

    conflicts.resize(visit.size());
    std::atomic<std::size_t> cursor{0};
    rt::for_range(
        opt.ex, static_cast<std::int64_t>(visit.size()),
        [&](std::int64_t b, std::int64_t e, int) {
          for (std::int64_t i = b; i < e; ++i) {
            const VId v = visit[static_cast<std::size_t>(i)];
            const int cv = color[static_cast<std::size_t>(v)].load(
                std::memory_order_relaxed);
            bool conflicted = false;
            for_d2_neighborhood(g, v, [&](VId u) {
              if (!conflicted && v < u &&
                  cv == color[static_cast<std::size_t>(u)].load(
                            std::memory_order_relaxed)) {
                conflicted = true;
              }
            });
            if (conflicted) {
              conflicts[cursor.fetch_add(1, std::memory_order_relaxed)] = v;
            }
          }
        });
    conflicts.resize(cursor.load(std::memory_order_relaxed));
    result.conflicts_per_round.push_back(conflicts.size());
    visit.swap(conflicts);
  }

  result.color.resize(static_cast<std::size_t>(n));
  int maxc = 0;
  for (VId v = 0; v < n; ++v) {
    const int c =
        color[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
    result.color[static_cast<std::size_t>(v)] = c;
    maxc = std::max(maxc, c);
  }
  result.num_colors = maxc;
  return result;
}

#define MICG_INSTANTIATE(G)                                        \
  template coloring greedy_color_distance2<G>(const G&);           \
  template iterative_result iterative_color_distance2<G>(          \
      const G&, const iterative_options&);                         \
  template bool is_valid_distance2_coloring<G>(                    \
      const G&, std::span<const int>, const rt::exec&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::color
