#include "micg/graph/components.hpp"

#include <atomic>
#include <numeric>

#include "micg/support/assert.hpp"

namespace micg::graph {

template <CsrGraph G>
basic_components_result<typename G::vertex_type> parallel_components(
    const G& g, const rt::exec& ex) {
  using VId = typename G::vertex_type;
  MICG_CHECK(ex.threads >= 1, "need at least one thread");
  const VId n = g.num_vertices();
  basic_components_result<VId> r;

  // Atomic labels: hooking races are benign (min-combining converges
  // regardless of interleaving) but must be data-race-free.
  std::vector<std::atomic<VId>> label(static_cast<std::size_t>(n));
  for (VId v = 0; v < n; ++v) {
    label[static_cast<std::size_t>(v)].store(v, std::memory_order_relaxed);
  }

  std::atomic<bool> changed{true};
  while (changed.load(std::memory_order_relaxed)) {
    ++r.rounds;
    MICG_CHECK(r.rounds <= n + 2, "component labeling failed to converge");
    changed.store(false, std::memory_order_relaxed);

    // Hook: adopt the smallest label in the closed neighborhood.
    rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
      bool local_changed = false;
      for (std::int64_t i = b; i < e; ++i) {
        const auto v = static_cast<VId>(i);
        VId best =
            label[static_cast<std::size_t>(v)].load(
                std::memory_order_relaxed);
        for (VId w : g.neighbors(v)) {
          best = std::min(best,
                          label[static_cast<std::size_t>(w)].load(
                              std::memory_order_relaxed));
        }
        // min-update; lost races just mean another thread wrote smaller.
        VId cur = label[static_cast<std::size_t>(v)].load(
            std::memory_order_relaxed);
        while (best < cur &&
               !label[static_cast<std::size_t>(v)]
                    .compare_exchange_weak(cur, best,
                                           std::memory_order_relaxed)) {
        }
        if (best < cur) local_changed = true;
        if (label[static_cast<std::size_t>(v)].load(
                std::memory_order_relaxed) != cur) {
          local_changed = true;
        }
      }
      if (local_changed) changed.store(true, std::memory_order_relaxed);
    });

    // Compress: pointer-jump labels toward roots (label[label[v]]).
    rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
      for (std::int64_t i = b; i < e; ++i) {
        const auto v = static_cast<VId>(i);
        VId l = label[static_cast<std::size_t>(v)].load(
            std::memory_order_relaxed);
        VId ll = label[static_cast<std::size_t>(l)].load(
            std::memory_order_relaxed);
        while (ll < l) {
          label[static_cast<std::size_t>(v)].store(
              ll, std::memory_order_relaxed);
          l = ll;
          ll = label[static_cast<std::size_t>(l)].load(
              std::memory_order_relaxed);
        }
      }
    });
  }

  r.label.resize(static_cast<std::size_t>(n));
  for (VId v = 0; v < n; ++v) {
    r.label[static_cast<std::size_t>(v)] =
        label[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
    if (r.label[static_cast<std::size_t>(v)] == v) ++r.num_components;
  }
  return r;
}

template <CsrGraph G>
typename G::vertex_type count_components(const G& g) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  VId components = 0;
  std::vector<VId> stack;
  for (VId root = 0; root < n; ++root) {
    if (seen[static_cast<std::size_t>(root)]) continue;
    ++components;
    seen[static_cast<std::size_t>(root)] = true;
    stack.push_back(root);
    while (!stack.empty()) {
      const VId v = stack.back();
      stack.pop_back();
      for (VId w : g.neighbors(v)) {
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = true;
          stack.push_back(w);
        }
      }
    }
  }
  return components;
}

#define MICG_INSTANTIATE(G)                                               \
  template basic_components_result<typename G::vertex_type>               \
  parallel_components<G>(const G&, const rt::exec&);                      \
  template typename G::vertex_type count_components<G>(const G&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::graph
