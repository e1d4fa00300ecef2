#include "micg/color/verify.hpp"

#include <algorithm>

#include "micg/support/assert.hpp"

namespace micg::color {

template <micg::graph::CsrGraph G>
bool is_valid_coloring(const G& g, std::span<const int> color,
                       const rt::exec& ex) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  if (static_cast<VId>(color.size()) != n) return false;
  return detail::all_vertices(ex, n, [&](std::int64_t v) {
    const int c = color[static_cast<std::size_t>(v)];
    if (c < 1) return false;
    for (VId w : g.neighbors(static_cast<VId>(v))) {
      if (c == color[static_cast<std::size_t>(w)]) return false;
    }
    return true;
  });
}

template <micg::graph::CsrGraph G>
std::vector<typename G::vertex_type> find_conflicts(
    const G& g, std::span<const int> color) {
  using VId = typename G::vertex_type;
  MICG_CHECK(static_cast<VId>(color.size()) == g.num_vertices(),
             "color array size mismatch");
  std::vector<VId> conflicts;
  const VId n = g.num_vertices();
  for (VId v = 0; v < n; ++v) {
    for (VId w : g.neighbors(v)) {
      if (color[static_cast<std::size_t>(v)] ==
              color[static_cast<std::size_t>(w)] &&
          v < w) {
        conflicts.push_back(v);
        break;
      }
    }
  }
  return conflicts;
}

int count_colors(std::span<const int> color) {
  int maxc = 0;
  for (int c : color) maxc = std::max(maxc, c);
  return maxc;
}

#define MICG_INSTANTIATE(G)                                     \
  template bool is_valid_coloring<G>(                           \
      const G&, std::span<const int>, const rt::exec&);         \
  template std::vector<typename G::vertex_type>                 \
  find_conflicts<G>(const G&, std::span<const int>);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::color
