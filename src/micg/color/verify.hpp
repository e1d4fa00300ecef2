// Coloring validation helpers (used by tests and by the conflict-resolution
// quality checks in §V-B of the paper).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "micg/graph/csr.hpp"
#include "micg/rt/exec.hpp"

namespace micg::color {

namespace detail {

/// True iff ok(v) holds for every v in [0, n), checked on ex's workers.
/// A failure raises a relaxed flag that stops every worker's chunk early.
template <class Pred>
bool all_vertices(const rt::exec& ex, std::int64_t n, const Pred& ok) {
  std::atomic<bool> invalid{false};
  rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) {
      if (invalid.load(std::memory_order_relaxed)) return;
      if (!ok(i)) {
        invalid.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  return !invalid.load(std::memory_order_relaxed);
}

}  // namespace detail

/// True iff every vertex has a color >= 1 and no edge is monochromatic.
/// Runs on ex's workers; the default is one thread.
template <micg::graph::CsrGraph G>
bool is_valid_coloring(const G& g, std::span<const int> color,
                       const rt::exec& ex = {});

/// Vertices that conflict with a neighbor (v is reported when it has a
/// neighbor w with color[v] == color[w] and v < w, mirroring Algorithm 4).
template <micg::graph::CsrGraph G>
std::vector<typename G::vertex_type> find_conflicts(
    const G& g, std::span<const int> color);

/// Number of distinct colors used (= max color for first-fit colorings).
int count_colors(std::span<const int> color);

}  // namespace micg::color
