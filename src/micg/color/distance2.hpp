// Distance-2 graph coloring (paper §I: "a variant of coloring called
// distance-2 coloring has many applications including ... compression of
// Jacobian and Hessian matrices").
//
// A distance-2 coloring assigns distinct colors to every pair of vertices
// within two hops. Provided as the paper's declared extension: a sequential
// first-fit baseline plus the same speculate-and-repair parallel scheme as
// distance-1 coloring, running on any rt::exec backend.
#pragma once

#include <span>
#include <vector>

#include "micg/color/greedy.hpp"
#include "micg/color/iterative.hpp"
#include "micg/graph/csr.hpp"

namespace micg::color {

/// Sequential first-fit distance-2 coloring in natural order. Uses at most
/// Delta^2 + 1 colors.
template <micg::graph::CsrGraph G>
coloring greedy_color_distance2(const G& g);

/// Iterative parallel distance-2 coloring (speculate + detect + repair).
template <micg::graph::CsrGraph G>
iterative_result iterative_color_distance2(const G& g,
                                           const iterative_options& opt);

/// True iff every vertex has a color >= 1 and no two distinct vertices
/// within distance 2 share a color. Runs on ex's workers; the default is
/// one thread.
template <micg::graph::CsrGraph G>
bool is_valid_distance2_coloring(const G& g, std::span<const int> color,
                                 const rt::exec& ex = {});

}  // namespace micg::color
