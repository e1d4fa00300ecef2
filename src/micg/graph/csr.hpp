// Compressed sparse row graph — the one graph representation every kernel
// in micgraph operates on. Undirected: each edge {u,v} is stored in both
// adjacency lists, exactly like the symmetric sparse matrices the paper's
// test graphs come from.
//
// The structure is parameterized on the width of its two index types
// (basic_csr<VId, EId>): every kernel is bandwidth-bound on the xadj/adj
// arrays, so halving an index width halves that array's memory traffic
// (Per.16: use compact data structures). Three layouts are shipped:
//
//   csr32      basic_csr<int32, int32>   narrowest; 2|E| must fit in 31 bits
//   csr_graph  basic_csr<int32, int64>   the historical default layout
//   csr64      basic_csr<int64, int64>   opens |V| > 2^31 (Graph500 scale)
//
// Kernels are templated over the CsrGraph concept below and explicitly
// instantiated for these three layouts (see MICG_FOR_EACH_CSR_LAYOUT);
// runtime layout selection lives in any_csr.hpp.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "micg/support/assert.hpp"

namespace micg::graph {

/// Default-layout vertex id. 32-bit: the paper's largest graph has 952K
/// vertices and the adjacency array dominates memory, so half-width ids
/// double what fits in cache.
using vertex_t = std::int32_t;

/// Default-layout edge index into the adjacency array; 64-bit because
/// 2*|E| can exceed 2^31 at full scale with room to spare.
using edge_t = std::int64_t;

/// Sentinel for "not a vertex", per index width: used by the block-accessed
/// BFS queue (§IV-C) and by parent arrays for "not yet visited".
template <class VId>
inline constexpr VId invalid_vertex_v = static_cast<VId>(-1);

/// Default-layout sentinel (backwards-compatible name).
inline constexpr vertex_t invalid_vertex = invalid_vertex_v<vertex_t>;

template <std::signed_integral VId, std::signed_integral EId>
class basic_csr {
 public:
  using vertex_type = VId;
  using edge_type = EId;

  basic_csr() = default;

  /// Takes ownership of a prebuilt CSR structure. `xadj` has size n+1 with
  /// xadj[0] == 0; `adj` has size xadj[n]. Adjacency lists must be sorted,
  /// duplicate-free, self-loop-free, and symmetric (validated).
  basic_csr(std::vector<EId> xadj, std::vector<VId> adj)
      : xadj_(std::move(xadj)), adj_(std::move(adj)) {
    MICG_CHECK(!xadj_.empty() && xadj_.front() == 0,
               "xadj must start with 0");
    MICG_CHECK(xadj_.size() - 1 <=
                   static_cast<std::size_t>(std::numeric_limits<VId>::max()),
               "vertex count overflows this layout's vertex id width");
    MICG_CHECK(adj_.size() <=
                   static_cast<std::size_t>(std::numeric_limits<EId>::max()),
               "adjacency size overflows this layout's edge index width");
    MICG_CHECK(xadj_.back() == static_cast<EId>(adj_.size()),
               "xadj must end at the adjacency size");
    const VId n = num_vertices();
    for (VId v = 0; v < n; ++v) {
      // Checked before degree(v) subtracts: a corrupt offset would
      // otherwise overflow the signed edge index.
      MICG_CHECK(xadj_[static_cast<std::size_t>(v)] <=
                     xadj_[static_cast<std::size_t>(v) + 1],
                 "xadj must be non-decreasing");
      max_degree_ = degree(v) > max_degree_ ? degree(v) : max_degree_;
    }
    // Full invariant validation is O(|E| log Delta); callers that construct
    // from untrusted data (e.g. MatrixMarket files) call validate() itself.
  }

  /// Number of vertices |V|.
  [[nodiscard]] VId num_vertices() const {
    return xadj_.empty() ? 0 : static_cast<VId>(xadj_.size() - 1);
  }

  /// Number of undirected edges |E| (each stored twice internally).
  [[nodiscard]] EId num_edges() const {
    return static_cast<EId>(adj_.size()) / 2;
  }

  /// Size of the adjacency array (2|E|).
  [[nodiscard]] EId num_directed_edges() const {
    return static_cast<EId>(adj_.size());
  }

  /// Degree of v (named delta_v in the paper). Returned at the layout's
  /// edge-index width — no 64-bit arithmetic on the narrow layouts.
  [[nodiscard]] EId degree(VId v) const {
    return xadj_[static_cast<std::size_t>(v) + 1] -
           xadj_[static_cast<std::size_t>(v)];
  }

  /// Sorted neighbor list of v (adj(v) in the paper).
  [[nodiscard]] std::span<const VId> neighbors(VId v) const {
    const auto b = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v)]);
    const auto e =
        static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v) + 1]);
    return {adj_.data() + b, e - b};
  }

  /// Maximum degree Delta; computed once at construction.
  [[nodiscard]] EId max_degree() const { return max_degree_; }

  [[nodiscard]] const std::vector<EId>& xadj() const { return xadj_; }
  [[nodiscard]] const std::vector<VId>& adj() const { return adj_; }

  /// Bytes held by the two index arrays (the footprint the layout choice
  /// controls).
  [[nodiscard]] std::size_t index_bytes() const {
    return xadj_.size() * sizeof(EId) + adj_.size() * sizeof(VId);
  }

  /// Re-checks all representation invariants; throws micg::check_error on
  /// violation. O(|E| log Delta).
  void validate() const {
    const VId n = num_vertices();
    MICG_CHECK(!xadj_.empty() && xadj_.front() == 0, "bad xadj prefix");
    MICG_CHECK(xadj_.back() == static_cast<EId>(adj_.size()),
               "bad xadj suffix");
    // The whole offset array must be proven monotone (hence in-bounds,
    // given the prefix/suffix checks) before any adj_ access: a corrupt
    // xadj like [0, 10, 5] over 5 adjacency slots would otherwise send
    // neighbors(0) reading past the array while the scan is still at v=0.
    for (VId v = 0; v < n; ++v) {
      MICG_CHECK(xadj_[static_cast<std::size_t>(v)] <=
                     xadj_[static_cast<std::size_t>(v) + 1],
                 "xadj must be non-decreasing");
    }
    for (VId v = 0; v < n; ++v) {
      auto nbrs = neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VId w = nbrs[i];
        MICG_CHECK(w >= 0 && w < n, "neighbor id out of range");
        MICG_CHECK(w != v, "self loop present");
        if (i > 0) {
          MICG_CHECK(nbrs[i - 1] < w, "adjacency not sorted/deduplicated");
        }
        // Symmetry: v must appear in w's (sorted) list.
        auto back = neighbors(w);
        MICG_CHECK(std::binary_search(back.begin(), back.end(), v),
                   "adjacency not symmetric");
      }
    }
  }

 private:
  std::vector<EId> xadj_;
  std::vector<VId> adj_;
  EId max_degree_ = 0;
};

/// Narrowest layout: both index arrays at 4 bytes/entry.
using csr32 = basic_csr<std::int32_t, std::int32_t>;

/// The default layout (and the seed's historical csr_graph): 32-bit vertex
/// ids, 64-bit edge offsets.
using csr_graph = basic_csr<vertex_t, edge_t>;

/// Widest layout: vertex ids beyond 2^31 (Graph500-scale inputs).
using csr64 = basic_csr<std::int64_t, std::int64_t>;

/// The concept every kernel in bfs/, color/, irregular/, graph/ and
/// model/ is written against: any CSR-shaped graph exposing its index
/// widths as member types.
template <class G>
concept CsrGraph = requires(const G& g, typename G::vertex_type v) {
  requires std::signed_integral<typename G::vertex_type>;
  requires std::signed_integral<typename G::edge_type>;
  { g.num_vertices() } -> std::same_as<typename G::vertex_type>;
  { g.num_edges() } -> std::same_as<typename G::edge_type>;
  { g.num_directed_edges() } -> std::same_as<typename G::edge_type>;
  { g.degree(v) } -> std::same_as<typename G::edge_type>;
  { g.max_degree() } -> std::same_as<typename G::edge_type>;
  {
    g.neighbors(v)
  } -> std::same_as<std::span<const typename G::vertex_type>>;
};

static_assert(CsrGraph<csr32> && CsrGraph<csr_graph> && CsrGraph<csr64>);

/// Convert a graph to another layout. Hard-errors (micg::check_error) when
/// the target widths cannot represent the graph — never truncates.
template <CsrGraph To, CsrGraph From>
To convert_csr(const From& g) {
  if constexpr (std::same_as<To, From>) {
    return g;
  } else {
    using VId = typename To::vertex_type;
    using EId = typename To::edge_type;
    MICG_CHECK(static_cast<std::int64_t>(g.num_vertices()) <=
                   static_cast<std::int64_t>(std::numeric_limits<VId>::max()),
               "vertex count does not fit the target layout");
    MICG_CHECK(static_cast<std::int64_t>(g.num_directed_edges()) <=
                   static_cast<std::int64_t>(std::numeric_limits<EId>::max()),
               "directed edge count does not fit the target layout");
    std::vector<EId> xadj(g.xadj().size());
    for (std::size_t i = 0; i < xadj.size(); ++i) {
      xadj[i] = static_cast<EId>(g.xadj()[i]);
    }
    std::vector<VId> adj(g.adj().size());
    for (std::size_t i = 0; i < adj.size(); ++i) {
      adj[i] = static_cast<VId>(g.adj()[i]);
    }
    return To(std::move(xadj), std::move(adj));
  }
}

}  // namespace micg::graph

/// X-macro over the shipped layouts: every kernel translation unit
/// explicitly instantiates its templates for exactly these graph types
/// (one instantiation unit per kernel keeps compile times sane while the
/// headers stay declaration-only).
#define MICG_FOR_EACH_CSR_LAYOUT(X) \
  X(::micg::graph::csr32)           \
  X(::micg::graph::csr_graph)      \
  X(::micg::graph::csr64)
