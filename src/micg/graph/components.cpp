#include "micg/graph/components.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "micg/obs/obs.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/rng.hpp"

namespace micg::graph {

namespace {

/// Neighbors per vertex linked before the giant component is picked.
constexpr int kSampleRounds = 2;
/// Vertices whose root votes for the giant component.
constexpr int kGiantSamples = 1024;
constexpr std::uint64_t kGiantSeed = 0x9e3779b97f4a7c15ULL;

/// The union-find forest lives in the result's label array: label[v] is
/// v's parent, and a root is its own parent. Every write stores a value
/// below the slot's index, so parent[v] <= v always holds and each
/// root is the smallest id of its tree.
template <class VId>
class forest {
 public:
  explicit forest(std::vector<VId>& parent) : parent_(parent.data()) {}

  [[nodiscard]] VId get(VId v) const {
    return std::atomic_ref<VId>(parent_[static_cast<std::size_t>(v)])
        .load(std::memory_order_relaxed);
  }

  /// Join the trees of u and v: CAS the higher root onto the lower id.
  /// A failed CAS means another worker re-parented that root; climb and
  /// retry. Returns with u and v in one tree.
  void link(VId u, VId v) const {
    VId p1 = get(u);
    VId p2 = get(v);
    while (p1 != p2) {
      const VId high = std::max(p1, p2);
      const VId low = std::min(p1, p2);
      VId p_high = get(high);
      if (p_high == low) return;
      if (p_high == high &&
          std::atomic_ref<VId>(parent_[static_cast<std::size_t>(high)])
              .compare_exchange_strong(p_high, low,
                                       std::memory_order_relaxed)) {
        return;
      }
      p1 = get(get(high));
      p2 = get(low);
    }
  }

  /// Point v straight at its root and return the root. Run only while no
  /// worker links, so the roots stay fixed.
  VId compress(VId v) const {
    VId p = get(v);
    VId pp = get(p);
    while (p != pp) {
      std::atomic_ref<VId>(parent_[static_cast<std::size_t>(v)])
          .store(pp, std::memory_order_relaxed);
      p = pp;
      pp = get(p);
    }
    return p;
  }

 private:
  VId* parent_;
};

}  // namespace

template <CsrGraph G>
basic_components_result<typename G::vertex_type> parallel_components(
    const G& g, const rt::exec& ex) {
  using VId = typename G::vertex_type;
  MICG_CHECK(ex.threads >= 1, "need at least one thread");
  const VId n = g.num_vertices();
  basic_components_result<VId> r;
  r.label.resize(static_cast<std::size_t>(n));
  const forest<VId> f(r.label);

  // Every vertex starts as its own root.
  rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) {
      r.label[static_cast<std::size_t>(i)] = static_cast<VId>(i);
    }
  });
  const auto compress_all = [&] {
    rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
      for (std::int64_t i = b; i < e; ++i) {
        (void)f.compress(static_cast<VId>(i));
      }
    });
  };

  // Sampling: pass k links every vertex to its k-th neighbor. On
  // low-diameter graphs two passes already merge most of the giant
  // component.
  for (int k = 0; k < kSampleRounds; ++k) {
    rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
      for (std::int64_t i = b; i < e; ++i) {
        const auto v = static_cast<VId>(i);
        const auto nbrs = g.neighbors(v);
        if (nbrs.size() > static_cast<std::size_t>(k)) {
          f.link(v, nbrs[static_cast<std::size_t>(k)]);
        }
      }
    });
    compress_all();
  }

  // After a link pass and a compress, the trees are exactly the
  // components of the edges linked so far, so the vote below reads the
  // same roots at every thread count.
  VId giant = 0;
  if (n > 0) {
    xoshiro256ss rng(kGiantSeed);
    std::vector<VId> votes(kGiantSamples);
    for (auto& x : votes) {
      x = f.get(static_cast<VId>(rng.below(static_cast<std::uint64_t>(n))));
    }
    std::sort(votes.begin(), votes.end());
    std::size_t best = 0;
    for (std::size_t i = 0, j = 0; i < votes.size(); i = j) {
      while (j < votes.size() && votes[j] == votes[i]) ++j;
      if (j - i > best) {
        best = j - i;
        giant = votes[i];
      }
    }
  }

  // Final pass: the remaining edges of every vertex outside the giant
  // tree. An edge inside that tree needs no link, and an edge leaving it
  // is linked from its other end, unless that end has joined the tree by
  // then too. Sampled edges were linked by the passes above.
  rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) {
      const auto v = static_cast<VId>(i);
      if (f.get(v) == giant) continue;
      const auto nbrs = g.neighbors(v);
      for (std::size_t j = kSampleRounds; j < nbrs.size(); ++j) {
        f.link(v, nbrs[j]);
      }
    }
  });

  // Final compress: label[v] becomes v's root, the smallest id in its
  // component; a vertex that is its own root counts one component.
  std::atomic<std::int64_t> roots{0};
  rt::for_range(ex, n, [&](std::int64_t b, std::int64_t e, int) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) {
      const auto v = static_cast<VId>(i);
      if (f.compress(v) == v) ++local;
    }
    roots.fetch_add(local, std::memory_order_relaxed);
  });
  r.num_components = static_cast<VId>(roots.load(std::memory_order_relaxed));
  r.rounds = kSampleRounds + 1;

  if (obs::recorder* rec = ex.sink(); rec != nullptr) {
    rec->set_meta("kernel", "cc");
    rec->get_counter("cc.rounds")
        .add(0, static_cast<std::uint64_t>(r.rounds));
    rec->get_counter("cc.components")
        .add(0, static_cast<std::uint64_t>(r.num_components));
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
