#include "micg/bfs/direction.hpp"

#include <atomic>
#include <bit>
#include <cstdint>

#include "micg/obs/obs.hpp"
#include "micg/rt/exec.hpp"
#include "micg/support/assert.hpp"

namespace micg::bfs {

namespace {

/// Bits per frontier/visited bitmap word.
constexpr std::int64_t kWordBits = 64;

inline bool test_bit(const std::uint64_t* words, std::int64_t i) {
  return (words[i / kWordBits] >> (i % kWordBits)) & 1u;
}

}  // namespace

template <micg::graph::CsrGraph G>
direction_bfs_result direction_optimizing_bfs(const G& g,
                                              typename G::vertex_type source,
                                              const direction_options& opt) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  MICG_CHECK(source >= 0 && source < n, "source out of range");
  MICG_CHECK(opt.ex.threads >= 1, "need at least one thread");

  std::vector<std::atomic<int>> level(static_cast<std::size_t>(n));
  for (auto& l : level) l.store(-1, std::memory_order_relaxed);

  rt::exec ex = opt.ex;
  ex.kind = rt::backend::omp_dynamic;

  std::vector<VId> frontier{source};
  level[static_cast<std::size_t>(source)].store(0,
                                                std::memory_order_relaxed);

  direction_bfs_result r;
  const double edge_threshold =
      static_cast<double>(g.num_directed_edges()) / opt.alpha;
  const double vertex_threshold = static_cast<double>(n) / opt.beta;

  // Bitmap state (allocated lazily on the first bottom-up step): visited
  // and frontier bits packed 64 vertices per word, plus a word-granular
  // CSR prefix for edge-balanced partitioning of the word scan.
  const std::int64_t nwords =
      (static_cast<std::int64_t>(n) + kWordBits - 1) / kWordBits;
  std::vector<std::uint64_t> visited;
  std::vector<std::uint64_t> cur;
  std::vector<std::uint64_t> nxt;
  std::vector<std::int64_t> wxadj;
  bool bitmaps_fresh = false;   // visited/cur mirror the level array
  bool frontier_in_vector = true;

  std::int64_t frontier_size = 1;
  std::int64_t frontier_edges = static_cast<std::int64_t>(g.degree(source));

  int depth = 1;
  bool bottom_up = false;
  while (frontier_size > 0) {
    // Heuristic: frontier out-edges decide the direction of this step.
    if (!bottom_up &&
        static_cast<double>(frontier_edges) > edge_threshold) {
      bottom_up = true;
    } else if (bottom_up &&
               static_cast<double>(frontier_size) < vertex_threshold) {
      bottom_up = false;
    }

    if (bottom_up && opt.bitmap) {
      ++r.bottom_up_steps;
      if (visited.empty()) {
        visited.assign(static_cast<std::size_t>(nwords), 0);
        cur.assign(static_cast<std::size_t>(nwords), 0);
        nxt.assign(static_cast<std::size_t>(nwords), 0);
        wxadj.resize(static_cast<std::size_t>(nwords) + 1);
        const auto* xadj = g.xadj().data();
        for (std::int64_t w = 0; w <= nwords; ++w) {
          const std::int64_t v =
              std::min<std::int64_t>(w * kWordBits, n);
          wxadj[static_cast<std::size_t>(w)] =
              static_cast<std::int64_t>(xadj[v]);
        }
      }
      if (!bitmaps_fresh) {
        // Entering bottom-up from a top-down run: rebuild both bitmaps
        // from the level array (cheaper than maintaining them through
        // every top-down CAS; transitions are rare).
        rt::for_range(ex, nwords, [&](std::int64_t b, std::int64_t e, int) {
          for (std::int64_t w = b; w < e; ++w) {
            std::uint64_t vis = 0;
            std::uint64_t front = 0;
            const std::int64_t lo = w * kWordBits;
            const std::int64_t hi =
                std::min<std::int64_t>(lo + kWordBits, n);
            for (std::int64_t v = lo; v < hi; ++v) {
              const int lv = level[static_cast<std::size_t>(v)].load(
                  std::memory_order_relaxed);
              if (lv != -1) vis |= 1ull << (v - lo);
              if (lv == depth - 1) front |= 1ull << (v - lo);
            }
            visited[static_cast<std::size_t>(w)] = vis;
            cur[static_cast<std::size_t>(w)] = front;
          }
        });
        bitmaps_fresh = true;
      }

      // Word-scan bottom-up step: every word is owned by exactly one
      // chunk, so visited/nxt updates need no atomics; only the step
      // totals are reduced.
      std::atomic<std::int64_t> found{0};
      std::atomic<std::int64_t> found_edges{0};
      rt::for_range_graph(
          ex, nwords, wxadj.data(), opt.partition,
          [&](std::int64_t b, std::int64_t e, int) {
            std::int64_t local_found = 0;
            std::int64_t local_edges = 0;
            for (std::int64_t w = b; w < e; ++w) {
              std::uint64_t unvis = ~visited[static_cast<std::size_t>(w)];
              const std::int64_t lo = w * kWordBits;
              if (n - lo < kWordBits) {
                unvis &= (1ull << (n - lo)) - 1;  // mask tail past |V|
              }
              std::uint64_t added = 0;
              while (unvis != 0) {
                const int bit = std::countr_zero(unvis);
                unvis &= unvis - 1;
                const auto v = static_cast<VId>(lo + bit);
                for (VId p : g.neighbors(v)) {
                  if (test_bit(cur.data(), static_cast<std::int64_t>(p))) {
                    level[static_cast<std::size_t>(v)].store(
                        depth, std::memory_order_relaxed);
                    added |= 1ull << bit;
                    ++local_found;
                    local_edges += static_cast<std::int64_t>(g.degree(v));
                    break;  // first parent suffices
                  }
                }
              }
              visited[static_cast<std::size_t>(w)] |= added;
              nxt[static_cast<std::size_t>(w)] = added;
            }
            found.fetch_add(local_found, std::memory_order_relaxed);
            found_edges.fetch_add(local_edges, std::memory_order_relaxed);
          });
      cur.swap(nxt);
      frontier_size = found.load(std::memory_order_relaxed);
      frontier_edges = found_edges.load(std::memory_order_relaxed);
      frontier_in_vector = false;
    } else {
      if (bottom_up) {
        // Legacy per-vertex visited scan (opt.bitmap == false).
        ++r.bottom_up_steps;
      } else {
        ++r.top_down_steps;
      }
      if (!frontier_in_vector) {
        // Back from bitmap bottom-up: unpack the (now small) frontier.
        frontier.clear();
        for (std::int64_t w = 0; w < nwords; ++w) {
          std::uint64_t word = cur[static_cast<std::size_t>(w)];
          while (word != 0) {
            const int bit = std::countr_zero(word);
            word &= word - 1;
            frontier.push_back(static_cast<VId>(w * kWordBits + bit));
          }
        }
        frontier_in_vector = true;
      }

      std::vector<VId> next(static_cast<std::size_t>(n));
      std::atomic<std::size_t> cursor{0};
      if (bottom_up) {
        // Every unvisited vertex looks backwards for a parent one level up.
        rt::for_range(
            ex, n, [&](std::int64_t b, std::int64_t e, int) {
              for (std::int64_t i = b; i < e; ++i) {
                const auto v = static_cast<VId>(i);
                if (level[static_cast<std::size_t>(v)].load(
                        std::memory_order_relaxed) != -1) {
                  continue;
                }
                for (VId w : g.neighbors(v)) {
                  if (level[static_cast<std::size_t>(w)].load(
                          std::memory_order_relaxed) == depth - 1) {
                    level[static_cast<std::size_t>(v)].store(
                        depth, std::memory_order_relaxed);
                    next[cursor.fetch_add(1, std::memory_order_relaxed)] = v;
                    break;  // first parent suffices
                  }
                }
              }
            });
      } else {
        rt::for_range(
            ex, static_cast<std::int64_t>(frontier.size()),
            [&](std::int64_t b, std::int64_t e, int) {
              for (std::int64_t i = b; i < e; ++i) {
                const VId v = frontier[static_cast<std::size_t>(i)];
                for (VId w : g.neighbors(v)) {
                  auto& slot = level[static_cast<std::size_t>(w)];
                  int expected = -1;
                  if (slot.load(std::memory_order_relaxed) == -1 &&
                      slot.compare_exchange_strong(
                          expected, depth, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
                    next[cursor.fetch_add(1, std::memory_order_relaxed)] = w;
                  }
                }
              }
            });
      }
      next.resize(cursor.load(std::memory_order_relaxed));
      frontier.swap(next);
      frontier_size = static_cast<std::int64_t>(frontier.size());
      frontier_edges = 0;
      for (VId v : frontier) {
        frontier_edges += static_cast<std::int64_t>(g.degree(v));
      }
      bitmaps_fresh = false;
    }
    ++depth;
  }

  r.level.resize(static_cast<std::size_t>(n));
  int max_level = -1;
  for (VId v = 0; v < n; ++v) {
    r.level[static_cast<std::size_t>(v)] =
        level[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
    if (r.level[static_cast<std::size_t>(v)] > max_level) {
      max_level = r.level[static_cast<std::size_t>(v)];
    }
  }
  r.num_levels = max_level + 1;
  r.frontier_sizes.assign(static_cast<std::size_t>(r.num_levels), 0);
  for (int lv : r.level) {
    if (lv >= 0) {
      ++r.frontier_sizes[static_cast<std::size_t>(lv)];
      ++r.reached;
    }
  }
  if (obs::recorder* rec = opt.ex.sink(); rec != nullptr) {
    rec->set_meta("kernel", "direction_optimizing_bfs");
    rec->set_meta("bfs.frontier_mode", opt.bitmap ? "bitmap" : "queue");
    rec->set_meta("partition", rt::partition_mode_name(opt.partition));
    rec->get_counter("bfs.top_down_steps")
        .add(0, static_cast<std::uint64_t>(r.top_down_steps));
    rec->get_counter("bfs.bottom_up_steps")
        .add(0, static_cast<std::uint64_t>(r.bottom_up_steps));
    rec->get_counter("bfs.levels")
        .add(0, static_cast<std::uint64_t>(r.num_levels));
    rec->get_counter("bfs.reached")
        .add(0, static_cast<std::uint64_t>(r.reached));
  }
  return r;
}

#define MICG_INSTANTIATE(G)                                 \
  template direction_bfs_result direction_optimizing_bfs<G>( \
      const G&, typename G::vertex_type, const direction_options&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::bfs
