#include "micg/bfs/direction.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>

#include "micg/bfs/block_queue.hpp"
#include "micg/bfs/level_step.hpp"
#include "micg/obs/obs.hpp"
#include "micg/rt/edge_partition.hpp"
#include "micg/rt/exec.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/cacheline.hpp"

namespace micg::bfs {

namespace {

/// Bits per frontier/visited bitmap word.
constexpr std::int64_t kWordBits = 64;

inline bool test_bit(const std::uint64_t* words, std::int64_t i) {
  return (words[i / kWordBits] >> (i % kWordBits)) & 1u;
}

/// What one worker discovered in one step: the next frontier's vertices
/// and their out-edges, which drive the direction switch.
struct frontier_count {
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
};

}  // namespace

template <micg::graph::CsrGraph G>
direction_bfs_result direction_optimizing_bfs(const G& g,
                                              typename G::vertex_type source,
                                              const direction_options& opt) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  MICG_CHECK(source >= 0 && source < n, "source out of range");
  MICG_CHECK(opt.ex.threads >= 1, "need at least one thread");
  MICG_CHECK(opt.block >= 1, "block size must be positive");

  detail::level_array level(static_cast<std::size_t>(n));
  for (auto& l : level) l.store(-1, std::memory_order_relaxed);

  rt::exec ex = opt.ex;
  ex.kind = rt::backend::omp_dynamic;
  obs::recorder* rec = opt.ex.sink();

  // Top-down frontier: layered BFS's pair of block-accessed queues.
  const std::size_t cap =
      detail::level_queue_capacity(n, opt.ex.threads, opt.block);
  basic_block_queue<VId> cur(cap, opt.block, opt.ex.threads);
  basic_block_queue<VId> next(cap, opt.block, opt.ex.threads);
  level[static_cast<std::size_t>(source)].store(0,
                                                std::memory_order_relaxed);
  cur.push(0, source);
  cur.flush_all();

  // Each worker's discoveries in the current step, on a private line.
  const auto counts = std::make_unique<padded<frontier_count>[]>(
      static_cast<std::size_t>(opt.ex.threads));

  // Bottom-up state (allocated on the first bottom-up step): visited and
  // frontier bits packed 64 vertices per word, plus a word-granular CSR
  // prefix for edge-balanced partitioning of the word scan.
  const std::int64_t nwords =
      (static_cast<std::int64_t>(n) + kWordBits - 1) / kWordBits;
  std::vector<std::uint64_t> visited;
  std::vector<std::uint64_t> front;
  std::vector<std::uint64_t> found;
  std::vector<std::int64_t> wxadj;

  const double edge_threshold =
      static_cast<double>(g.num_directed_edges()) / opt.alpha;
  const double vertex_threshold = static_cast<double>(n) / opt.beta;

  std::int64_t frontier_size = 1;
  std::int64_t frontier_edges = static_cast<std::int64_t>(g.degree(source));
  int top_down_steps = 0;
  int bottom_up_steps = 0;
  std::size_t queue_slots = 0;

  int depth = 1;
  bool bottom_up = false;
  while (frontier_size > 0) {
    // Heuristic: frontier out-edges decide the direction of this step.
    // The frontier lives where the previous step left it: the queue after
    // a top-down step, the `front` bitmap after a bottom-up one.
    const bool was_bottom_up = bottom_up;
    if (!bottom_up &&
        static_cast<double>(frontier_edges) > edge_threshold) {
      bottom_up = true;
    } else if (bottom_up &&
               static_cast<double>(frontier_size) < vertex_threshold) {
      bottom_up = false;
    }

    obs::span level_span =
        rec != nullptr ? rec->start_span("bfs.level", depth - 1)
                       : obs::span();
    for (int t = 0; t < opt.ex.threads; ++t) {
      counts[static_cast<std::size_t>(t)].value = {};
    }
    if (bottom_up) {
      ++bottom_up_steps;
      level_span.value("bottom_up", 1.0);
      if (visited.empty()) {
        visited.assign(static_cast<std::size_t>(nwords), 0);
        front.assign(static_cast<std::size_t>(nwords), 0);
        found.assign(static_cast<std::size_t>(nwords), 0);
        wxadj.resize(static_cast<std::size_t>(nwords) + 1);
        const auto* xadj = g.xadj().data();
        for (std::int64_t w = 0; w <= nwords; ++w) {
          const std::int64_t v =
              std::min<std::int64_t>(w * kWordBits, n);
          wxadj[static_cast<std::size_t>(w)] =
              static_cast<std::int64_t>(xadj[v]);
        }
      }
      // Word-scan bottom-up step: every word is owned by exactly one
      // chunk, so visited/found updates need no atomics. Entering from a
      // top-down step, the bitmaps are stale (top-down claims do not
      // maintain them): each chunk rebuilds its own words' visited bits
      // from the level array, and parents are tested on the level array,
      // whose level depth-1 entries are final.
      const bool entering = !was_bottom_up;
      rt::for_range_edges(
          ex, nwords, wxadj.data(),
          [&](std::int64_t b, std::int64_t e, int worker) {
            frontier_count& c = counts[static_cast<std::size_t>(worker)].value;
            for (std::int64_t w = b; w < e; ++w) {
              const std::int64_t lo = w * kWordBits;
              const std::int64_t hi = std::min<std::int64_t>(lo + kWordBits, n);
              std::uint64_t vis = visited[static_cast<std::size_t>(w)];
              if (entering) {
                vis = 0;
                for (std::int64_t v = lo; v < hi; ++v) {
                  if (level[static_cast<std::size_t>(v)].load(
                          std::memory_order_relaxed) != -1) {
                    vis |= 1ull << (v - lo);
                  }
                }
              }
              std::uint64_t unvis = ~vis;
              if (hi - lo < kWordBits) {
                unvis &= (1ull << (hi - lo)) - 1;  // mask tail past |V|
              }
              std::uint64_t added = 0;
              while (unvis != 0) {
                const int bit = std::countr_zero(unvis);
                unvis &= unvis - 1;
                const auto v = static_cast<VId>(lo + bit);
                for (VId p : g.neighbors(v)) {
                  const bool parent =
                      entering
                          ? level[static_cast<std::size_t>(p)].load(
                                std::memory_order_relaxed) == depth - 1
                          : test_bit(front.data(),
                                     static_cast<std::int64_t>(p));
                  if (parent) {
                    level[static_cast<std::size_t>(v)].store(
                        depth, std::memory_order_relaxed);
                    added |= 1ull << bit;
                    ++c.vertices;
                    c.edges += static_cast<std::int64_t>(g.degree(v));
                    break;  // first parent suffices
                  }
                }
              }
              visited[static_cast<std::size_t>(w)] = vis | added;
              found[static_cast<std::size_t>(w)] = added;
            }
          });
      front.swap(found);
    } else {
      ++top_down_steps;
      if (was_bottom_up) {
        // Back from bottom-up: unpack the (now small) bitmap frontier
        // into the queue.
        cur.reset();
        for (std::int64_t w = 0; w < nwords; ++w) {
          std::uint64_t word = front[static_cast<std::size_t>(w)];
          while (word != 0) {
            const int bit = std::countr_zero(word);
            word &= word - 1;
            cur.push(0, static_cast<VId>(w * kWordBits + bit));
          }
        }
        cur.flush_all();
      }
      queue_slots += cur.size_with_sentinels();
      level_span.value("queue_slots",
                       static_cast<double>(cur.size_with_sentinels()));
      // Plain-store claims, as in OpenMP-Block-relaxed: two workers that
      // race on a vertex may both queue and count it, so the totals can
      // only overcount. See the recount below.
      detail::top_down_step(
          ex, g, level, cur, next, depth, /*relaxed=*/true,
          [&](int worker, VId w) {
            frontier_count& c =
                counts[static_cast<std::size_t>(worker)].value;
            ++c.vertices;
            c.edges += static_cast<std::int64_t>(g.degree(w));
          });
      cur.swap(next);
    }
    const auto total = [&] {
      frontier_size = 0;
      frontier_edges = 0;
      for (int t = 0; t < opt.ex.threads; ++t) {
        frontier_size += counts[static_cast<std::size_t>(t)].value.vertices;
        frontier_edges += counts[static_cast<std::size_t>(t)].value.edges;
      }
    };
    total();
    if (!bottom_up && opt.ex.threads > 1 &&
        static_cast<double>(frontier_edges) > edge_threshold) {
      // An overcount at or under the threshold decides as the exact total
      // would; one over it is recounted from the level array before the
      // search turns bottom-up, so every switch falls on the same step at
      // every thread count. One worker never races.
      for (int t = 0; t < opt.ex.threads; ++t) {
        counts[static_cast<std::size_t>(t)].value = {};
      }
      rt::for_range(ex, static_cast<std::int64_t>(n),
                    [&](std::int64_t b, std::int64_t e, int worker) {
                      frontier_count& c =
                          counts[static_cast<std::size_t>(worker)].value;
                      for (std::int64_t v = b; v < e; ++v) {
                        if (level[static_cast<std::size_t>(v)].load(
                                std::memory_order_relaxed) == depth) {
                          ++c.vertices;
                          c.edges += static_cast<std::int64_t>(
                              g.degree(static_cast<VId>(v)));
                        }
                      }
                    });
      total();
    }
    ++depth;
  }

  auto r = detail::finalize_levels<direction_bfs_result>(level);
  r.top_down_steps = top_down_steps;
  r.bottom_up_steps = bottom_up_steps;
  r.queue_slots = queue_slots;
  if (rec != nullptr) {
    rec->set_meta("kernel", "direction_optimizing_bfs");
    rec->set_meta("variant", direction_bfs_name);
    rec->get_counter("bfs.top_down_steps")
        .add(0, static_cast<std::uint64_t>(r.top_down_steps));
    rec->get_counter("bfs.bottom_up_steps")
        .add(0, static_cast<std::uint64_t>(r.bottom_up_steps));
    rec->get_counter("bfs.levels")
        .add(0, static_cast<std::uint64_t>(r.num_levels));
    rec->get_counter("bfs.reached")
        .add(0, static_cast<std::uint64_t>(r.reached));
    rec->get_counter("bfs.queue_slots").add(0, r.queue_slots);
  }
  return r;
}

#define MICG_INSTANTIATE(G)                                 \
  template direction_bfs_result direction_optimizing_bfs<G>( \
      const G&, typename G::vertex_type, const direction_options&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::bfs
