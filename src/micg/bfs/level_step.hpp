// The top-down level step of Algorithm 7 (§IV-C), shared by layered BFS's
// block-queue variants and the top-down steps of direction-optimizing
// BFS: every valid entry of the current block-accessed queue claims its
// unvisited neighbors for the next level and pushes them onto the next
// queue. Internal to micg_bfs (included by its .cpp files only).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "micg/bfs/block_queue.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/graph/csr.hpp"
#include "micg/rt/exec.hpp"

namespace micg::bfs::detail {

using level_array = std::vector<std::atomic<int>>;

/// Try to claim w for `next_level`. Locked: check, then CAS — exactly
/// once. Relaxed: Leiserson–Schardl benign race — check then plain store.
template <class VId>
inline bool claim_vertex(level_array& level, VId w, int next_level,
                         bool relaxed) {
  auto& slot = level[static_cast<std::size_t>(w)];
  if (relaxed) {
    if (slot.load(std::memory_order_relaxed) == -1) {
      slot.store(next_level, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  // Testing before locking (§IV-C) makes a visited vertex cost a load
  // instead of a CAS on a line other workers are reading.
  int expected = -1;
  return slot.load(std::memory_order_relaxed) == -1 &&
         slot.compare_exchange_strong(expected, next_level,
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed);
}

/// Slots a level queue needs: every vertex once, plus sentinel padding
/// (one partial block per worker per level is repacked on reset, so
/// `threads * block` suffices), plus generous headroom for relaxed
/// duplicates. The queue checks the bound; overflow would require a
/// duplicate storm the benign race cannot produce in practice.
inline std::size_t level_queue_capacity(std::int64_t n, int threads,
                                        int block) {
  return 2 * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(threads) * static_cast<std::size_t>(block) +
         64;
}

/// Expand one level: reset `next`, claim every unvisited neighbor of every
/// valid (non-sentinel) entry of `cur` for `depth` and push it onto
/// `next`, then pad `next`'s open blocks. `on_claim(worker, w)` runs on
/// the claiming worker once per successful claim.
template <micg::graph::CsrGraph G, class OnClaim>
void top_down_step(const rt::exec& ex, const G& g, level_array& level,
                   const basic_block_queue<typename G::vertex_type>& cur,
                   basic_block_queue<typename G::vertex_type>& next,
                   int depth, bool relaxed, const OnClaim& on_claim) {
  using VId = typename G::vertex_type;
  next.reset();
  const auto entries = cur.raw();
  rt::for_range(
      ex, static_cast<std::int64_t>(entries.size()),
      [&](std::int64_t b, std::int64_t e, int worker) {
        for (std::int64_t i = b; i < e; ++i) {
          const VId v = entries[static_cast<std::size_t>(i)];
          if (v == micg::graph::invalid_vertex_v<VId>) continue;  // sentinel
          for (VId w : g.neighbors(v)) {
            if (claim_vertex(level, w, depth, relaxed)) {
              next.push(worker, w);
              on_claim(worker, w);
            }
          }
        }
      });
  next.flush_all();
}

/// Derive levels, frontier sizes and counts from the level array. Uniform
/// across kernels; also the place where relaxed duplicates vanish (levels
/// are unique even if queue entries were not).
template <class Result>
Result finalize_levels(const level_array& level) {
  Result r;
  r.level.resize(level.size());
  int max_level = -1;
  for (std::size_t v = 0; v < level.size(); ++v) {
    r.level[v] = level[v].load(std::memory_order_relaxed);
    if (r.level[v] > max_level) max_level = r.level[v];
  }
  r.num_levels = max_level + 1;
  r.frontier_sizes.assign(static_cast<std::size_t>(r.num_levels), 0);
  for (int lv : r.level) {
    if (lv >= 0) {
      ++r.frontier_sizes[static_cast<std::size_t>(lv)];
      ++r.reached;
    }
  }
  return r;
}

}  // namespace micg::bfs::detail
