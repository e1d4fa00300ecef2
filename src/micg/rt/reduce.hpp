// Deterministic parallel floating-point reduction.
//
// combinable<> reductions group additions by whatever chunks the backend
// hands each worker, so the low bits of the result move with the chunk
// size, the partitioning mode and the scheduler — knobs a caller is free
// to change. deterministic_sum() fixes
// the grouping instead of the schedule: terms are summed sequentially
// within fixed-size index blocks and the block partials are combined in
// block order, so the result is bit-identical across threads, backends,
// chunk sizes and partitioning — scheduling can change *when* a block is
// summed, never what the total rounds to. One sweep can carry K sums:
// each accumulator has its own partials over the same blocks, so fusing
// sweeps moves no bit of any of them.
//
// Each block is one claimable item (the loop runs with chunk 1, whatever
// the caller's exec says), so the blocks spread over the workers at any
// chunk size. Under the caller's chunk, the chunked schedules would claim
// all blocks of an n < chunk × block sweep (262,144 terms at the default
// chunk of 64) as one item, on one worker. Cost: one O(K · n/block)
// partial array per call.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "micg/rt/exec.hpp"

namespace micg::rt {

/// Terms per deterministic block. Fixed (never derived from exec::chunk)
/// so the summation tree is a pure function of `n`.
inline constexpr std::int64_t deterministic_sum_block = 4096;

/// K sums of term(i)[k] for i in [0, n), each with a schedule-independent
/// grouping. `term(i)` returns a std::array<double, K>; it must be safe to
/// call concurrently for distinct i and is called exactly once per index
/// (side effects per index are fine — pagerank fills its contribution
/// array from the same sweep).
template <std::size_t K, typename Term>
std::array<double, K> deterministic_sum(const exec& e, std::int64_t n,
                                        const Term& term) {
  std::array<double, K> total{};
  if (n <= 0) return total;
  const std::int64_t nblocks =
      (n + deterministic_sum_block - 1) / deterministic_sum_block;
  std::vector<std::array<double, K>> partial(
      static_cast<std::size_t>(nblocks));
  exec pass = e;
  pass.chunk = 1;  // items are whole blocks already
  for_range(pass, nblocks, [&](std::int64_t bb, std::int64_t be, int) {
    for (std::int64_t blk = bb; blk < be; ++blk) {
      const std::int64_t lo = blk * deterministic_sum_block;
      const std::int64_t hi = std::min(n, lo + deterministic_sum_block);
      std::array<double, K> s{};
      for (std::int64_t i = lo; i < hi; ++i) {
        const std::array<double, K> t = term(i);
        for (std::size_t k = 0; k < K; ++k) s[k] += t[k];
      }
      partial[static_cast<std::size_t>(blk)] = s;
    }
  });
  for (const auto& p : partial) {
    for (std::size_t k = 0; k < K; ++k) total[k] += p[k];
  }
  return total;
}

}  // namespace micg::rt
