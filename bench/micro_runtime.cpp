// Microbenchmarks (google-benchmark) for the runtime substrates: loop
// scheduling policies, recursive cilk_for grains, TBB-style partitioners,
// barrier, and fork-join region overhead — the per-event costs the
// machine model charges (machine_config's chunk_claim / task_spawn /
// barrier_per_thread).
#include <benchmark/benchmark.h>

#include <atomic>

#include "micg/obs/obs.hpp"
#include "micg/rt/barrier.hpp"
#include "micg/rt/cilk_for.hpp"
#include "micg/rt/exec.hpp"
#include "micg/rt/loop.hpp"
#include "micg/rt/partitioner.hpp"
#include "micg/rt/scheduler.hpp"
#include "micg/rt/thread_pool.hpp"

namespace {

constexpr std::int64_t kN = 1 << 16;

void run_backend(benchmark::State& state, micg::rt::backend kind) {
  micg::rt::exec e;
  e.kind = kind;
  e.threads = static_cast<int>(state.range(0));
  e.chunk = state.range(1);
  std::atomic<std::int64_t> sum{0};
  for (auto _ : state) {
    std::int64_t local = 0;
    micg::rt::for_range(e, kN,
                        [&](std::int64_t b, std::int64_t en, int) {
                          std::int64_t s = 0;
                          for (std::int64_t i = b; i < en; ++i) s += i;
                          sum.fetch_add(s, std::memory_order_relaxed);
                          benchmark::DoNotOptimize(local);
                        });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kN);
}

void bm_omp_static(benchmark::State& state) {
  run_backend(state, micg::rt::backend::omp_static);
}
void bm_omp_dynamic(benchmark::State& state) {
  run_backend(state, micg::rt::backend::omp_dynamic);
}
void bm_omp_guided(benchmark::State& state) {
  run_backend(state, micg::rt::backend::omp_guided);
}
void bm_cilk_for(benchmark::State& state) {
  run_backend(state, micg::rt::backend::cilk_holder);
}
void bm_tbb_simple(benchmark::State& state) {
  run_backend(state, micg::rt::backend::tbb_simple);
}
void bm_tbb_auto(benchmark::State& state) {
  run_backend(state, micg::rt::backend::tbb_auto);
}
void bm_tbb_affinity(benchmark::State& state) {
  run_backend(state, micg::rt::backend::tbb_affinity);
}

#define MICG_LOOP_ARGS ->Args({1, 256})->Args({4, 256})->Args({4, 64})
BENCHMARK(bm_omp_static) MICG_LOOP_ARGS;
BENCHMARK(bm_omp_dynamic) MICG_LOOP_ARGS;
BENCHMARK(bm_omp_guided) MICG_LOOP_ARGS;
BENCHMARK(bm_cilk_for) MICG_LOOP_ARGS;
BENCHMARK(bm_tbb_simple) MICG_LOOP_ARGS;
BENCHMARK(bm_tbb_auto) MICG_LOOP_ARGS;
BENCHMARK(bm_tbb_affinity) MICG_LOOP_ARGS;
#undef MICG_LOOP_ARGS

void bm_region_forkjoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto& pool = micg::rt::thread_pool::global();
  pool.reserve(threads);
  for (auto _ : state) {
    pool.run(threads, [](int) {});
  }
}
BENCHMARK(bm_region_forkjoin)->Arg(1)->Arg(4)->Arg(8);

// Same fork-join region with a global obs recorder installed: the caller
// resolves four handles and every worker publishes its busy time. On a
// 4-vCPU Xeon (GCC 12, -O2) /4 measured a median 2.9 us against 1.6 us
// for bm_region_forkjoin/4, about 1.8x: about a microsecond per region,
// which matters only for regions that do almost no work.
void bm_region_forkjoin_observed(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto& pool = micg::rt::thread_pool::global();
  pool.reserve(threads);
  micg::obs::recorder rec;
  micg::obs::scoped_global guard(rec);
  for (auto _ : state) {
    pool.run(threads, [](int) {});
  }
}
BENCHMARK(bm_region_forkjoin_observed)->Arg(1)->Arg(4)->Arg(8);

// Hot-loop counter discipline: per-chunk add to a cacheline-padded slot.
void bm_obs_counter_add(benchmark::State& state) {
  micg::obs::recorder rec;
  micg::obs::counter& c = rec.get_counter("bench.items");
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) c.add(i & 7, 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(bm_obs_counter_add);

void bm_barrier_round(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto& pool = micg::rt::thread_pool::global();
  pool.reserve(threads);
  for (auto _ : state) {
    micg::rt::sense_barrier barrier(threads);
    pool.run(threads, [&](int) {
      for (int i = 0; i < 16; ++i) barrier.arrive_and_wait();
    });
  }
}
BENCHMARK(bm_barrier_round)->Arg(2)->Arg(4);

void bm_task_spawn(benchmark::State& state) {
  auto& pool = micg::rt::thread_pool::global();
  micg::rt::task_scheduler sched(pool, static_cast<int>(state.range(0)));
  std::atomic<int> count{0};
  for (auto _ : state) {
    sched.run([&] {
      micg::rt::task_group g(sched);
      for (int i = 0; i < 256; ++i) {
        g.spawn([&] { count.fetch_add(1, std::memory_order_relaxed); });
      }
      g.wait();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256);
}
BENCHMARK(bm_task_spawn)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
