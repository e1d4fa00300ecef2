// Machine descriptions for the performance model.
//
// The paper's numbers come from two machines we cannot buy anymore:
//  * the Knights Ferry prototype — 31 usable in-order cores, 4-way SMT
//    (124 hardware threads), GDDR5, bidirectional ring;
//  * the host — dual Xeon X5680 (12 cores, 2-way HyperThreading).
//
// machine_config captures the handful of parameters the paper's observed
// behaviour actually depends on: core/SMT counts, the latency-vs-overlap
// structure of the memory system (SMT latency hiding is the paper's
// central finding), and per-runtime scheduling overheads. Values are in
// abstract time units (1.0 == one simple ALU op); only ratios matter for
// speedup curves.
#pragma once

#include <string>

namespace micg::model {

struct machine_config {
  std::string name;

  // --- topology ----------------------------------------------------------
  int cores = 31;  ///< physical cores available to the application
  int smt = 4;     ///< hardware threads per core

  // --- execution ---------------------------------------------------------
  /// Time units per arithmetic op. Threads sharing a core serialize their
  /// arithmetic on the core's (in-order) pipeline.
  double cpu_per_op = 1.0;
  /// Time units a memory access that misses cache stalls the issuing
  /// thread. For an in-order core a solo thread cannot hide this.
  double mem_latency = 40.0;
  /// Outstanding misses a single core can overlap across its SMT threads
  /// (memory-level parallelism). min(active threads, mlp) misses proceed
  /// concurrently — this term is what makes "the multi-threaded
  /// architecture ... hide latencies" (abstract).
  int mlp = 4;
  /// Chip-wide memory throughput: memory ops retired per time unit when
  /// every core is streaming (bounds aggregate, not per-core, traffic).
  double chip_mem_ops_per_unit = 6.0;

  // --- runtime overheads (per scheduling event, in time units) -----------
  /// Claiming one chunk from a shared counter (dynamic / guided / simple
  /// partitioner). Grows with contention; see contention_per_thread.
  double chunk_claim = 30.0;
  /// Extra claim cost per participating thread (cache-line ping-pong on
  /// the shared cursor).
  double contention_per_thread = 1.0;
  /// Creating + retiring one work-stealing task (allocation, deque
  /// traffic). Charged per leaf task for cilk_ws and TBB partitioners.
  double task_spawn = 90.0;
  /// One successful steal (CAS + cold deque line + task migration).
  double steal_cost = 150.0;
  /// Barrier / parallel-region fork-join latency per participating thread
  /// (centralized barrier: linear in t).
  double barrier_per_thread = 8.0;
  /// One contended atomic RMW (fetch_add on a shared queue cursor).
  double atomic_rmw = 12.0;
  /// Per-thread execution-speed noise (SMT scheduling jitter, TLB/cache
  /// interference). Statically partitioned schedules eat it as makespan;
  /// dynamic claiming absorbs it — the reason "the less expensive dynamic
  /// scheduling policies performs better" at scale (§V-B).
  double thread_jitter = 0.15;

  /// The Knights Ferry prototype the paper measures (§V-A).
  static machine_config knf();
  /// The dual-Xeon host (§V-A), for Figure 4(d).
  static machine_config host_xeon();
  /// A Knights-Corner-like projection (the paper's §VI: "the final
  /// commercial design ... will feature more than 50 cores"): 57 cores,
  /// same SMT, faster GDDR5.
  static machine_config knc();
};

}  // namespace micg::model
