#include "micg/model/machine.hpp"

namespace micg::model {

machine_config machine_config::knf() {
  machine_config m;
  m.name = "KNF";
  m.cores = 31;  // 32 on chip, one reserved by the system (§V-A)
  m.smt = 4;
  m.cpu_per_op = 1.0;
  // KNF: simple in-order cores at ~1.2GHz against GDDR5 — long latency in
  // core cycles, good aggregate bandwidth.
  m.mem_latency = 40.0;
  m.mlp = 4;
  m.chip_mem_ops_per_unit = 6.0;
  m.chunk_claim = 30.0;
  m.contention_per_thread = 1.0;
  m.task_spawn = 90.0;
  m.steal_cost = 150.0;
  m.barrier_per_thread = 25.0;
  m.atomic_rmw = 12.0;
  m.thread_jitter = 0.35;
  return m;
}

machine_config machine_config::host_xeon() {
  machine_config m;
  m.name = "HostXeon";
  m.cores = 12;  // dual X5680
  m.smt = 2;     // HyperThreading
  // Out-of-order cores at 3.3GHz: relatively shorter exposed latency (the
  // OoO window hides part of it even for one thread) and fast atomics.
  m.cpu_per_op = 0.35;
  m.mem_latency = 9.0;
  m.mlp = 4;
  m.chip_mem_ops_per_unit = 3.0;
  m.chunk_claim = 8.0;
  m.contention_per_thread = 0.6;
  m.task_spawn = 25.0;
  m.steal_cost = 40.0;
  m.barrier_per_thread = 3.0;
  m.atomic_rmw = 4.0;
  m.thread_jitter = 0.15;
  return m;
}

machine_config machine_config::knc() {
  machine_config m = knf();
  m.name = "KNC";
  m.cores = 57;
  m.chip_mem_ops_per_unit *= 1.8;  // GDDR5 at production clocks
  return m;
}

}  // namespace micg::model
