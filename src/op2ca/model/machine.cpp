#include "op2ca/model/machine.hpp"

#include "op2ca/util/error.hpp"

namespace op2ca::model {

Machine archer2() {
  Machine m;
  m.name = "archer2";
  m.net.name = "slingshot";
  // Per-message halo-exchange latency: Slingshot MPI pingpong class,
  // plus a small per-message host overhead for MPI matching/progress
  // with 128 ranks per node sharing two NICs.
  m.net.latency_s = 2.0e-6;
  m.net.per_message_overhead_s = 4.0e-6;
  m.net.bandwidth_Bps = 12.5e9;    // 100 Gb/s per direction per NIC.
  m.net.pack_bandwidth_Bps = 35e9; // streaming chunk-memcpy class.
  // Slingshot is provisioned 2 x 100 Gb/s per node: two rails a large
  // message can spread over in the model.
  m.net.net_rails = 2;
  // Hierarchy: 2 sockets x 4 NUMA domains x 16 cores; messages that stay
  // inside a NUMA domain or node move at shared-memory latencies.
  m.net.ranks_per_numa = 16;
  m.net.ranks_per_node = 128;
  m.net.numa = {2.0e-7, 50e9, 1};
  m.net.node = {5.0e-7, 25e9, 1};
  m.ranks_per_node = 128;          // 2 x 64 cores, 1 MPI rank per core.
  // An EPYC 7742 core running the production build (AVX2-vectorized
  // flux kernels, -O3) retires these low-arithmetic-intensity kernels
  // ~3x faster than this host's scalar reference build, which is what
  // the calibration measures.
  m.compute_scale = 0.3;
  return m;
}

Machine cirrus_gpu() {
  Machine m;
  m.name = "cirrus";
  m.net.name = "fdr-ib";
  m.net.latency_s = 1.5e-6;        // FDR InfiniBand.
  m.net.bandwidth_Bps = 6.8e9;     // 54.5 Gb/s, single rail.
  m.net.pack_bandwidth_Bps = 25e9;
  // 4 GPUs share one HCA: no striping, but node-local peers exchange
  // over PCIe/NVLink rather than the fabric.
  m.net.ranks_per_node = 4;
  m.net.node = {8.0e-7, 15e9, 1};
  m.ranks_per_node = 4;            // 1 MPI rank per GPU.
  m.is_gpu = true;
  // Staged halo path: D2H copy + H2D copy + kernel-launch overheads per
  // exchange, folded into Lambda (paper Section 3.3).
  m.extra_latency_s = 3.0e-5;
  // One V100 rank does the work of ~60 EPYC cores on memory-bound CFD
  // kernels (900 GB/s HBM2 vs ~15 GB/s per-core share of DDR4), i.e.
  // 0.3/60 of the host-calibrated scalar cost.
  m.compute_scale = 0.3 / 60.0;
  return m;
}

Machine machine_by_name(const std::string& name) {
  if (name == "archer2") return archer2();
  if (name == "cirrus") return cirrus_gpu();
  raise("unknown machine: " + name + " (expected archer2|cirrus)");
}

}  // namespace op2ca::model
