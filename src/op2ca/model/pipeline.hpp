// Communication pipeline model for the GPU cluster path (Section 3.3).
//
// The paper's implementation stages halo data through the host and
// overlaps four streams: compute kernels, D2H copies, MPI transfers and
// H2D copies. It reports that this pipeline beats GPUDirect because
// GPUDirect transfers often failed to run concurrently with compute
// kernels. This module computes makespans for both policies over a batch
// of per-neighbour transfers, which the ablation bench compares.
#pragma once

#include <cstdint>
#include <vector>

#include "op2ca/model/machine.hpp"

namespace op2ca::model {

/// One neighbour's halo exchange inside a chain/loop execution.
struct Transfer {
  std::int64_t bytes = 0;
};

struct PipelineConfig {
  PcieModel pcie{};  ///< a machine's Machine::pcie.
  Wire net{};        ///< a machine's Machine::net.
  /// Compute time available to overlap with (core iterations).
  double compute_s = 0.0;
};

/// Staged pipeline: D2H, MPI and H2D of distinct transfers proceed
/// concurrently with compute and with each other (classic 3-stage
/// software pipeline). Returns total makespan.
double staged_pipeline_makespan(const PipelineConfig& cfg,
                                const std::vector<Transfer>& transfers);

/// GPUDirect-style: no staging copies, but transfers serialize with
/// compute (the observed behaviour the paper reports: RDMA transfers did
/// not run concurrently with kernels).
double gpudirect_makespan(const PipelineConfig& cfg,
                          const std::vector<Transfer>& transfers);

}  // namespace op2ca::model
