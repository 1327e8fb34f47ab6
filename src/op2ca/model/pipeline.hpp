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

#include "op2ca/comm/cost_model.hpp"

namespace op2ca::model {

/// PCIe-generation-3 x16 class transfer parameters.
struct PcieModel {
  double latency_s = 8.0e-6;       ///< per-transfer launch + DMA setup.
  double bandwidth_Bps = 12.0e9;   ///< sustained H2D/D2H.
  double transfer_time(std::int64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
};

/// One neighbour's halo exchange inside a chain/loop execution.
struct Transfer {
  std::int64_t bytes = 0;
};

struct PipelineConfig {
  PcieModel pcie{};
  sim::CostModel net{};
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
