#include "op2ca/model/pipeline.hpp"

#include <algorithm>

namespace op2ca::model {

double staged_pipeline_makespan(const PipelineConfig& cfg,
                                const std::vector<Transfer>& transfers) {
  // Three-stage pipeline (D2H -> MPI -> H2D), one transfer per
  // neighbour. Stage i of transfer t starts when both stage i-1 of t and
  // stage i of t-1 have finished; compute runs on its own stream, so the
  // makespan is max(compute, pipeline drain).
  double d2h_free = 0.0, net_free = 0.0, h2d_free = 0.0;
  for (const Transfer& t : transfers) {
    const double d2h = cfg.pcie.transfer_time(t.bytes);
    const double net = cfg.net.message_time(t.bytes);
    const double h2d = cfg.pcie.transfer_time(t.bytes);
    d2h_free = d2h_free + d2h;
    net_free = std::max(net_free, d2h_free) + net;
    h2d_free = std::max(h2d_free, net_free) + h2d;
  }
  return std::max(cfg.compute_s, h2d_free);
}

double gpudirect_makespan(const PipelineConfig& cfg,
                          const std::vector<Transfer>& transfers) {
  // Direct GPU-GPU transfers skip the PCIe staging, but do not overlap
  // with compute: total = compute + serialized transfers.
  double net_total = 0.0;
  for (const Transfer& t : transfers)
    net_total += cfg.net.message_time(t.bytes);
  return cfg.compute_s + net_total;
}

}  // namespace op2ca::model
