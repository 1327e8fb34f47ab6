// Shared MG-CFD bench pipeline: problem construction per mesh label,
// partition/plan caching per rank count, kernel-cost calibration, and
// per-configuration predictions for the synthetic loop-chain.
#pragma once

#include <memory>

#include "bench_common.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"

namespace op2ca::bench {

class MgcfdBench {
public:
  MgcfdBench(const BenchConfig& cfg, const std::string& mesh_label)
      : cfg_(cfg),
        prob_(apps::mgcfd::build_problem(scaled_mesh(mesh_label, cfg.scale),
                                         /*num_levels=*/3)) {
    if (cfg.calibrate) {
      apps::mgcfd::Problem small = apps::mgcfd::build_problem(20000, 3);
      host_g_ = model::calibrate_loop_costs(
          std::move(small.mg.mesh), [&](core::Runtime& rt) {
            const auto h = apps::mgcfd::resolve_handles(rt, small);
            apps::mgcfd::run_synthetic_chain(rt, h, 2);
          });
    } else {
      host_g_ = default_costs(apps::mgcfd::record_synthetic_chain(prob_, 1));
    }
  }

  const apps::mgcfd::Problem& problem() const { return prob_; }

  /// Prediction for `nchains` chained pairs on `machine_nodes` cluster
  /// nodes of `mach`. Partitions/plans are cached per rank count.
  ChainPrediction predict(const model::Machine& mach, int machine_nodes,
                          int nchains) {
    const int nranks = scaled_ranks(mach, machine_nodes, cfg_.scale);
    const halo::HaloPlan& plan = plan_for_ranks(nranks);
    // The chain, and the synth_perturb loop outside it that re-dirties
    // spres every timestep.
    const core::Recording program =
        apps::mgcfd::record_synthetic_chain(prob_, nchains);
    const core::ChainSpec& spec = program.chains.at(0);
    const std::set<mesh::dat_id> stale =
        model::steady_state_stale(spec, program.loose_written());
    return predict_chain(mach, prob_.mg.mesh, plan, spec, stale, host_g_,
                         cfg_.tile);
  }

  int ranks_for(const model::Machine& mach, int machine_nodes) const {
    return scaled_ranks(mach, machine_nodes, cfg_.scale);
  }

private:
  const halo::HaloPlan& plan_for_ranks(int nranks) {
    // Keep only the most recent plan: plans carry local maps and the
    // sweep's node counts are visited in order, so an LRU-1 cache avoids
    // holding gigabytes of localized maps for every rank count at once.
    if (nranks != cached_ranks_) {
      // The paper uses ParMETIS k-way for the MG-CFD runs.
      partition::Partition part = partition::partition_mesh(
          prob_.mg.mesh, nranks, partition::Kind::KWay,
          prob_.mg.levels[0].nodes);
      plan_ = std::make_unique<halo::HaloPlan>(
          plan_for(prob_.mg.mesh, part, /*depth=*/2));
      cached_ranks_ = nranks;
    }
    return *plan_;
  }

  BenchConfig cfg_;
  apps::mgcfd::Problem prob_;
  std::map<std::string, double> host_g_;
  int cached_ranks_ = -1;
  std::unique_ptr<halo::HaloPlan> plan_;
};

}  // namespace op2ca::bench
