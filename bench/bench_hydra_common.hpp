// Shared Hydra bench pipeline: problem + recorded chain specs per mesh
// label, RIB partitions/plans cached per rank count (Hydra's default
// partitioner), kernel-cost calibration over one full iteration.
#pragma once

#include <memory>

#include "bench_common.hpp"
#include "op2ca/apps/hydra/hydra.hpp"

namespace op2ca::bench {

class HydraBench {
public:
  HydraBench(const BenchConfig& cfg, const std::string& mesh_label)
      : cfg_(cfg),
        prob_(apps::hydra::build_problem(
            scaled_mesh(mesh_label, cfg.scale))) {
    // The chains and the rk_update loop between them, as run_setup and
    // run_iteration issue them.
    const core::Recording program = apps::hydra::record_program(prob_);
    specs_ = program.chains_by_name();
    outer_written_ = program.loose_written();
    if (!cfg.calibrate) {
      host_g_ = default_costs(program);
    } else {
      apps::hydra::Problem small = apps::hydra::build_problem(20000);
      host_g_ = model::calibrate_loop_costs(
          std::move(small.an.mesh), [&](core::Runtime& rt) {
            const auto h = apps::hydra::resolve_handles(rt, small);
            apps::hydra::run_setup(rt, h);
            apps::hydra::run_iteration(rt, h);
          });
    }
  }

  const apps::hydra::Problem& problem() const { return prob_; }
  const std::map<std::string, core::ChainSpec>& specs() const {
    return specs_;
  }

  ChainPrediction predict(const model::Machine& mach, int machine_nodes,
                          const std::string& chain) {
    const int nranks = scaled_ranks(mach, machine_nodes, cfg_.scale);
    const halo::HaloPlan& plan = plan_for_ranks(nranks);
    const core::ChainSpec& spec = specs_.at(chain);
    const std::set<mesh::dat_id> stale =
        model::steady_state_stale(spec, outer_written_);
    return predict_chain(mach, prob_.an.mesh, plan, spec, stale, host_g_,
                         cfg_.tile);
  }

  int ranks_for(const model::Machine& mach, int machine_nodes) const {
    return scaled_ranks(mach, machine_nodes, cfg_.scale);
  }

private:
  const halo::HaloPlan& plan_for_ranks(int nranks) {
    // LRU-1: see bench_mgcfd_common.hpp. Callers should iterate node
    // counts in the inner-most loop order that maximizes reuse.
    if (nranks != cached_ranks_) {
      partition::Partition part = partition::partition_mesh(
          prob_.an.mesh, nranks, partition::Kind::RIB, prob_.an.nodes);
      plan_ = std::make_unique<halo::HaloPlan>(
          plan_for(prob_.an.mesh, part, /*depth=*/2));
      cached_ranks_ = nranks;
    }
    return *plan_;
  }

  BenchConfig cfg_;
  apps::hydra::Problem prob_;
  std::map<std::string, core::ChainSpec> specs_;
  /// Dats the loop outside the chains (rk_update) writes.
  std::set<mesh::dat_id> outer_written_;
  std::map<std::string, double> host_g_;
  int cached_ranks_ = -1;
  std::unique_ptr<halo::HaloPlan> plan_;
};

}  // namespace op2ca::bench
