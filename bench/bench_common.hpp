// Shared infrastructure for the table/figure benches.
//
// Scale handling: the paper's meshes are 8M and 24M nodes, run on up to
// 128 ARCHER2 nodes (16384 MPI ranks) and 16 Cirrus nodes (64 GPU
// ranks). By default both the mesh and the rank counts are scaled down
// by the same factor (16), which preserves each rank's partition size,
// surface-to-volume ratio and neighbour structure — the quantities the
// analytic model consumes. Pass --scale=1 for paper-size meshes (slow).
//
// Every bench prints paper-style tables through util/table and accepts
// exactly the options it reads; Options rejects the rest as unknown.
// Every driver reads --csv; the fig drivers read all of the options
// below (fig_option_names), Tables 2 and 5 --scale, --calibrate and
// --tile, and the depth and partitioner ablations --scale.
//   --scale=N      divide mesh nodes and rank counts by N (default 16; use 64 for a quick pass)
//   --csv          emit CSV instead of aligned text
//   --calibrate=0  skip kernel calibration (use default costs)
//   --rails=N      model large messages spread over N network rails
//                  (0 = keep the machine preset's rail count; overrides
//                  Machine::net.rails)
//   --calibration=F  replace the machine preset's wire latency,
//                  bandwidth and rails with a bench_calibrate
//                  BENCH_calibration.json (an explicit --rails still
//                  wins over the measured rail count)
//   --tile=N       temporal chain tiling: fuse N consecutive invocations
//                  of each chain into one CA epoch (the model prices CA
//                  with t_ca_chain_tiled). Default 1 = per-invocation.
#pragma once

#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "op2ca/core/chain.hpp"
#include "op2ca/core/recorder.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/model/calibrate.hpp"
#include "op2ca/model/components.hpp"
#include "op2ca/model/machine.hpp"
#include "op2ca/model/perf_model.hpp"
#include "op2ca/partition/partition.hpp"
#include "op2ca/util/options.hpp"
#include "op2ca/util/table.hpp"

namespace op2ca::bench {

struct BenchConfig {
  std::int64_t scale = 16;
  bool csv = false;
  bool calibrate = true;
  int rails = 0;  ///< 0 = machine preset's rail count.
  std::string calibration;  ///< BENCH_calibration.json path; empty = presets.
  int tile = 1;

  static BenchConfig from_options(const Options& opt) {
    BenchConfig cfg;
    cfg.scale = opt.get_int("scale", 16);
    cfg.csv = opt.get_bool("csv", false);
    cfg.calibrate = opt.get_bool("calibrate", true);
    cfg.rails = static_cast<int>(opt.get_int("rails", 0));
    cfg.calibration = opt.get_string("calibration", "");
    cfg.tile = static_cast<int>(opt.get_int("tile", 1));
    OP2CA_REQUIRE(cfg.tile >= 1, "--tile must be >= 1");
    OP2CA_REQUIRE(cfg.scale >= 1, "--scale must be >= 1");
    OP2CA_REQUIRE(cfg.rails >= 0 && cfg.rails <= model::kMaxRails,
                  "--rails must be in [0, 8]");
    return cfg;
  }

  /// Applies the wire options to a machine preset.
  model::Machine apply_to(model::Machine mach) const {
    // Measured wire parameters replace the preset's guesses first, so an
    // explicit --rails still wins over the calibrated rail count.
    if (!calibration.empty())
      model::apply_calibration(model::load_calibration(calibration), &mach);
    if (rails > 0) mach.net.rails = rails;
    return mach;
  }
};

/// The options the fig drivers read: every BenchConfig field. Drivers
/// that ignore some fields list only the ones they read.
inline std::set<std::string> fig_option_names() {
  return {"scale", "csv", "calibrate", "rails", "calibration", "tile"};
}

/// Paper mesh sizes by label.
inline gidx_t mesh_nodes(const std::string& label) {
  if (label == "8M") return 8'000'000;
  if (label == "24M") return 24'000'000;
  raise("unknown mesh label: " + label);
}

/// Simulated rank count for `machine_nodes` cluster nodes under `scale`.
inline int scaled_ranks(const model::Machine& mach, int machine_nodes,
                        std::int64_t scale) {
  const std::int64_t ranks =
      static_cast<std::int64_t>(machine_nodes) * mach.ranks_per_node /
      scale;
  return static_cast<int>(std::max<std::int64_t>(ranks, 2));
}

inline gidx_t scaled_mesh(const std::string& label, std::int64_t scale) {
  return std::max<gidx_t>(mesh_nodes(label) / scale, 2000);
}

/// Emits a table in the configured format.
inline void emit(const BenchConfig& cfg, const Table& table) {
  if (cfg.csv) {
    std::cout << "# " << table.title() << '\n';
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
}

/// Builds a halo plan for a partition of `mesh`. Local maps are needed
/// by the sparse-tiling slice the component extractor runs.
inline halo::HaloPlan plan_for(const mesh::MeshDef& mesh,
                               const partition::Partition& part,
                               int depth) {
  halo::HaloPlanOptions opts;
  opts.depth = depth;
  opts.build_local_maps = true;
  return halo::build_halo_plan(mesh, part, opts);
}

/// The default per-iteration cost of every loop a recording holds, in
/// and out of chains: the kernel costs --calibrate=0 prices with.
inline std::map<std::string, double> default_costs(
    const core::Recording& program) {
  std::map<std::string, double> g;
  for (const core::ChainSpec& chain : program.chains)
    for (const core::LoopSpec& loop : chain.loops)
      g[loop.name] = model::default_host_g();
  for (const core::LoopSpec& loop : program.loose)
    g[loop.name] = model::default_host_g();
  return g;
}

/// Predicted OP2 and CA times for one chain execution on `mach`.
struct ChainPrediction {
  double t_op2 = 0;
  double t_ca = 0;
  double gain_pct = 0;
  model::ChainComponents components;
};

inline ChainPrediction predict_chain(
    const model::Machine& mach, const mesh::MeshDef& mesh,
    const halo::HaloPlan& plan, const core::ChainSpec& spec,
    const std::set<mesh::dat_id>& stale,
    const std::map<std::string, double>& host_g, int tile = 1) {
  const core::ChainAnalysis an = core::inspect_chain(mesh, spec);
  ChainPrediction out;
  out.components =
      model::extract_components(mesh, plan, spec, an, &stale);
  model::apply_kernel_costs(spec, host_g, mach.compute_scale,
                            &out.components);
  out.t_op2 = model::t_op2_chain(mach, out.components.op2_terms);
  out.t_ca = tile > 1 ? model::t_ca_chain_tiled(mach,
                                                out.components.ca_terms,
                                                tile)
                      : model::t_ca_chain(mach, out.components.ca_terms);
  out.gain_pct = model::gain_percent(out.t_op2, out.t_ca);
  return out;
}

}  // namespace op2ca::bench
