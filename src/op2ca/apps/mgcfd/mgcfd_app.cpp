// MG-CFD solver driver: per V-cycle, smooth every level (step factor,
// edge fluxes, explicit update), restrict the solution down the
// hierarchy, inject corrections back up, and reduce the residual RMS.
#include <string>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"

namespace op2ca::apps::mgcfd {

using core::Access;
using core::arg_dat;
using core::arg_gbl;

Handles resolve_handles(const core::MeshHandles& rt, const Problem& prob) {
  Handles h;
  h.levels.resize(prob.levels.size());
  for (std::size_t l = 0; l < prob.levels.size(); ++l) {
    const std::string sfx = "_l" + std::to_string(l);
    Handles::Level& lv = h.levels[l];
    lv.nodes = rt.set("nodes" + sfx);
    lv.edges = rt.set("edges" + sfx);
    lv.e2n = rt.map("e2n" + sfx);
    lv.q = rt.dat(prob.levels[l].q);
    lv.adt = rt.dat(prob.levels[l].adt);
    lv.res = rt.dat(prob.levels[l].res);
    lv.ewt = rt.dat(prob.levels[l].ewt);
  }
  for (std::size_t l = 0; l + 1 < prob.levels.size(); ++l) {
    h.restrict_maps.push_back(
        rt.map("restrict_l" + std::to_string(l) + std::to_string(l + 1)));
    h.prolong_maps.push_back(
        rt.map("prolong_l" + std::to_string(l) + std::to_string(l + 1)));
  }
  h.nodes0 = h.levels[0].nodes;
  h.edges0 = h.levels[0].edges;
  h.e2n0 = h.levels[0].e2n;
  h.sres = rt.dat(prob.sres);
  h.spres = rt.dat(prob.spres);
  h.sflux = rt.dat(prob.sflux);
  h.sewt = rt.dat(prob.sewt);
  return h;
}

namespace {

void smooth_level(core::Runtime& rt, const Handles::Level& lv,
                  const std::string& sfx) {
  rt.par_loop("step_factor" + sfx, lv.nodes, kernels::step_factor,
              arg_dat(lv.q, Access::READ), arg_dat(lv.adt, Access::WRITE));
  rt.par_loop("compute_flux_edge" + sfx, lv.edges,
              kernels::compute_flux_edge,
              arg_dat(lv.q, 0, lv.e2n, Access::READ),
              arg_dat(lv.q, 1, lv.e2n, Access::READ),
              arg_dat(lv.ewt, Access::READ),
              arg_dat(lv.res, 0, lv.e2n, Access::INC),
              arg_dat(lv.res, 1, lv.e2n, Access::INC));
  rt.par_loop("time_step" + sfx, lv.nodes, kernels::time_step,
              arg_dat(lv.q, Access::RW), arg_dat(lv.adt, Access::READ),
              arg_dat(lv.res, Access::RW));
}

}  // namespace

double solver_iteration(core::Runtime& rt, const Handles& h) {
  const int nlev = static_cast<int>(h.levels.size());

  // Down-sweep: smooth then restrict the state to the next coarser grid.
  for (int l = 0; l < nlev; ++l) {
    const std::string sfx = "_l" + std::to_string(l);
    smooth_level(rt, h.levels[static_cast<std::size_t>(l)], sfx);
    if (l + 1 < nlev) {
      const auto& coarse = h.levels[static_cast<std::size_t>(l) + 1];
      rt.par_loop("zero_coarse" + sfx, coarse.nodes, kernels::zero5,
                  arg_dat(coarse.q, Access::WRITE));
      rt.par_loop(
          "restrict" + sfx, h.levels[static_cast<std::size_t>(l)].nodes,
          kernels::restrict_q,
          arg_dat(h.levels[static_cast<std::size_t>(l)].q, Access::READ),
          arg_dat(coarse.q, 0,
                  h.restrict_maps[static_cast<std::size_t>(l)],
                  Access::INC));
    }
  }

  // Up-sweep: inject coarse corrections into the finer grids.
  for (int l = nlev - 2; l >= 0; --l) {
    const auto& coarse = h.levels[static_cast<std::size_t>(l) + 1];
    rt.par_loop("prolong_l" + std::to_string(l), coarse.nodes,
                kernels::prolong_q, arg_dat(coarse.q, Access::READ),
                arg_dat(h.levels[static_cast<std::size_t>(l)].q, 0,
                        h.prolong_maps[static_cast<std::size_t>(l)],
                        Access::RW));
  }

  // Residual norm on the fine grid: recompute fluxes into res, reduce,
  // then clear.
  const auto& l0 = h.levels[0];
  rt.par_loop("rms_flux", l0.edges, kernels::compute_flux_edge,
              arg_dat(l0.q, 0, l0.e2n, Access::READ),
              arg_dat(l0.q, 1, l0.e2n, Access::READ),
              arg_dat(l0.ewt, Access::READ),
              arg_dat(l0.res, 0, l0.e2n, Access::INC),
              arg_dat(l0.res, 1, l0.e2n, Access::INC));
  double rms = 0.0;
  rt.par_loop("rms_reduce", l0.nodes, kernels::residual_rms,
              arg_dat(l0.res, Access::READ), arg_gbl(&rms, 1, Access::INC));
  rt.par_loop("rms_clear", l0.nodes, kernels::zero5,
              arg_dat(l0.res, Access::WRITE));
  return rms;
}

std::vector<double> run_solver(core::Runtime& rt, const Handles& h,
                               int niters) {
  std::vector<double> history;
  history.reserve(static_cast<std::size_t>(niters));
  for (int it = 0; it < niters; ++it)
    history.push_back(solver_iteration(rt, h));
  return history;
}

}  // namespace op2ca::apps::mgcfd
