// Hydra driver glue: setup phase, main-loop iteration, and their
// recording, whose chains feed planned-mode analysis and the Table 3/4
// benches — tests pin the inspector output against the paper's tables
// through these.
#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/hydra/hydra_kernels.hpp"

namespace op2ca::apps::hydra {

using core::Access;
using core::arg_dat;

template <typename RT>
void run_setup(RT& rt, const Handles& h) {
  run_chain_weight(rt, h);
  run_chain_period(rt, h);
}

template <typename RT>
void run_iteration(RT& rt, const Handles& h) {
  run_chain_gradl(rt, h);
  run_chain_vflux(rt, h);
  run_chain_iflux(rt, h);
  run_chain_jacob(rt, h);
  run_chain_period(rt, h);
  // RK-style state update: consumes the residuals and re-dirties every
  // dat the chains read, so each iteration re-exercises the exchanges.
  rt.par_loop("rk_update", h.nodes, kernels::rk_update,
              arg_dat(h.qo, Access::RW), arg_dat(h.qp, Access::RW),
              arg_dat(h.ql, Access::RW), arg_dat(h.qrg, Access::RW),
              arg_dat(h.qmu, Access::RW), arg_dat(h.vol, Access::RW),
              arg_dat(h.xp, Access::RW), arg_dat(h.jacp, Access::RW),
              arg_dat(h.jaca, Access::RW), arg_dat(h.jacb, Access::RW),
              arg_dat(h.res, Access::READ),
              arg_dat(h.visres, Access::READ));
}

template <typename RT>
void run_rk_iteration(RT& rt, const Handles& h) {
  // Classic 5-stage RK coefficients (Jameson-style).
  static const double kAlpha[5] = {0.25, 1.0 / 6.0, 0.375, 0.5, 1.0};
  for (int stage = 0; stage < 5; ++stage) {
    run_chain_gradl(rt, h);
    run_chain_vflux(rt, h);
    run_chain_iflux(rt, h);
    double alpha = kAlpha[stage];
    rt.par_loop("rk_stage", h.nodes, kernels::rk_stage,
                arg_dat(h.qo, Access::RW), arg_dat(h.qp, Access::RW),
                arg_dat(h.ql, Access::RW), arg_dat(h.res, Access::READ),
                arg_dat(h.visres, Access::READ),
                core::arg_gbl(&alpha, 1, Access::READ));
  }
  run_chain_jacob(rt, h);
  run_chain_period(rt, h);
  // Refresh the remaining per-iteration state (viscosity, volumes,
  // jacobians, metric terms) once per step.
  rt.par_loop("rk_update", h.nodes, kernels::rk_update,
              arg_dat(h.qo, Access::RW), arg_dat(h.qp, Access::RW),
              arg_dat(h.ql, Access::RW), arg_dat(h.qrg, Access::RW),
              arg_dat(h.qmu, Access::RW), arg_dat(h.vol, Access::RW),
              arg_dat(h.xp, Access::RW), arg_dat(h.jacp, Access::RW),
              arg_dat(h.jaca, Access::RW), arg_dat(h.jacb, Access::RW),
              arg_dat(h.res, Access::READ),
              arg_dat(h.visres, Access::READ));
}

template void run_setup(core::Runtime&, const Handles&);
template void run_iteration(core::Runtime&, const Handles&);
template void run_rk_iteration(core::Runtime&, const Handles&);
template void run_setup(core::SpecRecorder&, const Handles&);
template void run_iteration(core::SpecRecorder&, const Handles&);
template void run_rk_iteration(core::SpecRecorder&, const Handles&);

core::Recording record_program(const Problem& prob) {
  return core::record(prob.an.mesh, [&](core::SpecRecorder& rec) {
    const Handles h = resolve_handles(rec, prob);
    run_setup(rec, h);
    run_iteration(rec, h);
  });
}

std::map<std::string, core::ChainSpec> chain_specs(const Problem& prob) {
  return record_program(prob).chains_by_name();
}

std::vector<std::string> chain_names() {
  return {"weight", "period", "gradl", "vflux", "iflux", "jacob"};
}

}  // namespace op2ca::apps::hydra
