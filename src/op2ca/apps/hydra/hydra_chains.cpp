// The six Hydra loop-chains (Tables 3-4), issued through a Runtime or
// recorded through a SpecRecorder.
#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/hydra/hydra_kernels.hpp"

namespace op2ca::apps::hydra {

using core::Access;
using core::arg_dat;

template <typename RT>
void run_chain_weight(RT& rt, const Handles& h) {
  rt.chain_begin("weight");
  rt.par_loop("sumbwts", h.bnd, kernels::sumbwts,
              arg_dat(h.qo, 0, h.b2n, Access::INC),
              arg_dat(h.bwts, Access::READ));
  rt.par_loop("periodsym", h.pedges, kernels::periodsym,
              arg_dat(h.qo, 0, h.pe2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.qo, 1, h.pe2n, Access::RW, /*self_combine=*/true));
  rt.par_loop("centreline", h.cbnd, kernels::centreline,
              arg_dat(h.qo, 0, h.cb2n, Access::WRITE),
              arg_dat(h.cbv, Access::READ));
  rt.par_loop("edgelength", h.edges, kernels::edgelength,
              arg_dat(h.qo, 0, h.e2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.qo, 1, h.e2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.ewk, Access::READ));
  rt.par_loop("periodicity", h.pedges, kernels::periodicity,
              arg_dat(h.qo, 0, h.pe2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.qo, 1, h.pe2n, Access::RW, /*self_combine=*/true));
  rt.chain_end();
}

template <typename RT>
void run_chain_period(RT& rt, const Handles& h) {
  rt.chain_begin("period");
  rt.par_loop("negflag", h.pedges, kernels::negflag,
              arg_dat(h.vol, 0, h.pe2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.vol, 1, h.pe2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.pwk, Access::WRITE));
  for (int rep = 0; rep < 2; ++rep) {
    rt.par_loop("limxp", h.edges, kernels::limxp,
                arg_dat(h.qo, 0, h.e2n, Access::RW, /*self_combine=*/true),
                arg_dat(h.qo, 1, h.e2n, Access::RW, /*self_combine=*/true),
                arg_dat(h.vol, 0, h.e2n, Access::READ),
                arg_dat(h.vol, 1, h.e2n, Access::READ));
    rt.par_loop("periodicity", h.pedges, kernels::periodicity,
                arg_dat(h.qo, 0, h.pe2n, Access::RW, /*self_combine=*/true),
                arg_dat(h.qo, 1, h.pe2n, Access::RW, /*self_combine=*/true));
  }
  rt.par_loop("negflag", h.pedges, kernels::negflag,
              arg_dat(h.vol, 0, h.pe2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.vol, 1, h.pe2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.pwk, Access::WRITE));
  rt.chain_end();
}

template <typename RT>
void run_chain_gradl(RT& rt, const Handles& h) {
  rt.chain_begin("gradl");
  rt.par_loop("edgecon", h.edges, kernels::edgecon,
              arg_dat(h.qp, 0, h.e2n, Access::INC),
              arg_dat(h.qp, 1, h.e2n, Access::INC),
              arg_dat(h.ql, 0, h.e2n, Access::INC),
              arg_dat(h.ql, 1, h.e2n, Access::INC),
              arg_dat(h.ewk, Access::READ));
  rt.par_loop("period", h.pedges, kernels::period_gradl,
              arg_dat(h.qp, 0, h.pe2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.qp, 1, h.pe2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.ql, 0, h.pe2n, Access::RW, /*self_combine=*/true),
              arg_dat(h.ql, 1, h.pe2n, Access::RW, /*self_combine=*/true));
  rt.chain_end();
}

template <typename RT>
void run_chain_vflux(RT& rt, const Handles& h) {
  rt.chain_begin("vflux");
  rt.par_loop("initres", h.nodes, kernels::initres,
              arg_dat(h.res, Access::WRITE));
  rt.par_loop("vflux_edge", h.edges, kernels::vflux_edge,
              arg_dat(h.qp, 0, h.e2n, Access::READ),
              arg_dat(h.qp, 1, h.e2n, Access::READ),
              arg_dat(h.xp, 0, h.e2n, Access::READ),
              arg_dat(h.xp, 1, h.e2n, Access::READ),
              arg_dat(h.ql, 0, h.e2n, Access::READ),
              arg_dat(h.ql, 1, h.e2n, Access::READ),
              arg_dat(h.qmu, 0, h.e2n, Access::READ),
              arg_dat(h.qmu, 1, h.e2n, Access::READ),
              arg_dat(h.qrg, 0, h.e2n, Access::READ),
              arg_dat(h.qrg, 1, h.e2n, Access::READ),
              arg_dat(h.res, 0, h.e2n, Access::INC),
              arg_dat(h.res, 1, h.e2n, Access::INC));
  rt.chain_end();
}

template <typename RT>
void run_chain_iflux(RT& rt, const Handles& h) {
  rt.chain_begin("iflux");
  rt.par_loop("initviscres", h.nodes, kernels::initviscres,
              arg_dat(h.visres, Access::WRITE));
  rt.par_loop("iflux_edge", h.edges, kernels::iflux_edge,
              arg_dat(h.qrg, 0, h.e2n, Access::READ),
              arg_dat(h.qrg, 1, h.e2n, Access::READ),
              arg_dat(h.visres, 0, h.e2n, Access::INC),
              arg_dat(h.visres, 1, h.e2n, Access::INC));
  rt.chain_end();
}

template <typename RT>
void run_chain_jacob(RT& rt, const Handles& h) {
  rt.chain_begin("jacob");
  rt.par_loop("jac_period", h.pedges, kernels::jac_period,
              arg_dat(h.jacp, 0, h.pe2n, Access::READ),
              arg_dat(h.jacp, 1, h.pe2n, Access::READ),
              arg_dat(h.jaca, 0, h.pe2n, Access::READ),
              arg_dat(h.jaca, 1, h.pe2n, Access::READ),
              arg_dat(h.pwk, Access::WRITE));
  rt.par_loop("jac_centreline", h.cbnd, kernels::jac_centreline,
              arg_dat(h.cbv, Access::RW));
  rt.par_loop("jac_corrections", h.bnd, kernels::jac_corrections,
              arg_dat(h.jacb, 0, h.b2n, Access::READ),
              arg_dat(h.bwk, Access::WRITE));
  rt.chain_end();
}

template void run_chain_weight(core::Runtime&, const Handles&);
template void run_chain_period(core::Runtime&, const Handles&);
template void run_chain_gradl(core::Runtime&, const Handles&);
template void run_chain_vflux(core::Runtime&, const Handles&);
template void run_chain_iflux(core::Runtime&, const Handles&);
template void run_chain_jacob(core::Runtime&, const Handles&);
template void run_chain_weight(core::SpecRecorder&, const Handles&);
template void run_chain_period(core::SpecRecorder&, const Handles&);
template void run_chain_gradl(core::SpecRecorder&, const Handles&);
template void run_chain_vflux(core::SpecRecorder&, const Handles&);
template void run_chain_iflux(core::SpecRecorder&, const Handles&);
template void run_chain_jacob(core::SpecRecorder&, const Handles&);

}  // namespace op2ca::apps::hydra
