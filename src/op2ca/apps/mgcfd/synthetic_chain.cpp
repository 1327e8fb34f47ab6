// The synthetic loop-chain of Section 4.1.1: `nchains` update/edge_flux
// pairs forming one 2*nchains-loop chain. update INCs sres from spres
// reads; edge_flux (a stand-in for the costly compute_flux_edge access
// pattern) reads sres and INCs sflux. A perturbation loop outside the
// chain re-dirties spres each timestep, so the baseline re-exchanges
// sres on every edge_flux (nchains messages per dat-class per neighbour
// per timestep) while CA sends one grouped message.
#include <utility>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::apps::mgcfd {

using core::Access;
using core::arg_dat;

template <typename RT>
void run_synthetic_chain(RT& rt, const Handles& h, int nchains) {
  OP2CA_REQUIRE(nchains >= 1, "run_synthetic_chain: nchains >= 1");

  rt.par_loop("synth_perturb", h.nodes0, kernels::synth_perturb,
              arg_dat(h.spres, Access::RW));

  rt.chain_begin("synthetic");
  for (int c = 0; c < nchains; ++c) {
    rt.par_loop("synth_update", h.edges0, kernels::synth_update,
                arg_dat(h.sres, 0, h.e2n0, Access::INC),
                arg_dat(h.sres, 1, h.e2n0, Access::INC),
                arg_dat(h.spres, 0, h.e2n0, Access::READ),
                arg_dat(h.spres, 1, h.e2n0, Access::READ));
    rt.par_loop("synth_edge_flux", h.edges0, kernels::synth_edge_flux,
                arg_dat(h.sflux, 0, h.e2n0, Access::INC),
                arg_dat(h.sflux, 1, h.e2n0, Access::INC),
                arg_dat(h.sres, 0, h.e2n0, Access::READ),
                arg_dat(h.sres, 1, h.e2n0, Access::READ),
                arg_dat(h.sewt, Access::READ));
  }
  rt.chain_end();
}

template void run_synthetic_chain(core::Runtime&, const Handles&, int);
template void run_synthetic_chain(core::SpecRecorder&, const Handles&, int);

core::Recording record_synthetic_chain(const Problem& prob, int nchains) {
  return core::record(prob.mg.mesh, [&](core::SpecRecorder& rec) {
    run_synthetic_chain(rec, resolve_handles(rec, prob), nchains);
  });
}

core::ChainSpec synthetic_chain_spec(const Problem& prob, int nchains) {
  return std::move(record_synthetic_chain(prob, nchains).chains.at(0));
}

}  // namespace op2ca::apps::mgcfd
