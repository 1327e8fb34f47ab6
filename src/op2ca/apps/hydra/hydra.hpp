// OP2-Hydra analogue (paper Section 4.2): a RANS-flavoured solver
// skeleton on a rotor-passage (annular wedge) mesh whose six selected
// loop-chains — weight, period, gradl (multi-layer, Table 3) and vflux,
// iflux, jacob (single-layer, Table 4) — reproduce the iteration sets,
// access descriptors and halo extensions of the paper.
//
// Naming notes vs the paper's tables: the paper labels the jacobian dats
// of both jac_period and jac_corrections "jac"; in real Hydra these are
// distinct arrays, and keeping them distinct (jacp/jaca/jacb here) is
// what yields the single-layer extensions of Table 4.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "op2ca/core/recorder.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/annulus.hpp"

namespace op2ca::apps::hydra {

struct Problem {
  mesh::Annulus an;  ///< the mesh lives in an.mesh.

  // Node dats.
  mesh::dat_id qo = -1;    ///< old flow state, dim 6.
  mesh::dat_id qp = -1;    ///< gradient/primary state, dim 6.
  mesh::dat_id ql = -1;    ///< limited state, dim 6.
  mesh::dat_id xp = -1;    ///< node coordinates copy, dim 3.
  mesh::dat_id qmu = -1;   ///< viscosity, dim 1.
  mesh::dat_id qrg = -1;   ///< gas constant field, dim 1.
  mesh::dat_id vol = -1;   ///< control volume, dim 1.
  mesh::dat_id res = -1;   ///< inviscid residual, dim 6.
  mesh::dat_id visres = -1;  ///< viscous residual, dim 6.
  mesh::dat_id jacp = -1;  ///< periodic jacobian, dim 9.
  mesh::dat_id jaca = -1;  ///< auxiliary jacobian, dim 9.
  mesh::dat_id jacb = -1;  ///< boundary jacobian, dim 9.
  // Set-local work dats.
  mesh::dat_id bwts = -1;  ///< bnd, dim 1.
  mesh::dat_id pwk = -1;   ///< pedges, dim 2.
  mesh::dat_id cbv = -1;   ///< cbnd, dim 6.
  mesh::dat_id bwk = -1;   ///< bnd, dim 1.
  mesh::dat_id ewk = -1;   ///< edges, dim 1.
};

Problem build_problem(gidx_t target_nodes, std::uint64_t seed = 11);

struct Handles {
  core::Set nodes, edges, pedges, bnd, cbnd;
  core::Map e2n, pe2n, b2n, cb2n;
  core::Dat qo, qp, ql, xp, qmu, qrg, vol, res, visres;
  core::Dat jacp, jaca, jacb;
  core::Dat bwts, pwk, cbv, bwk, ewk;
};
/// The handles of a Problem's sets, maps and dats, from a Runtime or a
/// SpecRecorder.
Handles resolve_handles(const core::MeshHandles& rt, const Problem& prob);

// The entry points below are templates on the runtime type RT: a
// core::Runtime executes them, a core::SpecRecorder records them (both
// are instantiated in the library).

/// The six chains. Each function issues the chain's loops between
/// chain_begin/chain_end under the paper's chain name; whether they run
/// with CA is decided by the World's ChainConfig.
template <typename RT>
void run_chain_weight(RT& rt, const Handles& h);
template <typename RT>
void run_chain_period(RT& rt, const Handles& h);
template <typename RT>
void run_chain_gradl(RT& rt, const Handles& h);
template <typename RT>
void run_chain_vflux(RT& rt, const Handles& h);
template <typename RT>
void run_chain_iflux(RT& rt, const Handles& h);
template <typename RT>
void run_chain_jacob(RT& rt, const Handles& h);

/// Setup phase (weight + period once), mirroring the paper's placement
/// of weight/period outside the main time-marching loop.
template <typename RT>
void run_setup(RT& rt, const Handles& h);

/// One main-loop iteration: gradl, vflux, iflux, jacob, period, then the
/// RK-style state update that re-dirties the read dats.
template <typename RT>
void run_iteration(RT& rt, const Handles& h);

/// One full 5-step Runge-Kutta iteration, Hydra's actual time-marching
/// scheme: each stage recomputes gradients and fluxes (gradl, vflux,
/// iflux) and applies a stage-weighted update; jacob and period run once
/// per iteration. Exercises every chain 5x per time step.
template <typename RT>
void run_rk_iteration(RT& rt, const Handles& h);

/// run_setup then run_iteration, recorded over the problem's mesh: the
/// six chains, and the rk_update loop outside them (planned mode).
core::Recording record_program(const Problem& prob);

/// The six chains of record_program by name (planned-mode analysis and
/// the Table 3/4 benches). Keys: weight, period, gradl, vflux, iflux,
/// jacob.
std::map<std::string, core::ChainSpec> chain_specs(const Problem& prob);

/// Chain names in table order.
std::vector<std::string> chain_names();

}  // namespace op2ca::apps::hydra
