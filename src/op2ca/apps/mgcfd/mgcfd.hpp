// MG-CFD analogue: a 3D node-centred finite-volume Euler mini-solver
// with multigrid acceleration, expressed in the op2ca API (paper
// Section 4.1). Includes the synthetic update/edge_flux loop-chain of
// Section 4.1.1 used for the Table 2 / Fig 10-11 experiments.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "op2ca/core/recorder.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/multigrid.hpp"

namespace op2ca::apps::mgcfd {

/// Mesh + dat handles of one built problem.
struct Problem {
  mesh::MultigridHex mg;  ///< the mesh lives in mg.mesh.

  struct LevelDats {
    mesh::dat_id q = -1;    ///< conserved variables, dim 5.
    mesh::dat_id adt = -1;  ///< area / timestep, dim 1.
    mesh::dat_id res = -1;  ///< residual, dim 5.
    mesh::dat_id ewt = -1;  ///< edge weights (face normals), dim 3.
  };
  std::vector<LevelDats> levels;

  // Synthetic-chain dats (level-0 sets), Fig 3 structure.
  mesh::dat_id sres = -1;   ///< nodes, dim 2.
  mesh::dat_id spres = -1;  ///< nodes, dim 2.
  mesh::dat_id sflux = -1;  ///< nodes, dim 2.
  mesh::dat_id sewt = -1;   ///< edges, dim 4.
};

/// Builds a problem with ~target_nodes level-0 nodes and `num_levels`
/// multigrid levels; dats deterministically initialized from `seed`.
Problem build_problem(gidx_t target_nodes, int num_levels,
                      std::uint64_t seed = 7);

/// Handle bundle resolved inside the SPMD function (or a recording).
struct Handles {
  struct Level {
    core::Set nodes, edges;
    core::Map e2n;
    core::Dat q, adt, res, ewt;
  };
  std::vector<Level> levels;
  std::vector<core::Map> restrict_maps, prolong_maps;
  core::Set nodes0, edges0;
  core::Map e2n0;
  core::Dat sres, spres, sflux, sewt;
};
Handles resolve_handles(const core::MeshHandles& rt, const Problem& prob);

/// One multigrid V-cycle iteration of the Euler solver; returns the
/// residual RMS (global reduction).
double solver_iteration(core::Runtime& rt, const Handles& h);

/// Runs `niters` solver iterations; returns the RMS history.
std::vector<double> run_solver(core::Runtime& rt, const Handles& h,
                               int niters);

/// The synthetic loop-chain (Section 4.1.1): a perturbation loop outside
/// the chain re-dirties spres, then `nchains` update/edge_flux pairs run
/// inside chain 'synthetic' (2*nchains loops). With the chain enabled in
/// the ChainConfig this executes per Alg 2; otherwise as 2*nchains
/// standard OP2 loops. RT is core::Runtime (executes) or
/// core::SpecRecorder (records); both are instantiated in the library.
template <typename RT>
void run_synthetic_chain(RT& rt, const Handles& h, int nchains);

/// run_synthetic_chain recorded over the problem's mesh: the
/// synth_perturb loop outside the bracket, and the chain (planned mode).
core::Recording record_synthetic_chain(const Problem& prob, int nchains);

/// The chain of record_synthetic_chain.
core::ChainSpec synthetic_chain_spec(const Problem& prob, int nchains);

}  // namespace op2ca::apps::mgcfd
