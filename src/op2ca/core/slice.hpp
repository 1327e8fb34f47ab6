// Per-chain relayering of the exec halo — the list-building half of the
// sparse-tiling inspection (the paper's restructure_elements).
//
// The halo plan's exec layers are app-global: they cover every map in
// the mesh, so a chain that uses only e2n would, executed over raw layer
// ranges, redundantly run iterations that exist solely because of other
// maps (e.g. multigrid inter-level connectivity). This pass relayers the
// structural exec halo forward, from the owned region outward, over the
// rank's LOCAL maps of the chain alone: an exec element is at chain
// layer k when one of its chain-map targets is owned or was reached
// below layer k (the targets of the owned boundary's iterations join
// after layer 1, so layer-2 elements touching the read fringe are
// found). An element no chain map reaches gets no layer and never runs
// for this chain.
//
// Loop l runs its set's exec elements of chain layers 1..he[l] (clamped
// to the plan depth), and none when exec_halo[l] is false (it writes
// through no map, and no later loop reads what it writes). Chain maps
// are a subset of the mesh's, so a chain layer is never below the
// structural one: the lists are subsets of the structural exec layers
// 1..HE_l, and every sync-depth guarantee of the layered analysis holds.
#pragma once

#include <vector>

#include "op2ca/core/chain.hpp"
#include "op2ca/halo/halo_plan.hpp"

namespace op2ca::core {

/// Local indices of the import-exec iterations each loop must execute on
/// this rank (empty for loops with exec_halo[l] == false). Requires a
/// plan built with local maps.
std::vector<LIdxVec> needed_exec_lists(const mesh::MeshDef& mesh,
                                       const halo::RankPlan& rp,
                                       int plan_depth,
                                       const ChainSpec& spec,
                                       const ChainAnalysis& analysis);

}  // namespace op2ca::core
