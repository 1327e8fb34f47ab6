// Multi-layered halo plan (Figs 4-7 of the paper).
//
// For every rank and every set, local elements are arranged as
//
//   [ owned (sorted by decreasing inward distance) |
//     import-exec layer 1 .. D | import-nonexec layer 1 .. D ]
//
// * "Inward distance" din(x) of an owned element is its BFS distance from
//   the partition boundary over the symmetric element-adjacency graph
//   (element ~ map target, both directions). Owned elements with din > s
//   form a prefix, so the per-loop shrinking cores of the CA executor
//   (and the plain core/boundary split of Alg 1, s = 1) are index ranges.
// * Import-exec layer k of set S holds foreign elements of S whose
//   forward map targets reach the region built up to layer k-1 — these
//   are redundantly executable iterations (paper's ieh, per level).
// * Import-nonexec layer k holds the read-only fringe discovered at layer
//   k: map targets of layer-k exec elements outside the region (inh).
//
// Export lists mirror the import lists of each neighbour: the elements of
// rank q's import-exec layer k owned by rank r appear, in identical order
// (sorted by global id), in r's export-exec list toward q.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "op2ca/mesh/mesh_def.hpp"
#include "op2ca/partition/partition.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::halo {

/// Layout of one set's local elements on one rank.
struct SetLayout {
  lidx_t num_owned = 0;
  /// exec_end[k] = end of import-exec layer k, k = 0..depth;
  /// exec_end[0] == num_owned.
  LIdxVec exec_end;
  /// nonexec_end[k] = end of import-nonexec layer k, k = 0..depth;
  /// nonexec_end[0] == exec_end[depth].
  LIdxVec nonexec_end;
  lidx_t total = 0;
  /// Global id of every local element, in local order.
  GIdxVec local_to_global;
  /// Inward distance of owned element i (local order is din-descending);
  /// boundary elements have din == 1. Capped at kDinCap.
  std::vector<int> owned_din;

  static constexpr int kDinCap = 1 << 20;

  /// Number of owned elements with din > shrink (a prefix).
  lidx_t core_count(int shrink) const;
  /// [begin, end) local range of import-exec layer k (1-based).
  std::pair<lidx_t, lidx_t> exec_layer(int k) const;
  std::pair<lidx_t, lidx_t> nonexec_layer(int k) const;
};

/// Per-(neighbour, layer) element lists for one set on one rank.
/// Layer index is 1-based; lists_[k-1] is layer k. Local indices.
struct NeighborLists {
  /// exp_exec[q][k-1]: my owned elements in q's import-exec layer k.
  std::map<rank_t, std::vector<LIdxVec>> exp_exec;
  std::map<rank_t, std::vector<LIdxVec>> exp_nonexec;
  /// imp_exec[q][k-1]: my import-exec layer-k elements owned by q.
  std::map<rank_t, std::vector<LIdxVec>> imp_exec;
  std::map<rank_t, std::vector<LIdxVec>> imp_nonexec;
};

/// A mesh map localized to one rank: row-major local target indices for
/// every local from-element; kInvalidLocal marks targets outside the
/// rank's region (only reachable from never-executed elements).
struct LocalMap {
  int arity = 0;
  LIdxVec targets;  ///< size = from-set layout total * arity.
};

/// Everything one rank needs: layouts, neighbour lists and local maps.
struct RankPlan {
  std::vector<SetLayout> sets;        ///< per set id.
  std::vector<NeighborLists> lists;   ///< per set id.
  std::vector<LocalMap> maps;         ///< per map id (empty in sizes-only).
  std::set<rank_t> neighbors;         ///< union over sets/layers.
};

/// Deepest plan the builder accepts: it classifies elements by layer in
/// one signed byte.
inline constexpr int kMaxHaloDepth = 127;

struct HaloPlanOptions {
  int depth = 2;                 ///< max halo layers (paper's r).
  bool build_local_maps = true;  ///< false = sizes-only (model benches).
};

struct HaloPlan {
  int nranks = 0;
  int depth = 0;
  bool has_local_maps = false;
  std::vector<RankPlan> ranks;

  const SetLayout& layout(rank_t r, mesh::set_id s) const {
    return ranks[static_cast<std::size_t>(r)]
        .sets[static_cast<std::size_t>(s)];
  }
};

/// Builds the full multi-layer halo plan for all ranks.
HaloPlan build_halo_plan(const mesh::MeshDef& mesh,
                         const partition::Partition& part,
                         const HaloPlanOptions& options);

}  // namespace op2ca::halo
