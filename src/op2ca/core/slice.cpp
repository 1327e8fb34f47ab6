#include "op2ca/core/slice.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "op2ca/util/error.hpp"

namespace op2ca::core {
namespace {

/// Layer of each foreign element w.r.t. the chain's own connectivity:
/// a relayering of the structural exec halo using only the maps the
/// chain accesses. layer[set][local] is 1-based; 0 = unreachable
/// through chain maps (never executed for this chain).
using ChainLayers = std::vector<std::vector<int>>;

ChainLayers chain_layers(const mesh::MeshDef& mesh,
                         const halo::RankPlan& rp, int plan_depth,
                         const ChainSpec& spec) {
  // Collect the chain's maps once.
  std::set<mesh::map_id> chain_maps;
  for (const LoopSpec& loop : spec.loops)
    for (const ArgSpec& a : loop.args)
      if (a.indirect) chain_maps.insert(a.map);

  const int nsets = mesh.num_sets();
  ChainLayers layer(static_cast<std::size_t>(nsets));
  // Non-owned region membership per set (targets pulled in so far).
  std::vector<std::vector<char>> region(static_cast<std::size_t>(nsets));
  for (mesh::set_id s = 0; s < nsets; ++s) {
    const auto total =
        static_cast<std::size_t>(rp.sets[static_cast<std::size_t>(s)].total);
    layer[static_cast<std::size_t>(s)].assign(total, 0);
    region[static_cast<std::size_t>(s)].assign(total, 0);
  }

  for (int k = 1; k <= plan_depth; ++k) {
    // Exec discovery: structural exec candidates of a from-set whose
    // chain-map targets reach the region built so far.
    std::vector<std::pair<mesh::set_id, lidx_t>> fresh;
    for (mesh::map_id m : chain_maps) {
      const mesh::MapDef& mp = mesh.map(m);
      const halo::SetLayout& flay =
          rp.sets[static_cast<std::size_t>(mp.from)];
      const halo::SetLayout& tlay =
          rp.sets[static_cast<std::size_t>(mp.to)];
      const halo::LocalMap& lm = rp.maps[static_cast<std::size_t>(m)];
      auto& flayer = layer[static_cast<std::size_t>(mp.from)];
      for (lidx_t e = flay.exec_end[0]; e < flay.exec_end.back(); ++e) {
        if (flayer[static_cast<std::size_t>(e)] != 0)
          continue;  // already layered
        bool reaches = false;
        for (int c = 0; c < mp.arity && !reaches; ++c) {
          const lidx_t t =
              lm.targets[static_cast<std::size_t>(e) *
                             static_cast<std::size_t>(mp.arity) +
                         static_cast<std::size_t>(c)];
          if (t == kInvalidLocal) continue;
          if (t < tlay.num_owned)
            reaches = true;  // region level 0
          else if (region[static_cast<std::size_t>(mp.to)]
                         [static_cast<std::size_t>(t)] != 0)
            reaches = true;
        }
        if (reaches) {
          flayer[static_cast<std::size_t>(e)] = k;
          fresh.emplace_back(mp.from, e);
        }
      }
    }
    // Region growth: the fresh exec elements and their chain-map
    // targets become reachable for layer k+1.
    for (const auto& [s, e] : fresh) {
      region[static_cast<std::size_t>(s)][static_cast<std::size_t>(e)] = 1;
      for (mesh::map_id m : chain_maps) {
        const mesh::MapDef& mp = mesh.map(m);
        if (mp.from != s) continue;
        const halo::SetLayout& tlay =
            rp.sets[static_cast<std::size_t>(mp.to)];
        const halo::LocalMap& lm = rp.maps[static_cast<std::size_t>(m)];
        for (int c = 0; c < mp.arity; ++c) {
          const lidx_t t =
              lm.targets[static_cast<std::size_t>(e) *
                             static_cast<std::size_t>(mp.arity) +
                         static_cast<std::size_t>(c)];
          if (t != kInvalidLocal && t >= tlay.num_owned)
            region[static_cast<std::size_t>(mp.to)]
                  [static_cast<std::size_t>(t)] = 1;
        }
      }
    }
    // Also at layer 1: targets of OWNED iterations seed the region so
    // layer-2 exec elements touching the read fringe are found.
    if (k == 1) {
      for (mesh::map_id m : chain_maps) {
        const mesh::MapDef& mp = mesh.map(m);
        const halo::SetLayout& flay =
            rp.sets[static_cast<std::size_t>(mp.from)];
        const halo::SetLayout& tlay =
            rp.sets[static_cast<std::size_t>(mp.to)];
        const halo::LocalMap& lm = rp.maps[static_cast<std::size_t>(m)];
        // Owned boundary only: interior targets are owned anyway.
        for (lidx_t e = flay.core_count(1); e < flay.num_owned; ++e) {
          for (int c = 0; c < mp.arity; ++c) {
            const lidx_t t =
                lm.targets[static_cast<std::size_t>(e) *
                               static_cast<std::size_t>(mp.arity) +
                           static_cast<std::size_t>(c)];
            if (t != kInvalidLocal && t >= tlay.num_owned)
              region[static_cast<std::size_t>(mp.to)]
                    [static_cast<std::size_t>(t)] = 1;
          }
        }
      }
    }
  }
  return layer;
}

}  // namespace

std::vector<LIdxVec> needed_exec_lists(const mesh::MeshDef& mesh,
                                       const halo::RankPlan& rp,
                                       int plan_depth,
                                       const ChainSpec& spec,
                                       const ChainAnalysis& analysis) {
  const int n = static_cast<int>(spec.loops.size());
  OP2CA_REQUIRE(static_cast<int>(analysis.he.size()) == n,
                "needed_exec_lists: analysis does not match chain");
  OP2CA_REQUIRE(!rp.maps.empty(),
                "needed_exec_lists: plan was built without local maps");

  const ChainLayers layers = chain_layers(mesh, rp, plan_depth, spec);

  std::vector<LIdxVec> lists(static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l) {
    if (!analysis.exec_halo[static_cast<std::size_t>(l)]) continue;
    const LoopSpec& loop = spec.loops[static_cast<std::size_t>(l)];
    const int he =
        std::min(analysis.he[static_cast<std::size_t>(l)], plan_depth);
    const std::vector<int>& slayer = layers[static_cast<std::size_t>(loop.set)];
    const halo::SetLayout& lay = rp.sets[static_cast<std::size_t>(loop.set)];
    LIdxVec& out = lists[static_cast<std::size_t>(l)];
    for (lidx_t e = lay.exec_end[0]; e < lay.exec_end.back(); ++e) {
      const int k = slayer[static_cast<std::size_t>(e)];
      if (k != 0 && k <= he) out.push_back(e);
    }
  }
  return lists;
}

}  // namespace op2ca::core
