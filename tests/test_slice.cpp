// Sparse-tiling slice tests: the per-chain needed-iteration lists must
// be subsets of the structural exec layers, supersets of what
// owner-compute requires, exclude iterations only reachable through maps
// the chain never uses, and respect the exec_halo gating.
#include <gtest/gtest.h>

#include <set>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/core/chain.hpp"
#include "op2ca/core/slice.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/partition/partition.hpp"

namespace op2ca::core {
namespace {

struct Built {
  apps::mgcfd::Problem prob;
  halo::HaloPlan plan;
  ChainSpec spec;
  ChainAnalysis analysis;
};

Built build_synth(int nranks, int nchains, int depth, int levels) {
  Built b{apps::mgcfd::build_problem(3000, levels), {}, {}, {}};
  const partition::Partition part = partition::partition_mesh(
      b.prob.mg.mesh, nranks, partition::Kind::KWay,
      b.prob.mg.levels[0].nodes);
  halo::HaloPlanOptions opts;
  opts.depth = depth;
  b.plan = halo::build_halo_plan(b.prob.mg.mesh, part, opts);
  b.spec = apps::mgcfd::synthetic_chain_spec(b.prob, nchains);
  b.analysis = inspect_chain(b.prob.mg.mesh, b.spec);
  return b;
}

TEST(Slice, ListsAreSubsetsOfStructuralLayers) {
  Built b = build_synth(6, 2, 2, 2);
  for (rank_t r = 0; r < 6; ++r) {
    const halo::RankPlan& rp = b.plan.ranks[static_cast<size_t>(r)];
    const auto lists = needed_exec_lists(b.prob.mg.mesh, rp, b.plan.depth,
                                         b.spec, b.analysis);
    ASSERT_EQ(lists.size(), b.spec.loops.size());
    for (size_t l = 0; l < lists.size(); ++l) {
      const halo::SetLayout& lay =
          rp.sets[static_cast<size_t>(b.spec.loops[l].set)];
      const int he = std::min(b.analysis.he[l], b.plan.depth);
      const lidx_t lo = lay.exec_end[0];
      const lidx_t hi = lay.exec_end[static_cast<size_t>(he)];
      // Sorted, unique, within the structural exec region of depth he...
      // (chain layering can defer an element to a deeper chain layer,
      // but never execute beyond the structural region).
      for (size_t i = 0; i < lists[l].size(); ++i) {
        EXPECT_GE(lists[l][i], lo);
        EXPECT_LT(lists[l][i], hi);
        if (i > 0) {
          EXPECT_LT(lists[l][i - 1], lists[l][i]);
        }
      }
    }
  }
}

TEST(Slice, CoversOwnerComputeRequirement) {
  // Every import-exec edge whose e2n target is owned must be executed by
  // every indirect-write loop over edges (owner-compute), so it must be
  // in the slice of the update loop.
  Built b = build_synth(5, 1, 2, 1);
  const mesh::MeshDef& m = b.prob.mg.mesh;
  const mesh::map_id e2n = *m.find_map("e2n_l0");
  const mesh::MapDef& mp = m.map(e2n);
  for (rank_t r = 0; r < 5; ++r) {
    const halo::RankPlan& rp = b.plan.ranks[static_cast<size_t>(r)];
    const auto lists = needed_exec_lists(m, rp, b.plan.depth, b.spec,
                                         b.analysis);
    const halo::SetLayout& elay =
        rp.sets[static_cast<size_t>(b.spec.loops[0].set)];
    const halo::SetLayout& nlay = rp.sets[static_cast<size_t>(mp.to)];
    const halo::LocalMap& lm = rp.maps[static_cast<size_t>(e2n)];
    const std::set<lidx_t> in_list(lists[0].begin(), lists[0].end());
    const auto [lo, hi] = elay.exec_layer(1);
    for (lidx_t e = lo; e < hi; ++e) {
      bool touches_owned = false;
      for (int c = 0; c < 2; ++c) {
        const lidx_t t = lm.targets[static_cast<size_t>(2 * e + c)];
        if (t != kInvalidLocal && t < nlay.num_owned) touches_owned = true;
      }
      if (touches_owned) {
        EXPECT_TRUE(in_list.count(e)) << "rank " << r << " edge " << e;
      }
    }
  }
}

TEST(Slice, ExcludesMultigridOnlyReachableIterations) {
  // On a multi-level mesh, the structural exec layers of level-0 edges
  // are inflated by inter-grid connectivity. The synthetic chain uses
  // only e2n_l0, so its slice must be strictly smaller than the
  // structural region at some rank (the inflation is real), never larger.
  Built b = build_synth(6, 4, 2, 3);
  std::int64_t structural = 0, sliced = 0;
  for (rank_t r = 0; r < 6; ++r) {
    const halo::RankPlan& rp = b.plan.ranks[static_cast<size_t>(r)];
    const auto lists = needed_exec_lists(b.prob.mg.mesh, rp, b.plan.depth,
                                         b.spec, b.analysis);
    const halo::SetLayout& lay =
        rp.sets[static_cast<size_t>(b.spec.loops[0].set)];
    const int he = std::min(b.analysis.he[0], b.plan.depth);
    structural += lay.exec_end[static_cast<size_t>(he)] - lay.exec_end[0];
    sliced += static_cast<std::int64_t>(lists[0].size());
  }
  EXPECT_LT(sliced, structural);
  EXPECT_GT(sliced, 0);
}

TEST(Slice, ExecHaloGatingYieldsEmptyLists) {
  // jac_centreline (direct RW only, outputs unread downstream) must get
  // an empty slice on every rank.
  apps::hydra::Problem prob = apps::hydra::build_problem(3000);
  const auto specs = apps::hydra::chain_specs(prob);
  const ChainSpec& jacob = specs.at("jacob");
  const ChainAnalysis an = inspect_chain(prob.an.mesh, jacob);
  ASSERT_EQ(an.exec_halo.size(), 3u);
  EXPECT_FALSE(an.exec_halo[1]);  // jac_centreline
  EXPECT_FALSE(an.exec_halo[0]);  // jac_period: pure reads + direct write
  EXPECT_FALSE(an.exec_halo[2]);  // jac_corrections: same

  const partition::Partition part = partition::partition_mesh(
      prob.an.mesh, 4, partition::Kind::RIB, prob.an.nodes);
  halo::HaloPlanOptions opts;
  opts.depth = 2;
  const halo::HaloPlan plan = halo::build_halo_plan(prob.an.mesh, part, opts);
  for (rank_t r = 0; r < 4; ++r) {
    const auto lists = needed_exec_lists(
        prob.an.mesh, plan.ranks[static_cast<size_t>(r)], plan.depth,
        jacob, an);
    for (const auto& l : lists) EXPECT_TRUE(l.empty());
  }
}

TEST(Slice, VfluxExecutesOwnerComputeOnly) {
  // vflux_edge INCs res into owned nodes: exec_halo true, depth 1; the
  // slice holds exactly the chain-layer-1 edges.
  apps::hydra::Problem prob = apps::hydra::build_problem(3000);
  const auto specs = apps::hydra::chain_specs(prob);
  const ChainSpec& vflux = specs.at("vflux");
  const ChainAnalysis an = inspect_chain(prob.an.mesh, vflux);
  EXPECT_FALSE(an.exec_halo[0]);  // initres: nobody reads res downstream
  EXPECT_TRUE(an.exec_halo[1]);   // vflux_edge: indirect INC

  const partition::Partition part = partition::partition_mesh(
      prob.an.mesh, 6, partition::Kind::RIB, prob.an.nodes);
  halo::HaloPlanOptions opts;
  opts.depth = 2;
  const halo::HaloPlan plan = halo::build_halo_plan(prob.an.mesh, part, opts);
  std::int64_t total = 0;
  for (rank_t r = 0; r < 6; ++r) {
    const auto lists = needed_exec_lists(
        prob.an.mesh, plan.ranks[static_cast<size_t>(r)], plan.depth,
        vflux, an);
    EXPECT_TRUE(lists[0].empty());
    total += static_cast<std::int64_t>(lists[1].size());
  }
  EXPECT_GT(total, 0);
}

TEST(Slice, RequiresLocalMaps) {
  Built b = build_synth(2, 1, 1, 1);
  halo::RankPlan empty_maps = b.plan.ranks[0];
  empty_maps.maps.clear();
  EXPECT_THROW(needed_exec_lists(b.prob.mg.mesh, empty_maps, b.plan.depth,
                                 b.spec, b.analysis),
               Error);
}

}  // namespace
}  // namespace op2ca::core
