// Halo-plan construction invariants: layouts, layer nesting,
// import/export symmetry, local map completeness, dat gather/scatter and
// grouped message packing.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "op2ca/halo/grouped.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/halo/renumber.hpp"
#include "op2ca/mesh/annulus.hpp"
#include "op2ca/mesh/multigrid.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/partition/partition.hpp"

namespace op2ca::halo {
namespace {

struct Built {
  mesh::Quad2D q;
  partition::Partition part;
  HaloPlan plan;
};

Built build_quad(gidx_t nx, gidx_t ny, int nranks, int depth) {
  Built b{mesh::make_quad2d(nx, ny), {}, {}};
  b.part = partition::partition_mesh(b.q.mesh, nranks,
                                     partition::Kind::RIB, b.q.nodes);
  HaloPlanOptions opts;
  opts.depth = depth;
  b.plan = build_halo_plan(b.q.mesh, b.part, opts);
  return b;
}

TEST(HaloPlan, SingleRankHasNoHalos) {
  Built b = build_quad(6, 6, 1, 2);
  for (mesh::set_id s = 0; s < b.q.mesh.num_sets(); ++s) {
    const SetLayout& lay = b.plan.layout(0, s);
    EXPECT_EQ(lay.num_owned, b.q.mesh.set(s).size);
    EXPECT_EQ(lay.total, lay.num_owned);
    EXPECT_EQ(lay.core_count(1), lay.num_owned);  // everything is core
    for (int din : lay.owned_din) EXPECT_EQ(din, SetLayout::kDinCap);
  }
  EXPECT_TRUE(b.plan.ranks[0].neighbors.empty());
}

TEST(HaloPlan, LayoutInvariants) {
  Built b = build_quad(12, 12, 4, 2);
  for (rank_t r = 0; r < 4; ++r) {
    for (mesh::set_id s = 0; s < b.q.mesh.num_sets(); ++s) {
      const SetLayout& lay = b.plan.layout(r, s);
      // Segment bounds are monotone and consistent.
      EXPECT_EQ(lay.exec_end[0], lay.num_owned);
      for (size_t k = 1; k < lay.exec_end.size(); ++k)
        EXPECT_GE(lay.exec_end[k], lay.exec_end[k - 1]);
      EXPECT_EQ(lay.nonexec_end[0], lay.exec_end.back());
      for (size_t k = 1; k < lay.nonexec_end.size(); ++k)
        EXPECT_GE(lay.nonexec_end[k], lay.nonexec_end[k - 1]);
      EXPECT_EQ(lay.nonexec_end.back(), lay.total);
      EXPECT_EQ(static_cast<lidx_t>(lay.local_to_global.size()), lay.total);

      // Local ids map to distinct globals; owned ones are really owned.
      std::set<gidx_t> seen;
      for (lidx_t i = 0; i < lay.total; ++i) {
        const gidx_t g = lay.local_to_global[static_cast<size_t>(i)];
        EXPECT_TRUE(seen.insert(g).second);
        if (i < lay.num_owned)
          EXPECT_EQ(b.part.owner(s, g), r);
        else
          EXPECT_NE(b.part.owner(s, g), r);
      }

      // Owned ordering: din non-increasing; core_count consistent.
      for (size_t i = 1; i < lay.owned_din.size(); ++i)
        EXPECT_LE(lay.owned_din[i], lay.owned_din[i - 1]);
      for (int shrink = 0; shrink <= 3; ++shrink) {
        const lidx_t c = lay.core_count(shrink);
        for (lidx_t i = 0; i < c; ++i)
          EXPECT_GT(lay.owned_din[static_cast<size_t>(i)], shrink);
        if (c < lay.num_owned) {
          EXPECT_LE(lay.owned_din[static_cast<size_t>(c)], shrink);
        }
      }
    }
  }
}

TEST(HaloPlan, OwnedPartitionCoverage) {
  Built b = build_quad(10, 8, 3, 2);
  for (mesh::set_id s = 0; s < b.q.mesh.num_sets(); ++s) {
    std::set<gidx_t> covered;
    for (rank_t r = 0; r < 3; ++r) {
      const SetLayout& lay = b.plan.layout(r, s);
      for (lidx_t i = 0; i < lay.num_owned; ++i)
        EXPECT_TRUE(
            covered.insert(lay.local_to_global[static_cast<size_t>(i)])
                .second);
    }
    EXPECT_EQ(static_cast<gidx_t>(covered.size()), b.q.mesh.set(s).size);
  }
}

TEST(HaloPlan, ImportExportSymmetry) {
  Built b = build_quad(14, 10, 5, 2);
  for (rank_t r = 0; r < 5; ++r) {
    const RankPlan& rp = b.plan.ranks[static_cast<size_t>(r)];
    for (mesh::set_id s = 0; s < b.q.mesh.num_sets(); ++s) {
      const NeighborLists& nl = rp.lists[static_cast<size_t>(s)];
      auto check = [&](const std::map<rank_t, std::vector<LIdxVec>>& imp,
                       bool exec) {
        for (const auto& [q, layers] : imp) {
          const NeighborLists& qnl =
              b.plan.ranks[static_cast<size_t>(q)]
                  .lists[static_cast<size_t>(s)];
          const auto& exp_tab = exec ? qnl.exp_exec : qnl.exp_nonexec;
          const auto it = exp_tab.find(r);
          ASSERT_NE(it, exp_tab.end());
          for (size_t k = 0; k < layers.size(); ++k) {
            ASSERT_EQ(layers[k].size(), it->second[k].size());
            // Element-wise: same global ids in the same order.
            const SetLayout& mine = b.plan.layout(r, s);
            const SetLayout& theirs = b.plan.layout(q, s);
            for (size_t i = 0; i < layers[k].size(); ++i) {
              const gidx_t g_imp =
                  mine.local_to_global[static_cast<size_t>(layers[k][i])];
              const gidx_t g_exp = theirs.local_to_global[
                  static_cast<size_t>(it->second[k][i])];
              EXPECT_EQ(g_imp, g_exp);
              EXPECT_EQ(b.part.owner(s, g_imp), q);
            }
          }
        }
      };
      check(nl.imp_exec, true);
      check(nl.imp_nonexec, false);
    }
  }
}

TEST(HaloPlan, ExecLayerTargetsPresentLocally) {
  // Every map row of an owned or import-exec element must resolve to a
  // local element (nonexec fringe guarantees closure).
  Built b = build_quad(9, 9, 4, 2);
  const mesh::MeshDef& m = b.q.mesh;
  for (rank_t r = 0; r < 4; ++r) {
    const RankPlan& rp = b.plan.ranks[static_cast<size_t>(r)];
    for (mesh::map_id mid = 0; mid < m.num_maps(); ++mid) {
      const mesh::MapDef& mp = m.map(mid);
      const SetLayout& from = rp.sets[static_cast<size_t>(mp.from)];
      const LocalMap& lm = rp.maps[static_cast<size_t>(mid)];
      const lidx_t exec_total = from.exec_end.back();
      for (lidx_t f = 0; f < exec_total; ++f)
        for (int k = 0; k < mp.arity; ++k)
          EXPECT_NE(lm.targets[static_cast<size_t>(f) *
                                   static_cast<size_t>(mp.arity) +
                               static_cast<size_t>(k)],
                    kInvalidLocal)
              << "map " << mp.name << " rank " << r << " row " << f;
    }
  }
}

TEST(HaloPlan, LocalMapsAgreeWithGlobal) {
  Built b = build_quad(8, 8, 3, 2);
  const mesh::MeshDef& m = b.q.mesh;
  for (rank_t r = 0; r < 3; ++r) {
    const RankPlan& rp = b.plan.ranks[static_cast<size_t>(r)];
    const mesh::MapDef& e2n = m.map(b.q.e2n);
    const SetLayout& edges = rp.sets[static_cast<size_t>(b.q.edges)];
    const SetLayout& nodes = rp.sets[static_cast<size_t>(b.q.nodes)];
    const LocalMap& lm = rp.maps[static_cast<size_t>(b.q.e2n)];
    for (lidx_t e = 0; e < edges.exec_end.back(); ++e) {
      const gidx_t ge = edges.local_to_global[static_cast<size_t>(e)];
      for (int k = 0; k < 2; ++k) {
        const lidx_t ln =
            lm.targets[static_cast<size_t>(2 * e + k)];
        ASSERT_NE(ln, kInvalidLocal);
        EXPECT_EQ(nodes.local_to_global[static_cast<size_t>(ln)],
                  e2n.targets[static_cast<size_t>(2 * ge + k)]);
      }
    }
  }
}

TEST(HaloPlan, DeeperPlanExtendsShallowerOne) {
  Built b1 = build_quad(12, 12, 4, 1);
  Built b2 = build_quad(12, 12, 4, 3);
  for (rank_t r = 0; r < 4; ++r) {
    for (mesh::set_id s = 0; s < b1.q.mesh.num_sets(); ++s) {
      const SetLayout& l1 = b1.plan.layout(r, s);
      const SetLayout& l2 = b2.plan.layout(r, s);
      EXPECT_EQ(l1.num_owned, l2.num_owned);
      // Exec layer 1 is identical.
      const auto [b1b, b1e] = l1.exec_layer(1);
      const auto [b2b, b2e] = l2.exec_layer(1);
      ASSERT_EQ(b1e - b1b, b2e - b2b);
      for (lidx_t i = 0; i < b1e - b1b; ++i)
        EXPECT_EQ(l1.local_to_global[static_cast<size_t>(b1b + i)],
                  l2.local_to_global[static_cast<size_t>(b2b + i)]);
    }
  }
}

TEST(HaloPlan, AnnulusPeriodicHalosExist) {
  mesh::Annulus an = mesh::make_annulus(4, 6, 10);
  const partition::Partition part = partition::partition_mesh(
      an.mesh, 6, partition::Kind::RIB, an.nodes);
  HaloPlanOptions opts;
  opts.depth = 2;
  const HaloPlan plan = build_halo_plan(an.mesh, part, opts);
  // At least one rank must import pedges (the periodic seam crosses
  // partition boundaries under RIB on an annular wedge).
  std::int64_t pedge_imports = 0;
  for (rank_t r = 0; r < 6; ++r) {
    const SetLayout& lay = plan.layout(r, an.pedges);
    pedge_imports += lay.exec_end.back() - lay.num_owned;
  }
  EXPECT_GT(pedge_imports, 0);
}

TEST(Renumber, GatherScatterRoundTrip) {
  Built b = build_quad(7, 5, 3, 2);
  const mesh::MeshDef& m = b.q.mesh;
  const gidx_t n = m.set(b.q.nodes).size;
  std::vector<double> global(static_cast<size_t>(2 * n));
  for (size_t i = 0; i < global.size(); ++i)
    global[i] = static_cast<double>(i) * 0.5;

  std::vector<double> out(global.size(), -1.0);
  for (rank_t r = 0; r < 3; ++r) {
    const SetLayout& lay = b.plan.layout(r, b.q.nodes);
    const std::vector<double> local = gather_local(global, 2, lay);
    scatter_owned(local, 2, lay, &out);
  }
  EXPECT_EQ(out, global);
}

TEST(Grouped, PackUnpackRows) {
  std::vector<double> src{0, 1, 2, 3, 4, 5, 6, 7};
  const LIdxVec idx{3, 1};
  op2ca::ByteBuf buf;
  pack_rows(src.data(), 2, idx, &buf);
  EXPECT_EQ(buf.size(), 2 * 2 * sizeof(double));

  std::vector<double> dst(8, 0.0);
  const size_t off = unpack_rows(dst.data(), 2, idx, buf, 0);
  EXPECT_EQ(off, buf.size());
  EXPECT_DOUBLE_EQ(dst[6], 6.0);
  EXPECT_DOUBLE_EQ(dst[7], 7.0);
  EXPECT_DOUBLE_EQ(dst[2], 2.0);
  EXPECT_DOUBLE_EQ(dst[3], 3.0);
  EXPECT_DOUBLE_EQ(dst[0], 0.0);
}

TEST(Grouped, MessageBytesMatchPackedSize) {
  Built b = build_quad(10, 10, 4, 2);
  const RankPlan& rp = b.plan.ranks[0];
  // One dat on nodes (dim 3) synced to depth 2.
  const SetLayout& lay = b.plan.layout(0, b.q.nodes);
  std::vector<double> data(static_cast<size_t>(lay.total) * 3, 1.0);
  DatSyncSpec spec;
  spec.set = b.q.nodes;
  spec.dim = 3;
  spec.depth = 2;
  spec.data = data.data();
  const auto bytes = grouped_message_bytes(rp, {&spec, 1});
  for (const auto& [q, n] : bytes) {
    const auto buf = pack_grouped(rp, q, {&spec, 1});
    EXPECT_EQ(static_cast<std::int64_t>(buf.size()), n);
  }
}

TEST(HaloPlan, PromotedElementsStayInLevelOneSyncLists) {
  // Regression test: on meshes where a set is both map source and target
  // (multigrid nodes), a nonexec-layer-1 element can be promoted to a
  // deeper exec layer. Every element READ by a layer-1 exec iteration
  // must still be covered by a level-1 exchange: it must be owned, in
  // exec layer 1, or listed in some level-1 import list (possibly as a
  // promotion alias pointing into the exec segment).
  mesh::MultigridHex mg = mesh::make_multigrid_hex(8, 8, 8, 2);
  const partition::Partition part = partition::partition_mesh(
      mg.mesh, 5, partition::Kind::KWay, mg.levels[0].nodes);
  HaloPlanOptions opts;
  opts.depth = 2;
  const HaloPlan plan = build_halo_plan(mg.mesh, part, opts);

  for (rank_t r = 0; r < 5; ++r) {
    const RankPlan& rp = plan.ranks[static_cast<size_t>(r)];
    // Collect all local indices deliverable by a level-1 exchange.
    std::vector<std::set<lidx_t>> level1(
        static_cast<size_t>(mg.mesh.num_sets()));
    for (mesh::set_id s = 0; s < mg.mesh.num_sets(); ++s) {
      const NeighborLists& nl = rp.lists[static_cast<size_t>(s)];
      for (const auto* tab : {&nl.imp_exec, &nl.imp_nonexec})
        for (const auto& [q, layers] : *tab)
          for (lidx_t i : layers[0])
            level1[static_cast<size_t>(s)].insert(i);
    }
    for (mesh::map_id m = 0; m < mg.mesh.num_maps(); ++m) {
      const mesh::MapDef& mp = mg.mesh.map(m);
      const SetLayout& flay = rp.sets[static_cast<size_t>(mp.from)];
      const SetLayout& tlay = rp.sets[static_cast<size_t>(mp.to)];
      const LocalMap& lm = rp.maps[static_cast<size_t>(m)];
      const auto [b, e] = flay.exec_layer(1);
      for (lidx_t f = b; f < e; ++f) {
        for (int k = 0; k < mp.arity; ++k) {
          const lidx_t t = lm.targets[static_cast<size_t>(f) *
                                          static_cast<size_t>(mp.arity) +
                                      static_cast<size_t>(k)];
          ASSERT_NE(t, kInvalidLocal);
          const bool covered =
              t < tlay.num_owned ||
              (t >= tlay.exec_end[0] && t < tlay.exec_end[1]) ||
              level1[static_cast<size_t>(mp.to)].count(t) != 0;
          EXPECT_TRUE(covered)
              << "rank " << r << " map " << mp.name << " layer-1 source "
              << f << " reads uncovered target " << t;
        }
      }
    }
  }
}

TEST(Grouped, UnpackRejectsWrongSize) {
  Built b = build_quad(6, 6, 2, 1);
  const RankPlan& rp = b.plan.ranks[0];
  const SetLayout& lay = b.plan.layout(0, b.q.nodes);
  std::vector<double> data(static_cast<size_t>(lay.total), 0.0);
  DatSyncSpec spec{b.q.nodes, 1, 1, data.data()};
  ASSERT_FALSE(rp.neighbors.empty());
  const rank_t q = *rp.neighbors.begin();
  op2ca::ByteBuf bogus(3);  // not a multiple of a row
  EXPECT_THROW(unpack_grouped(rp, q, {&spec, 1}, bogus), Error);
}

}  // namespace
}  // namespace op2ca::halo
