// Halo-plan construction invariants: layouts, layer nesting,
// import/export symmetry, local map completeness, dat gather/scatter,
// grouped message packing, and pinned hashes of the full plan output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/core/chain.hpp"
#include "op2ca/core/slice.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/halo/renumber.hpp"
#include "op2ca/mesh/annulus.hpp"
#include "op2ca/mesh/hex3d.hpp"
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
    std::vector<double> local(static_cast<size_t>(2 * lay.total));
    gather_local(global, 2, lay, local.data());
    scatter_owned(local.data(), 2, lay, &out);
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

// ---------------------------------------------------------------------------
// Pinned output. FNV-1a over every field build_halo_plan returns, and over
// the needed_exec_lists of the MG-CFD synthetic chain and the six Hydra
// chains, for quad2d / hex3d / MG-CFD multigrid / annulus meshes crossed
// with Block / RIB / KWay, 1 / 2 / 3 / 5 / 9 ranks and depths 1 / 2 / 4.
// The 9-rank rows give every plan worker several ranks. On a mismatch
// the test prints the whole table in kPinned's syntax; regenerate it
// only for a deliberate change of the plan.

class Fnv {
public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 1099511628211ull;
    }
  }
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t hash_plan(const HaloPlan& plan) {
  Fnv f;
  f.pod(plan.nranks);
  f.pod(plan.depth);
  f.pod(plan.has_local_maps);
  f.pod(plan.ranks.size());
  auto lists = [&](const std::map<rank_t, std::vector<LIdxVec>>& tab) {
    f.pod(tab.size());
    for (const auto& [q, layers] : tab) {
      f.pod(q);
      f.pod(layers.size());
      for (const LIdxVec& l : layers) f.vec(l);
    }
  };
  for (const RankPlan& rp : plan.ranks) {
    f.pod(rp.sets.size());
    for (const SetLayout& lay : rp.sets) {
      f.pod(lay.num_owned);
      f.vec(lay.exec_end);
      f.vec(lay.nonexec_end);
      f.pod(lay.total);
      f.vec(lay.local_to_global);
      f.vec(lay.owned_din);
    }
    f.pod(rp.lists.size());
    for (const NeighborLists& nl : rp.lists) {
      lists(nl.exp_exec);
      lists(nl.exp_nonexec);
      lists(nl.imp_exec);
      lists(nl.imp_nonexec);
    }
    f.pod(rp.maps.size());
    for (const LocalMap& lm : rp.maps) {
      f.pod(lm.arity);
      f.vec(lm.targets);
    }
    f.pod(rp.neighbors.size());
    for (rank_t q : rp.neighbors) f.pod(q);
  }
  return f.value();
}

struct PinnedMesh {
  std::string name;
  const mesh::MeshDef* mesh;
  mesh::set_id seed;
  std::vector<core::ChainSpec> chains;
};

std::uint64_t hash_slices(const PinnedMesh& pm, const HaloPlan& plan) {
  Fnv f;
  for (const core::ChainSpec& spec : pm.chains) {
    const core::ChainAnalysis an = core::inspect_chain(*pm.mesh, spec);
    for (const RankPlan& rp : plan.ranks)
      for (const LIdxVec& l :
           core::needed_exec_lists(*pm.mesh, rp, plan.depth, spec, an))
        f.vec(l);
  }
  return f.value();
}

struct PinnedRow {
  const char* name;
  std::uint64_t plan;
  std::uint64_t slices;
};

// clang-format off
constexpr PinnedRow kPinned[] = {
    {"quad2d/block/r1/d1", 0x288530d5c5f820c1ull, 0xcbf29ce484222325ull},
    {"quad2d/block/r1/d2", 0xaa697ec6bedc5714ull, 0xcbf29ce484222325ull},
    {"quad2d/block/r1/d4", 0x2228ac2f8b719506ull, 0xcbf29ce484222325ull},
    {"quad2d/block/r2/d1", 0xd2b3fd37676f35aaull, 0xcbf29ce484222325ull},
    {"quad2d/block/r2/d2", 0x47b04977a58683a0ull, 0xcbf29ce484222325ull},
    {"quad2d/block/r2/d4", 0xa80617d26791201eull, 0xcbf29ce484222325ull},
    {"quad2d/block/r3/d1", 0x7592f91cc35563beull, 0xcbf29ce484222325ull},
    {"quad2d/block/r3/d2", 0x90147aa94f54cef0ull, 0xcbf29ce484222325ull},
    {"quad2d/block/r3/d4", 0x80912f744a60d7f8ull, 0xcbf29ce484222325ull},
    {"quad2d/block/r5/d1", 0x119ef61a6e05210dull, 0xcbf29ce484222325ull},
    {"quad2d/block/r5/d2", 0xb01a5331af4a51c9ull, 0xcbf29ce484222325ull},
    {"quad2d/block/r5/d4", 0x714f9a19c58e776cull, 0xcbf29ce484222325ull},
    {"quad2d/block/r9/d1", 0x57d7ff6fa2d5c1ebull, 0xcbf29ce484222325ull},
    {"quad2d/block/r9/d2", 0xc768794ae2fab26eull, 0xcbf29ce484222325ull},
    {"quad2d/block/r9/d4", 0xb839ca4c1186a6baull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r1/d1", 0x288530d5c5f820c1ull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r1/d2", 0xaa697ec6bedc5714ull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r1/d4", 0x2228ac2f8b719506ull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r2/d1", 0x3d0baad056a5addcull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r2/d2", 0x474fdf1c2a11488aull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r2/d4", 0x7db85659d9c11b80ull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r3/d1", 0x1e2c8f0e37898610ull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r3/d2", 0xa12fea44544ab12aull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r3/d4", 0x3c827ad986cab75dull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r5/d1", 0xc43d176e00c54541ull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r5/d2", 0x3de0b0bd277097f1ull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r5/d4", 0x9dff2a908e3bd6c6ull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r9/d1", 0x098f8914aeacc8eeull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r9/d2", 0xae7c33a1aad9db2eull, 0xcbf29ce484222325ull},
    {"quad2d/rib/r9/d4", 0x1dbb4954a3ab91e9ull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r1/d1", 0x288530d5c5f820c1ull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r1/d2", 0xaa697ec6bedc5714ull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r1/d4", 0x2228ac2f8b719506ull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r2/d1", 0xd2b3fd37676f35aaull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r2/d2", 0x47b04977a58683a0ull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r2/d4", 0xa80617d26791201eull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r3/d1", 0x7592f91cc35563beull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r3/d2", 0x90147aa94f54cef0ull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r3/d4", 0x80912f744a60d7f8ull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r5/d1", 0xb3685e2589948b91ull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r5/d2", 0x03b945c4f70acfdcull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r5/d4", 0x20279bf560dd2506ull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r9/d1", 0xb7cb80a74039411full, 0xcbf29ce484222325ull},
    {"quad2d/kway/r9/d2", 0xf1efb407c76f1e1aull, 0xcbf29ce484222325ull},
    {"quad2d/kway/r9/d4", 0xf7b953f9954e8d02ull, 0xcbf29ce484222325ull},
    {"hex3d/block/r1/d1", 0xf60cb0cb096f1e5cull, 0xcbf29ce484222325ull},
    {"hex3d/block/r1/d2", 0x4800f10bebf5209dull, 0xcbf29ce484222325ull},
    {"hex3d/block/r1/d4", 0x636c3e1b8d7020ebull, 0xcbf29ce484222325ull},
    {"hex3d/block/r2/d1", 0xe9dc29e091f282bbull, 0xcbf29ce484222325ull},
    {"hex3d/block/r2/d2", 0x349d5add71b9de13ull, 0xcbf29ce484222325ull},
    {"hex3d/block/r2/d4", 0x2a509636093ea66aull, 0xcbf29ce484222325ull},
    {"hex3d/block/r3/d1", 0x27c8d589e8f691d0ull, 0xcbf29ce484222325ull},
    {"hex3d/block/r3/d2", 0x0e2915709cc24f7full, 0xcbf29ce484222325ull},
    {"hex3d/block/r3/d4", 0xe9567279c5dcdd8cull, 0xcbf29ce484222325ull},
    {"hex3d/block/r5/d1", 0x547adb41674a6eabull, 0xcbf29ce484222325ull},
    {"hex3d/block/r5/d2", 0xa4f75bffae8acc4full, 0xcbf29ce484222325ull},
    {"hex3d/block/r5/d4", 0x4a17a26e6875373aull, 0xcbf29ce484222325ull},
    {"hex3d/block/r9/d1", 0x295fc7978d027bfeull, 0xcbf29ce484222325ull},
    {"hex3d/block/r9/d2", 0xa4ed4bdee286a8e3ull, 0xcbf29ce484222325ull},
    {"hex3d/block/r9/d4", 0x96c5423c5a917d85ull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r1/d1", 0xf60cb0cb096f1e5cull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r1/d2", 0x4800f10bebf5209dull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r1/d4", 0x636c3e1b8d7020ebull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r2/d1", 0x10f84c0d7b043160ull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r2/d2", 0xf8fd0cae33655cadull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r2/d4", 0x9cc0111b9c1e6d2bull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r3/d1", 0x99ba8fc350dc67f1ull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r3/d2", 0x196a085f36af0c78ull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r3/d4", 0xf524bb7da1ef16a7ull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r5/d1", 0x4b55ac6bd2a65041ull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r5/d2", 0x2de843af4f8a326bull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r5/d4", 0xeede07b34b4230beull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r9/d1", 0x55723a5dca96904bull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r9/d2", 0xeb146c65edaba063ull, 0xcbf29ce484222325ull},
    {"hex3d/rib/r9/d4", 0x696cc3b0d8a873f6ull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r1/d1", 0xf60cb0cb096f1e5cull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r1/d2", 0x4800f10bebf5209dull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r1/d4", 0x636c3e1b8d7020ebull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r2/d1", 0x5b94a32aee9b3882ull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r2/d2", 0x445875a54680f45dull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r2/d4", 0xde14a0360fca918bull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r3/d1", 0xa9f37ea389b8624dull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r3/d2", 0x8d41f4aadf6be566ull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r3/d4", 0x98d9736b1fb25d0bull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r5/d1", 0xf8d161ab1e809c68ull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r5/d2", 0x931f7f0891ae6753ull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r5/d4", 0x3d3793a85c2794ffull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r9/d1", 0x3467770289895648ull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r9/d2", 0x9026e6e51cb1b599ull, 0xcbf29ce484222325ull},
    {"hex3d/kway/r9/d4", 0x47d6bede91b672a1ull, 0xcbf29ce484222325ull},
    {"mgcfd/block/r1/d1", 0xe592c1d6347bb0e0ull, 0x0c8210784d8af5a5ull},
    {"mgcfd/block/r1/d2", 0xe36dc9cf414c9b79ull, 0x0c8210784d8af5a5ull},
    {"mgcfd/block/r1/d4", 0x9e1b951d1a4e4ed7ull, 0x0c8210784d8af5a5ull},
    {"mgcfd/block/r2/d1", 0xe830d7231c2f7465ull, 0x1a34fe9c6076da05ull},
    {"mgcfd/block/r2/d2", 0x769c2bee55bc8364ull, 0x8f693277e91f93c5ull},
    {"mgcfd/block/r2/d4", 0x9589c0573a16b495ull, 0x8f693277e91f93c5ull},
    {"mgcfd/block/r3/d1", 0x981501872f1103d4ull, 0xa6ac3385483411adull},
    {"mgcfd/block/r3/d2", 0x02081daa16086959ull, 0xa98d154daa64a481ull},
    {"mgcfd/block/r3/d4", 0x0ff17b354c411774ull, 0xa98d154daa64a481ull},
    {"mgcfd/block/r5/d1", 0x452c151ccc93d0d2ull, 0xba2f02279d6d6ba5ull},
    {"mgcfd/block/r5/d2", 0x76f4736d38c20cbeull, 0x7c444fc00e132905ull},
    {"mgcfd/block/r5/d4", 0xbeda0a9ef903008eull, 0x7c444fc00e132905ull},
    {"mgcfd/block/r9/d1", 0xc8af3d59ca9c966eull, 0x57245b31cd5fd51dull},
    {"mgcfd/block/r9/d2", 0x4af9d276cc7b2fb6ull, 0x8274966913c91205ull},
    {"mgcfd/block/r9/d4", 0x816f01ee0b9bbfe9ull, 0x8274966913c91205ull},
    {"mgcfd/rib/r1/d1", 0xe592c1d6347bb0e0ull, 0x0c8210784d8af5a5ull},
    {"mgcfd/rib/r1/d2", 0xe36dc9cf414c9b79ull, 0x0c8210784d8af5a5ull},
    {"mgcfd/rib/r1/d4", 0x9e1b951d1a4e4ed7ull, 0x0c8210784d8af5a5ull},
    {"mgcfd/rib/r2/d1", 0x774dd0be1e207de6ull, 0x029f1b80d5e11e45ull},
    {"mgcfd/rib/r2/d2", 0x7818e2d18a705850ull, 0x75bec849e941f835ull},
    {"mgcfd/rib/r2/d4", 0x4756c071a7f1672eull, 0x75bec849e941f835ull},
    {"mgcfd/rib/r3/d1", 0xc965ab941e0c9d80ull, 0xb5a6850d4549e265ull},
    {"mgcfd/rib/r3/d2", 0xa04256918aa58eceull, 0xb69a8049cb4e5615ull},
    {"mgcfd/rib/r3/d4", 0xc8f0fa92a8474923ull, 0xb69a8049cb4e5615ull},
    {"mgcfd/rib/r5/d1", 0x17356f103fee1e2bull, 0xda84fe1138295615ull},
    {"mgcfd/rib/r5/d2", 0x433a1690813d5c40ull, 0xfad5bdd1bc97c1a9ull},
    {"mgcfd/rib/r5/d4", 0x6d9e9ff2c0a7c7b3ull, 0xfad5bdd1bc97c1a9ull},
    {"mgcfd/rib/r9/d1", 0x451126a35698bf4cull, 0xf01b0ad5d40ac975ull},
    {"mgcfd/rib/r9/d2", 0x59b7be8496e6da26ull, 0xad72ee92b9e02791ull},
    {"mgcfd/rib/r9/d4", 0xc20147a870e395a5ull, 0xad72ee92b9e02791ull},
    {"mgcfd/kway/r1/d1", 0xe592c1d6347bb0e0ull, 0x0c8210784d8af5a5ull},
    {"mgcfd/kway/r1/d2", 0xe36dc9cf414c9b79ull, 0x0c8210784d8af5a5ull},
    {"mgcfd/kway/r1/d4", 0x9e1b951d1a4e4ed7ull, 0x0c8210784d8af5a5ull},
    {"mgcfd/kway/r2/d1", 0xe830d7231c2f7465ull, 0x1a34fe9c6076da05ull},
    {"mgcfd/kway/r2/d2", 0x769c2bee55bc8364ull, 0x8f693277e91f93c5ull},
    {"mgcfd/kway/r2/d4", 0x9589c0573a16b495ull, 0x8f693277e91f93c5ull},
    {"mgcfd/kway/r3/d1", 0x56738869a91f1918ull, 0x19c92200607508edull},
    {"mgcfd/kway/r3/d2", 0xbca68273e2268a12ull, 0x237381a6a98eacc9ull},
    {"mgcfd/kway/r3/d4", 0x15bf716d172525d7ull, 0x237381a6a98eacc9ull},
    {"mgcfd/kway/r5/d1", 0xe55ccd77469ba3feull, 0x16eb9cb5069b7da5ull},
    {"mgcfd/kway/r5/d2", 0xe5f40a7a89e7df3eull, 0x559687832cd22f9dull},
    {"mgcfd/kway/r5/d4", 0xaf966e848921057full, 0x559687832cd22f9dull},
    {"mgcfd/kway/r9/d1", 0x9cb77319f98e73f6ull, 0x9b0669e421cc9b75ull},
    {"mgcfd/kway/r9/d2", 0x0e8c14f5394d5f99ull, 0x675d4361a47798e1ull},
    {"mgcfd/kway/r9/d4", 0xacdfd45a94654be4ull, 0x675d4361a47798e1ull},
    {"annulus/block/r1/d1", 0x88eaac8f94e7a8faull, 0x81b169c331cabfa5ull},
    {"annulus/block/r1/d2", 0xbff06a153237f3bfull, 0x81b169c331cabfa5ull},
    {"annulus/block/r1/d4", 0x0e177c11cffe5b35ull, 0x81b169c331cabfa5ull},
    {"annulus/block/r2/d1", 0xd05bdf63e45e5cafull, 0xea063e8620b680c1ull},
    {"annulus/block/r2/d2", 0x2f2b70778e3278fcull, 0x8a778d6f29a3ed7full},
    {"annulus/block/r2/d4", 0xc7f9fc14f7a1f268ull, 0x8a778d6f29a3ed7full},
    {"annulus/block/r3/d1", 0x19a8b94634e6f39eull, 0x0092493e9dc3eb85ull},
    {"annulus/block/r3/d2", 0xa6fcf6d42079b1a6ull, 0x10b7a45295577086ull},
    {"annulus/block/r3/d4", 0x8ab5ccc520a7749cull, 0x10b7a45295577086ull},
    {"annulus/block/r5/d1", 0xfb4ce1fc690fea17ull, 0x26fc848be88447c5ull},
    {"annulus/block/r5/d2", 0x8c356967f17b235cull, 0x91b4c793a44dadf0ull},
    {"annulus/block/r5/d4", 0x2176d840569b6d88ull, 0x91b4c793a44dadf0ull},
    {"annulus/block/r9/d1", 0xb2f7d28797393208ull, 0x4565e3d967939c19ull},
    {"annulus/block/r9/d2", 0x1a1991dea914bf37ull, 0x6019a512ab031fd8ull},
    {"annulus/block/r9/d4", 0xa2de886cedea8b03ull, 0x6019a512ab031fd8ull},
    {"annulus/rib/r1/d1", 0x88eaac8f94e7a8faull, 0x81b169c331cabfa5ull},
    {"annulus/rib/r1/d2", 0xbff06a153237f3bfull, 0x81b169c331cabfa5ull},
    {"annulus/rib/r1/d4", 0x0e177c11cffe5b35ull, 0x81b169c331cabfa5ull},
    {"annulus/rib/r2/d1", 0xce2fbb722f35ab22ull, 0xd4769fab80315361ull},
    {"annulus/rib/r2/d2", 0x52d2ed06d6dc54e4ull, 0x0350b33ff99d6f24ull},
    {"annulus/rib/r2/d4", 0xf08fa9aaa614c040ull, 0x0350b33ff99d6f24ull},
    {"annulus/rib/r3/d1", 0xd7c049cfbf671a62ull, 0x361dcf3a8c952aa1ull},
    {"annulus/rib/r3/d2", 0xc2e4d9d8090850e6ull, 0x71986e57faf68230ull},
    {"annulus/rib/r3/d4", 0x896c3b26c2175304ull, 0x71986e57faf68230ull},
    {"annulus/rib/r5/d1", 0x8acda3b63b3e20f5ull, 0xf6d0f364e08fd995ull},
    {"annulus/rib/r5/d2", 0x81f2ede6001d5e20ull, 0x649c0107bfbec587ull},
    {"annulus/rib/r5/d4", 0xd8da6672baa8a20dull, 0x649c0107bfbec587ull},
    {"annulus/rib/r9/d1", 0xf141e6098c393348ull, 0x3fc593605b361faaull},
    {"annulus/rib/r9/d2", 0x0ce43b769b1e8115ull, 0x1cf5ae39c0792941ull},
    {"annulus/rib/r9/d4", 0x44762dae51a3b40full, 0x1cf5ae39c0792941ull},
    {"annulus/kway/r1/d1", 0x88eaac8f94e7a8faull, 0x81b169c331cabfa5ull},
    {"annulus/kway/r1/d2", 0xbff06a153237f3bfull, 0x81b169c331cabfa5ull},
    {"annulus/kway/r1/d4", 0x0e177c11cffe5b35ull, 0x81b169c331cabfa5ull},
    {"annulus/kway/r2/d1", 0x941cbe6402a3b54aull, 0x71cce66ee5e494d5ull},
    {"annulus/kway/r2/d2", 0xd53fb462009d13fcull, 0xb17834878aa007c3ull},
    {"annulus/kway/r2/d4", 0x0e3e3cffc0974e39ull, 0xb17834878aa007c3ull},
    {"annulus/kway/r3/d1", 0x6c0e3bbb1e44a308ull, 0xeca4247f96b5f3adull},
    {"annulus/kway/r3/d2", 0x5df53e03ff692826ull, 0x2c35bfe07cd59962ull},
    {"annulus/kway/r3/d4", 0x359d044bb1793885ull, 0x2c35bfe07cd59962ull},
    {"annulus/kway/r5/d1", 0xfb4ce1fc690fea17ull, 0x26fc848be88447c5ull},
    {"annulus/kway/r5/d2", 0x8c356967f17b235cull, 0x91b4c793a44dadf0ull},
    {"annulus/kway/r5/d4", 0x2176d840569b6d88ull, 0x91b4c793a44dadf0ull},
    {"annulus/kway/r9/d1", 0x421e43229a35889eull, 0xf4a20edf5ffdfc0eull},
    {"annulus/kway/r9/d2", 0x3e450d33064c5bb3ull, 0xb4402b2a2227ce67ull},
    {"annulus/kway/r9/d4", 0x5ec9eebb5834fc1cull, 0xb4402b2a2227ce67ull},
};
// clang-format on

TEST(HaloPlan, OutputPinned) {
  const mesh::Quad2D quad = mesh::make_quad2d(24, 18);
  const mesh::Hex3D hex = mesh::make_hex3d(8, 7, 6);
  const apps::mgcfd::Problem mg = apps::mgcfd::build_problem(2500, 2);
  const apps::hydra::Problem hy = apps::hydra::build_problem(2500);
  std::vector<core::ChainSpec> hydra_chains;
  const auto hydra_specs = apps::hydra::chain_specs(hy);
  for (const std::string& name : apps::hydra::chain_names())
    hydra_chains.push_back(hydra_specs.at(name));
  const std::vector<PinnedMesh> meshes = {
      {"quad2d", &quad.mesh, quad.nodes, {}},
      {"hex3d", &hex.mesh, hex.nodes, {}},
      {"mgcfd", &mg.mg.mesh, mg.mg.levels[0].nodes,
       {apps::mgcfd::synthetic_chain_spec(mg, 2)}},
      {"annulus", &hy.an.mesh, hy.an.nodes, hydra_chains},
  };

  struct Row {
    std::string name;
    std::uint64_t plan, slices;
  };
  std::vector<Row> rows;
  for (const PinnedMesh& pm : meshes) {
    for (partition::Kind kind : {partition::Kind::Block,
                                 partition::Kind::RIB,
                                 partition::Kind::KWay}) {
      for (int nranks : {1, 2, 3, 5, 9}) {
        const partition::Partition part =
            partition::partition_mesh(*pm.mesh, nranks, kind, pm.seed);
        for (int depth : {1, 2, 4}) {
          HaloPlanOptions opts;
          opts.depth = depth;
          const HaloPlan plan = build_halo_plan(*pm.mesh, part, opts);
          rows.push_back({pm.name + "/" + partition::kind_name(kind) + "/r" +
                              std::to_string(nranks) + "/d" +
                              std::to_string(depth),
                          hash_plan(plan), hash_slices(pm, plan)});
        }
      }
    }
  }

  bool same = rows.size() == std::size(kPinned);
  for (std::size_t i = 0; same && i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].name, kPinned[i].name);
    EXPECT_EQ(rows[i].plan, kPinned[i].plan) << rows[i].name;
    EXPECT_EQ(rows[i].slices, kPinned[i].slices) << rows[i].name;
    same = rows[i].name == kPinned[i].name &&
           rows[i].plan == kPinned[i].plan &&
           rows[i].slices == kPinned[i].slices;
  }
  if (!same) {
    ADD_FAILURE() << "plan output differs from kPinned; actual table:";
    for (const Row& r : rows)
      std::printf("    {\"%s\", 0x%016llxull, 0x%016llxull},\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.plan),
                  static_cast<unsigned long long>(r.slices));
  }

  // The same plan built twice in one process hashes the same.
  const partition::Partition part = partition::partition_mesh(
      hy.an.mesh, 9, partition::Kind::KWay, hy.an.nodes);
  HaloPlanOptions opts;
  opts.depth = 4;
  EXPECT_EQ(hash_plan(build_halo_plan(hy.an.mesh, part, opts)),
            hash_plan(build_halo_plan(hy.an.mesh, part, opts)));
}

}  // namespace
}  // namespace op2ca::halo
