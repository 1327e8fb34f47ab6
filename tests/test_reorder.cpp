// Property tests for mesh renumbering (mesh/reorder): permutation
// plumbing, the ordering algorithms, the shared relabelling behind
// scramble_mesh and renumber, block-aware colouring, and the mesh-level
// invariants — renumbered meshes cut the reuse proxies of a scrambled
// mesh, and SFC without a geometric path fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "op2ca/mesh/colouring.hpp"
#include "op2ca/mesh/hex3d.hpp"
#include "op2ca/mesh/reorder.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/rng.hpp"

namespace op2ca::mesh {
namespace {

// -- Permutation plumbing. ----------------------------------------------

LIdxVec shuffled_identity(lidx_t n, std::uint64_t seed) {
  LIdxVec v(static_cast<std::size_t>(n));
  for (lidx_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  Rng rng(seed);
  for (lidx_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.next_int(0, i));
    std::swap(v[static_cast<std::size_t>(i)], v[j]);
  }
  return v;
}

TEST(Permutation, MakeValidatesBijection) {
  const Permutation p = make_permutation(shuffled_identity(100, 7));
  EXPECT_TRUE(permutation_valid(p));
  EXPECT_EQ(p.size(), 100);
  for (lidx_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.old_of_new[static_cast<std::size_t>(
                  p.new_of_old[static_cast<std::size_t>(i)])],
              i);
  }

  EXPECT_THROW(make_permutation(LIdxVec{0, 0, 1}), Error);  // duplicate
  EXPECT_THROW(make_permutation(LIdxVec{0, 3, 1}), Error);  // out of range
  EXPECT_THROW(make_permutation(LIdxVec{0, -1, 1}), Error);

  Permutation broken = make_permutation(LIdxVec{1, 2, 0});
  std::swap(broken.old_of_new[0], broken.old_of_new[1]);
  EXPECT_FALSE(permutation_valid(broken));
}

TEST(Permutation, IdentityDetection) {
  EXPECT_TRUE(make_permutation(LIdxVec{0, 1, 2}).is_identity());
  EXPECT_FALSE(make_permutation(LIdxVec{0, 2, 1}).is_identity());
  EXPECT_TRUE(Permutation{}.empty());
}

TEST(Permutation, RowsRoundTrip) {
  const Permutation p = make_permutation(shuffled_identity(64, 11));
  std::vector<double> data(64 * 3);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<double>(i) * 0.5;
  const std::vector<double> permuted = permute_rows(p.new_of_old, 3, data);
  EXPECT_NE(permuted, data);
  EXPECT_EQ(unpermute_rows(p.new_of_old, 3, permuted), data);
  // Row i of the input lands at row new_of_old[i].
  for (lidx_t i = 0; i < p.size(); ++i) {
    const auto dst = static_cast<std::size_t>(
        p.new_of_old[static_cast<std::size_t>(i)]);
    EXPECT_EQ(permuted[dst * 3], data[static_cast<std::size_t>(i) * 3]);
  }
}

// -- Ordering algorithms. -----------------------------------------------

TEST(Rcm, RecoversPathBandwidth) {
  // A path graph under a scrambled labelling: lbl(i) = i * 37 mod 64
  // (37 coprime to 64, so lbl is a bijection). RCM from the min-degree
  // (endpoint) seed must recover bandwidth 1 — consecutive path nodes at
  // consecutive indices.
  const lidx_t n = 64;
  const auto lbl = [](lidx_t i) { return (i * 37) % 64; };
  std::vector<std::pair<lidx_t, lidx_t>> edges;
  for (lidx_t i = 0; i + 1 < n; ++i) {
    edges.emplace_back(lbl(i), lbl(i + 1));
    edges.emplace_back(lbl(i + 1), lbl(i));
  }
  const LocalCsr csr = csr_from_edges(n, edges);
  const Permutation p = rcm_order(csr);
  ASSERT_TRUE(permutation_valid(p));
  lidx_t bandwidth = 0;
  for (lidx_t i = 0; i + 1 < n; ++i) {
    const lidx_t a = p.new_of_old[static_cast<std::size_t>(lbl(i))];
    const lidx_t b = p.new_of_old[static_cast<std::size_t>(lbl(i + 1))];
    bandwidth = std::max(bandwidth, std::abs(a - b));
  }
  EXPECT_EQ(bandwidth, 1);
}

TEST(Sfc, ClustersGridNeighbours) {
  // 32x32 grid stored in a fully scrambled index order (true grid
  // coordinates attached to each element): Morton order must bring
  // geometric neighbours far closer in index space than the scrambled
  // layout leaves them.
  const lidx_t side = 32;
  const lidx_t n = side * side;
  const LIdxVec sl = shuffled_identity(n, 5);  // storage index per cell
  std::vector<double> coords(static_cast<std::size_t>(n) * 2);
  for (lidx_t y = 0; y < side; ++y) {
    for (lidx_t x = 0; x < side; ++x) {
      const auto e = static_cast<std::size_t>(
          sl[static_cast<std::size_t>(y * side + x)]);
      coords[e * 2 + 0] = static_cast<double>(x);
      coords[e * 2 + 1] = static_cast<double>(y);
    }
  }
  const Permutation p = sfc_order(coords, 2, n);
  ASSERT_TRUE(permutation_valid(p));
  // Mean |index difference| over geometric neighbour pairs, scrambled
  // storage vs after the SFC permutation.
  const auto score = [&](bool reordered) {
    double sum = 0.0;
    std::size_t count = 0;
    const auto at = [&](lidx_t x, lidx_t y) {
      const lidx_t e = sl[static_cast<std::size_t>(y * side + x)];
      return reordered ? p.new_of_old[static_cast<std::size_t>(e)] : e;
    };
    for (lidx_t y = 0; y < side; ++y) {
      for (lidx_t x = 0; x < side; ++x) {
        if (x + 1 < side) {
          sum += std::abs(at(x, y) - at(x + 1, y));
          ++count;
        }
        if (y + 1 < side) {
          sum += std::abs(at(x, y) - at(x, y + 1));
          ++count;
        }
      }
    }
    return sum / static_cast<double>(count);
  };
  EXPECT_LT(score(true), 0.25 * score(false));
}

TEST(OrderingQuality, DetectsLocalOrder) {
  // Path-edge map e -> (e, e+1): in order, every gather hops by one
  // element and each target is re-touched on the very next iteration.
  const lidx_t n = 100;
  LIdxVec ordered(static_cast<std::size_t>(n) * 2);
  for (lidx_t e = 0; e < n; ++e) {
    ordered[static_cast<std::size_t>(e) * 2 + 0] = e;
    ordered[static_cast<std::size_t>(e) * 2 + 1] = e + 1;
  }
  const OrderingQuality good =
      ordering_quality(ordered.data(), 2, n, n + 1);
  EXPECT_NEAR(good.gather_span, 1.0, 1e-12);
  EXPECT_NEAR(good.reuse_gap, 1.0, 1e-12);

  // The same edges visited in scrambled order: both proxies blow up.
  const Permutation p = make_permutation(shuffled_identity(n, 3));
  const std::vector<lidx_t> scrambled = permute_rows(p.new_of_old, 2, ordered);
  const OrderingQuality bad =
      ordering_quality(scrambled.data(), 2, n, n + 1);
  EXPECT_GT(bad.gather_span, 4.0 * good.gather_span);
  EXPECT_GT(bad.reuse_gap, 4.0 * good.reuse_gap);
}

// -- scramble_mesh and renumber. ----------------------------------------

TEST(ScrambleMesh, RelabelsConsistently) {
  // scramble_mesh and renumber share one relabelling: check it on the
  // scramble of the natural mesh and on each renumbering of a scramble.
  const Hex3D h = make_hex3d(4, 4, 4);
  const MeshDef scrambled = scramble_mesh(h.mesh, 7);
  const ReorderKind kinds[] = {ReorderKind::RCM, ReorderKind::SFC,
                               ReorderKind::Auto};
  for (int which = 0; which < 4; ++which) {
    const MeshDef& in = which == 0 ? h.mesh : scrambled;
    std::vector<GIdxVec> perms;
    const MeshDef out = which == 0 ? scramble_mesh(in, 42, &perms)
                                   : renumber(in, kinds[which - 1], &perms);
    ASSERT_EQ(static_cast<int>(perms.size()), in.num_sets());
    ASSERT_EQ(out.num_sets(), in.num_sets());

    // Each per-set perm is a bijection and at least one is non-trivial.
    bool moved = false;
    for (int s = 0; s < in.num_sets(); ++s) {
      const auto& p = perms[static_cast<std::size_t>(s)];
      ASSERT_EQ(static_cast<gidx_t>(p.size()), in.set(s).size);
      std::vector<bool> seen(p.size(), false);
      for (const gidx_t g : p) {
        ASSERT_GE(g, 0);
        ASSERT_LT(g, static_cast<gidx_t>(p.size()));
        ASSERT_FALSE(seen[static_cast<std::size_t>(g)]);
        seen[static_cast<std::size_t>(g)] = true;
      }
      for (std::size_t i = 0; i < p.size(); ++i)
        if (p[i] != static_cast<gidx_t>(i)) moved = true;
    }
    EXPECT_TRUE(moved);

    // Maps commute with the relabelling: row e of the old map appears as
    // row perm_from[e] of the new map with perm_to applied to each target.
    for (int m = 0; m < in.num_maps(); ++m) {
      const MapDef& om = in.map(m);
      const MapDef& nm = out.map(m);
      const auto& pf = perms[static_cast<std::size_t>(om.from)];
      const auto& pt = perms[static_cast<std::size_t>(om.to)];
      for (gidx_t e = 0; e < in.set(om.from).size; ++e) {
        const auto ne =
            static_cast<std::size_t>(pf[static_cast<std::size_t>(e)]);
        for (int k = 0; k < om.arity; ++k) {
          const gidx_t old_t =
              om.targets[static_cast<std::size_t>(e) * om.arity + k];
          EXPECT_EQ(nm.targets[ne * static_cast<std::size_t>(nm.arity) + k],
                    pt[static_cast<std::size_t>(old_t)]);
        }
      }
    }

    // Dats move with their rows (coords stay attached to the right node).
    const DatDef& oc = in.dat(h.coords);
    const DatDef& nc = out.dat(h.coords);
    const auto& pn = perms[static_cast<std::size_t>(oc.set)];
    for (std::size_t i = 0; i < pn.size(); ++i) {
      const auto ni = static_cast<std::size_t>(pn[i]);
      for (int c = 0; c < oc.dim; ++c)
        EXPECT_EQ(nc.data[ni * oc.dim + c], oc.data[i * oc.dim + c]);
    }
    EXPECT_EQ(out.coords_dat(), in.coords_dat());
  }
}

TEST(Renumber, OrderingImprovesReuseProxiesOnScrambledMesh) {
  // On a scrambled mesh, RCM and SFC must each cut both locality proxies
  // of the global edge->node gather stream below half the scrambled ones.
  const Hex3D h = make_hex3d(12, 12, 12);
  const MeshDef scrambled = scramble_mesh(h.mesh, 1234);
  const auto quality = [&](const MeshDef& m) {
    const MapDef& e2n = m.map(h.e2n);
    const LIdxVec targets(e2n.targets.begin(), e2n.targets.end());
    return ordering_quality(targets.data(), e2n.arity,
                            static_cast<lidx_t>(m.set(h.edges).size),
                            static_cast<lidx_t>(m.set(h.nodes).size));
  };
  const OrderingQuality none = quality(scrambled);
  for (const ReorderKind kind : {ReorderKind::RCM, ReorderKind::SFC}) {
    const OrderingQuality q = quality(renumber(scrambled, kind));
    EXPECT_LT(q.gather_span, 0.5 * none.gather_span);
    EXPECT_LT(q.reuse_gap, 0.5 * none.reuse_gap);
  }
}

TEST(Renumber, SfcNeedsGeometricPathAutoFallsBackToRcm) {
  // "orphan" has no map to or from the coords set: SFC must raise naming
  // it, Auto must order it by RCM and every other set by SFC.
  const Hex3D h = make_hex3d(4, 3, 2);
  MeshDef with_orphan = h.mesh;
  const set_id orphan = with_orphan.add_set("orphan", 5);
  try {
    renumber(with_orphan, ReorderKind::SFC);
    ADD_FAILURE() << "SFC without a geometric path was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'orphan'"), std::string::npos)
        << e.what();
  }
  std::vector<GIdxVec> autos, sfcs, rcms;
  renumber(with_orphan, ReorderKind::Auto, &autos);
  renumber(h.mesh, ReorderKind::SFC, &sfcs);
  renumber(with_orphan, ReorderKind::RCM, &rcms);
  for (set_id s = 0; s < h.mesh.num_sets(); ++s)
    EXPECT_EQ(autos[static_cast<std::size_t>(s)],
              sfcs[static_cast<std::size_t>(s)]);
  EXPECT_EQ(autos[static_cast<std::size_t>(orphan)],
            rcms[static_cast<std::size_t>(orphan)]);
}

// -- Block colouring. ----------------------------------------------------

TEST(BlockColouring, ValidAndBlockAligned) {
  // Edge->node path map with heavy target sharing: every consecutive
  // edge pair conflicts, so per-element colouring needs 2 colours while
  // the blocked variant colours 8-element runs as units.
  const lidx_t n = 200;
  LIdxVec targets(static_cast<std::size_t>(n) * 2);
  for (lidx_t e = 0; e < n; ++e) {
    targets[static_cast<std::size_t>(e) * 2 + 0] = e;
    targets[static_cast<std::size_t>(e) * 2 + 1] = e + 1;
  }
  const ColourMapView view{targets.data(), 2, n, n + 1};
  const std::vector<ColourMapView> views{view};

  const Colouring blocked = block_colouring(n, views, 8);
  EXPECT_EQ(blocked.block_elems, 8);
  EXPECT_TRUE(colouring_valid(blocked, n, views));
  // One colour per block; the classes partition the blocks.
  ASSERT_EQ(blocked.colour.size(), static_cast<std::size_t>(n / 8));
  LIdxVec listed, every(static_cast<std::size_t>(n / 8));
  for (const auto& cls : blocked.classes)
    listed.insert(listed.end(), cls.begin(), cls.end());
  std::sort(listed.begin(), listed.end());
  std::iota(every.begin(), every.end(), 0);
  EXPECT_EQ(listed, every);

  // Per-element colouring of the same map must reject the blocked
  // assignment spread over elements (adjacent edges share a node),
  // proving colouring_valid honours block_elems rather than ignoring
  // conflicts.
  Colouring cheat;
  cheat.num_colours = blocked.num_colours;
  cheat.classes.resize(static_cast<std::size_t>(cheat.num_colours));
  for (lidx_t e = 0; e < n; ++e) {
    const int c = blocked.colour[static_cast<std::size_t>(e / 8)];
    cheat.colour.push_back(c);
    cheat.classes[static_cast<std::size_t>(c)].push_back(e);
  }
  EXPECT_FALSE(colouring_valid(cheat, n, views));
  // A class that lists a block under another colour is rejected too.
  Colouring mislabelled = blocked;
  mislabelled.colour[0] = blocked.colour[1];
  EXPECT_FALSE(colouring_valid(mislabelled, n, views));

  EXPECT_TRUE(
      colouring_valid(block_colouring(n, views, 1), n, views));
}

}  // namespace
}  // namespace op2ca::mesh
