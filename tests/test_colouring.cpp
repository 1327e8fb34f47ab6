// Per-element colouring properties (block_colouring at its default
// block_elems = 1): validity (no two same-colour elements
// share a target through any view — checked both by colouring_valid and
// by a brute-force pairwise scan), determinism, class structure, and the
// colouring of a real quad mesh's edge->node map.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "op2ca/mesh/colouring.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/util/rng.hpp"

namespace op2ca::mesh {
namespace {

/// A random from-set -> target map, row-major, with occasional
/// kInvalidLocal holes (the halo builder leaves those for targets only
/// reachable from never-executed rows).
LIdxVec random_targets(Rng* rng, lidx_t n, int arity, lidx_t num_targets,
                       double hole_p = 0.0) {
  LIdxVec t(static_cast<std::size_t>(n) * static_cast<std::size_t>(arity));
  for (auto& v : t)
    v = rng->next_bool(hole_p)
            ? kInvalidLocal
            : static_cast<lidx_t>(rng->next_int(0, num_targets - 1));
  return t;
}

/// O(n^2) ground truth: do elements a and b conflict through any view?
bool conflicts(lidx_t a, lidx_t b, std::span<const ColourMapView> views) {
  for (const ColourMapView& v : views) {
    for (int i = 0; i < v.arity; ++i) {
      const lidx_t ta = v.targets[a * v.arity + i];
      if (ta == kInvalidLocal) continue;
      for (int j = 0; j < v.arity; ++j)
        if (ta == v.targets[b * v.arity + j]) return true;
    }
  }
  return false;
}

void expect_valid_brute_force(const Colouring& c, lidx_t n,
                              std::span<const ColourMapView> views) {
  ASSERT_TRUE(colouring_valid(c, n, views));
  for (lidx_t a = 0; a < n; ++a)
    for (lidx_t b = a + 1; b < n; ++b)
      if (c.colour[static_cast<std::size_t>(a)] ==
          c.colour[static_cast<std::size_t>(b)]) {
        EXPECT_FALSE(conflicts(a, b, views))
            << "elements " << a << " and " << b << " share colour "
            << c.colour[static_cast<std::size_t>(a)] << " but conflict";
      }
}

void expect_classes_partition(const Colouring& c, lidx_t n) {
  ASSERT_EQ(static_cast<int>(c.classes.size()), c.num_colours);
  std::set<lidx_t> seen;
  for (int k = 0; k < c.num_colours; ++k) {
    const LIdxVec& cls = c.classes[static_cast<std::size_t>(k)];
    EXPECT_FALSE(cls.empty()) << "empty colour class " << k;
    EXPECT_TRUE(std::is_sorted(cls.begin(), cls.end()));
    for (lidx_t e : cls) {
      EXPECT_EQ(c.colour[static_cast<std::size_t>(e)], k);
      EXPECT_TRUE(seen.insert(e).second) << "element " << e << " repeated";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
}

TEST(Colouring, RandomMapsValidBruteForce) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const lidx_t n = static_cast<lidx_t>(rng.next_int(1, 120));
    const lidx_t targets = static_cast<lidx_t>(rng.next_int(1, 60));
    const int arity = static_cast<int>(rng.next_int(1, 4));
    const LIdxVec t =
        random_targets(&rng, n, arity, targets, trial % 3 == 0 ? 0.1 : 0.0);
    const ColourMapView v{t.data(), arity, n, targets};
    const Colouring c = block_colouring(n, {&v, 1});
    expect_valid_brute_force(c, n, {&v, 1});
    expect_classes_partition(c, n);
  }
}

TEST(Colouring, MultipleViewsValid) {
  Rng rng(7);
  const lidx_t n = 80;
  const LIdxVec t1 = random_targets(&rng, n, 2, 30);
  const LIdxVec t2 = random_targets(&rng, n, 3, 15);
  // Identity view: a dat written directly while also map-accessed.
  LIdxVec ident(static_cast<std::size_t>(n));
  for (lidx_t e = 0; e < n; ++e) ident[static_cast<std::size_t>(e)] = e;
  const ColourMapView views[] = {{t1.data(), 2, n, 30},
                                 {t2.data(), 3, n, 15},
                                 {ident.data(), 1, n, n}};
  const Colouring c = block_colouring(n, views);
  expect_valid_brute_force(c, n, views);
  expect_classes_partition(c, n);
}

TEST(Colouring, Deterministic) {
  Rng rng(99);
  const lidx_t n = 200;
  const LIdxVec t = random_targets(&rng, n, 2, 50);
  const ColourMapView v{t.data(), 2, n, 50};
  const Colouring a = block_colouring(n, {&v, 1});
  const Colouring b = block_colouring(n, {&v, 1});
  EXPECT_EQ(a.num_colours, b.num_colours);
  EXPECT_EQ(a.colour, b.colour);
  EXPECT_EQ(a.classes, b.classes);
}

TEST(Colouring, NoViewsIsOneColour) {
  const Colouring c = block_colouring(10, {});
  EXPECT_EQ(c.num_colours, 1);
  expect_classes_partition(c, 10);
}

TEST(Colouring, EmptySet) {
  const Colouring c = block_colouring(0, {});
  EXPECT_EQ(c.num_colours, 0);
  EXPECT_TRUE(c.classes.empty());
}

TEST(Colouring, HighDegreeTargetForcesManyColours) {
  // Every element maps onto target 0: all conflict pairwise, so each
  // needs its own colour — exercises the >64-colour mask widening.
  const lidx_t n = 100;
  LIdxVec t(static_cast<std::size_t>(n), 0);
  const ColourMapView v{t.data(), 1, n, 1};
  const Colouring c = block_colouring(n, {&v, 1});
  EXPECT_EQ(c.num_colours, n);
  expect_valid_brute_force(c, n, {&v, 1});
  expect_classes_partition(c, n);
}

TEST(Colouring, Quad2dEdgeToNode) {
  // Real mesh: colour edges by shared nodes. A structured quad mesh has
  // node degree <= 4, so greedy needs few colours, and validity means no
  // two same-colour edges touch the same node.
  const Quad2D q = make_quad2d(12, 9);
  const MapDef& e2n = q.mesh.map(q.e2n);
  const lidx_t n = static_cast<lidx_t>(e2n.targets.size() / 2);
  LIdxVec local(e2n.targets.begin(), e2n.targets.end());
  const ColourMapView v{local.data(), 2, n,
                        static_cast<lidx_t>(q.mesh.set(q.nodes).size)};
  const Colouring c = block_colouring(n, {&v, 1});
  EXPECT_TRUE(colouring_valid(c, n, {&v, 1}));
  expect_classes_partition(c, n);
  EXPECT_LE(c.num_colours, 8);  // greedy <= 2*max_degree for edge maps
  EXPECT_GE(c.num_colours, 2);
}

TEST(Colouring, ValidityPredicateCatchesBadColouring) {
  // Two elements sharing a target but given the same colour must fail.
  const LIdxVec t = {0, 0};
  const ColourMapView v{t.data(), 1, 2, 1};
  Colouring bad;
  bad.num_colours = 1;
  bad.colour = {0, 0};
  bad.classes = {{0, 1}};
  EXPECT_FALSE(colouring_valid(bad, 2, {&v, 1}));
}

}  // namespace
}  // namespace op2ca::mesh
