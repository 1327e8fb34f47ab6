// Unit tests for MeshDef, adjacency and the three mesh generators.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "op2ca/mesh/adjacency.hpp"
#include "op2ca/mesh/annulus.hpp"
#include "op2ca/mesh/hex3d.hpp"
#include "op2ca/mesh/multigrid.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/mesh/mesh_io.hpp"
#include "op2ca/mesh/vtk.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::mesh {
namespace {

TEST(MeshDef, DeclareAndLookup) {
  MeshDef m;
  const set_id nodes = m.add_set("nodes", 4);
  const set_id edges = m.add_set("edges", 3);
  const map_id e2n = m.add_map("e2n", edges, nodes, 2, {0, 1, 1, 2, 2, 3});
  const dat_id x = m.add_dat("x", nodes, 2);
  EXPECT_EQ(m.set(nodes).size, 4);
  EXPECT_EQ(m.map(e2n).arity, 2);
  EXPECT_EQ(m.dat(x).dim, 2);
  EXPECT_EQ(m.find_set("edges"), edges);
  EXPECT_FALSE(m.find_set("nope").has_value());
  EXPECT_EQ(m.total_elements(), 7);
}

TEST(MeshDef, Validation) {
  MeshDef m;
  const set_id nodes = m.add_set("nodes", 2);
  const set_id edges = m.add_set("edges", 1);
  EXPECT_THROW(m.add_set("nodes", 3), Error);  // duplicate name
  EXPECT_THROW(m.add_map("bad", edges, nodes, 2, {0, 5}), Error);  // range
  EXPECT_THROW(m.add_map("bad", edges, nodes, 2, {0}), Error);  // size
  EXPECT_THROW(m.add_dat("d", nodes, 1, {1.0}), Error);  // size mismatch
  EXPECT_THROW(m.add_dat("d", 9, 1), Error);             // bad set
}

TEST(MeshDef, CoordsValidation) {
  MeshDef m;
  const set_id nodes = m.add_set("nodes", 2);
  const dat_id xy = m.add_dat("xy", nodes, 2, {0, 0, 1, 1});
  const dat_id bad = m.add_dat("bad", nodes, 5);
  m.set_coords(nodes, xy);
  EXPECT_TRUE(m.has_coords());
  EXPECT_THROW(m.set_coords(nodes, bad), Error);
}

TEST(Adjacency, ReverseMap) {
  MeshDef m;
  const set_id nodes = m.add_set("nodes", 3);
  const set_id edges = m.add_set("edges", 2);
  const map_id e2n = m.add_map("e2n", edges, nodes, 2, {0, 1, 1, 2});
  const Csr rev = reverse_map(m, e2n);
  EXPECT_EQ(rev.num_rows(), 3);
  EXPECT_EQ(rev.row(0).size(), 1u);
  EXPECT_EQ(rev.row(1).size(), 2u);
  EXPECT_EQ(rev.row(2).size(), 1u);
  EXPECT_EQ(rev.row(0)[0], 0);
}

TEST(Adjacency, SetGraphViaSharedSource) {
  MeshDef m;
  const set_id nodes = m.add_set("nodes", 4);
  const set_id edges = m.add_set("edges", 3);
  m.add_map("e2n", edges, nodes, 2, {0, 1, 1, 2, 2, 3});
  const Csr g = set_graph(m, nodes);
  // Path graph: 0-1-2-3.
  EXPECT_EQ(g.row(0).size(), 1u);
  EXPECT_EQ(g.row(1).size(), 2u);
  EXPECT_EQ(g.row(2).size(), 2u);
  EXPECT_EQ(g.row(3).size(), 1u);
}

TEST(Quad2D, SizesAndMaps) {
  const Quad2D q = make_quad2d(3, 2);
  const MeshDef& m = q.mesh;
  EXPECT_EQ(m.set(q.nodes).size, 12);
  EXPECT_EQ(m.set(q.cells).size, 6);
  // 3*(2+1) horizontal + (3+1)*2 vertical = 9 + 8.
  EXPECT_EQ(m.set(q.edges).size, 17);
  EXPECT_EQ(m.set(q.bedges).size, 10);

  // Every interior edge has two distinct cells; boundary edges repeat.
  const MapDef& e2c = m.map(q.e2c);
  int boundary = 0;
  for (gidx_t e = 0; e < m.set(q.edges).size; ++e) {
    const gidx_t a = e2c.targets[static_cast<size_t>(2 * e)];
    const gidx_t b = e2c.targets[static_cast<size_t>(2 * e + 1)];
    EXPECT_GE(a, 0);
    EXPECT_LT(a, m.set(q.cells).size);
    if (a == b) ++boundary;
  }
  EXPECT_EQ(boundary, 10);
}

TEST(Quad2D, EachCellHasFourDistinctNodes) {
  const Quad2D q = make_quad2d(4, 4);
  const MapDef& c2n = q.mesh.map(q.c2n);
  for (gidx_t c = 0; c < q.mesh.set(q.cells).size; ++c) {
    std::set<gidx_t> uniq(c2n.targets.begin() + 4 * c,
                          c2n.targets.begin() + 4 * (c + 1));
    EXPECT_EQ(uniq.size(), 4u);
  }
}

TEST(Hex3D, SizesAndDegrees) {
  const Hex3D h = make_hex3d(2, 2, 2);
  const MeshDef& m = h.mesh;
  EXPECT_EQ(m.set(h.nodes).size, 27);
  EXPECT_EQ(m.set(h.cells).size, 8);
  // 3 * nx*(ny+1)*(nz+1) with nx=ny=nz=2: 3 * 2*3*3 = 54.
  EXPECT_EQ(m.set(h.edges).size, 54);
  // All 27 nodes of a 2x2x2 hex grid lie on the boundary except center.
  EXPECT_EQ(m.set(h.bnodes).size, 26);

  // The centre node (index 13 = (1*3+1)*3+1) shares an edge with 6 nodes
  // and a cell with all 26 others; the set graph unions both relations,
  // so its degree is 26.
  const Csr g = set_graph(m, h.nodes);
  EXPECT_EQ(g.row(13).size(), 26u);
}

TEST(Hex3D, EdgeGraphDegreeWithoutCells) {
  // Using only e2n incidence (reverse + forward composition through
  // edges), the centre node of the grid has 6 edge-neighbours.
  const Hex3D h = make_hex3d(2, 2, 2);
  const Csr rev = reverse_map(h.mesh, h.e2n);
  EXPECT_EQ(rev.row(13).size(), 6u);  // 6 incident edges
}

TEST(Hex3D, PickDims) {
  gidx_t nx = 0, ny = 0, nz = 0;
  pick_dims_for_nodes(1000, &nx, &ny, &nz);
  const gidx_t nodes = (nx + 1) * (ny + 1) * (nz + 1);
  EXPECT_GT(nodes, 500);
  EXPECT_LT(nodes, 2000);
}

TEST(Annulus, SetsAndPeriodicity) {
  const Annulus a = make_annulus(2, 3, 4);
  const MeshDef& m = a.mesh;
  EXPECT_EQ(m.set(a.nodes).size, 3 * 4 * 5);
  EXPECT_EQ(m.set(a.cells).size, 2 * 3 * 4);
  // Periodic pairs: (nr+1)*(nz+1).
  EXPECT_EQ(m.set(a.pedges).size, 3 * 5);

  // Each periodic pair links two distinct nodes with equal radius and z.
  const MapDef& pe2n = m.map(a.pe2n);
  const DatDef& xyz = m.dat(a.coords);
  for (gidx_t p = 0; p < m.set(a.pedges).size; ++p) {
    const gidx_t u = pe2n.targets[static_cast<size_t>(2 * p)];
    const gidx_t v = pe2n.targets[static_cast<size_t>(2 * p + 1)];
    EXPECT_NE(u, v);
    auto radius = [&](gidx_t n) {
      const double x = xyz.data[static_cast<size_t>(3 * n)];
      const double y = xyz.data[static_cast<size_t>(3 * n + 1)];
      return std::sqrt(x * x + y * y);
    };
    EXPECT_NEAR(radius(u), radius(v), 1e-12);
    EXPECT_NEAR(xyz.data[static_cast<size_t>(3 * u + 2)],
                xyz.data[static_cast<size_t>(3 * v + 2)], 1e-12);
  }
}

TEST(Annulus, BoundarySetsNonEmpty) {
  const Annulus a = make_annulus(3, 4, 5);
  EXPECT_GT(a.mesh.set(a.bnd).size, 0);
  EXPECT_EQ(a.mesh.set(a.cbnd).size, 5);  // nt+1 hub-inlet nodes
  // e2c targets valid.
  const MapDef& e2c = a.mesh.map(a.e2c);
  for (gidx_t t : e2c.targets) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, a.mesh.set(a.cells).size);
  }
}

TEST(Multigrid, HierarchyAndInterGridMaps) {
  const MultigridHex mg = make_multigrid_hex(4, 4, 4, 3);
  ASSERT_EQ(mg.levels.size(), 3u);
  EXPECT_EQ(mg.mesh.set(mg.levels[0].nodes).size, 125);
  EXPECT_EQ(mg.mesh.set(mg.levels[1].nodes).size, 27);
  EXPECT_EQ(mg.mesh.set(mg.levels[2].nodes).size, 8);
  ASSERT_EQ(mg.restrict_maps.size(), 2u);
  ASSERT_EQ(mg.prolong_maps.size(), 2u);

  // Restriction covers every coarse node (surjective).
  const MapDef& r01 = mg.mesh.map(mg.restrict_maps[0]);
  std::set<gidx_t> covered(r01.targets.begin(), r01.targets.end());
  EXPECT_EQ(static_cast<gidx_t>(covered.size()),
            mg.mesh.set(mg.levels[1].nodes).size);

  // Prolongation is injective (distinct coarse -> distinct fine).
  const MapDef& p01 = mg.mesh.map(mg.prolong_maps[0]);
  std::set<gidx_t> targets(p01.targets.begin(), p01.targets.end());
  EXPECT_EQ(targets.size(), p01.targets.size());
}

TEST(DeriveCoords, EdgesAverageNodeCoords) {
  const Quad2D q = make_quad2d(2, 2);
  const std::vector<double> ec = derive_coords(q.mesh, q.edges);
  EXPECT_EQ(ec.size(),
            static_cast<size_t>(q.mesh.set(q.edges).size * 2));
  // First horizontal edge spans nodes (0,0)-(0.5,0): midpoint x=0.25.
  EXPECT_NEAR(ec[0], 0.25, 1e-12);
  EXPECT_NEAR(ec[1], 0.0, 1e-12);
}

TEST(DeriveCoords, CellsViaC2N) {
  const Quad2D q = make_quad2d(2, 2);
  const std::vector<double> cc = derive_coords(q.mesh, q.cells);
  // Cell 0 center is (0.25, 0.25).
  EXPECT_NEAR(cc[0], 0.25, 1e-12);
  EXPECT_NEAR(cc[1], 0.25, 1e-12);
}

TEST(MeshIo, RoundTripsQuadMesh) {
  const Quad2D q = make_quad2d(4, 3);
  std::ostringstream os;
  write_meshdef(os, q.mesh);
  std::istringstream in(os.str());
  const MeshDef back = read_meshdef(in);

  ASSERT_EQ(back.num_sets(), q.mesh.num_sets());
  ASSERT_EQ(back.num_maps(), q.mesh.num_maps());
  ASSERT_EQ(back.num_dats(), q.mesh.num_dats());
  for (set_id s = 0; s < back.num_sets(); ++s) {
    EXPECT_EQ(back.set(s).name, q.mesh.set(s).name);
    EXPECT_EQ(back.set(s).size, q.mesh.set(s).size);
  }
  for (map_id m = 0; m < back.num_maps(); ++m)
    EXPECT_EQ(back.map(m).targets, q.mesh.map(m).targets);
  for (dat_id d = 0; d < back.num_dats(); ++d)
    EXPECT_EQ(back.dat(d).data, q.mesh.dat(d).data);
  EXPECT_TRUE(back.has_coords());
  EXPECT_EQ(back.coords_set(), q.mesh.coords_set());
}

TEST(MeshIo, RoundTripsAnnulusThroughFile) {
  const Annulus a = make_annulus(2, 3, 4);
  const std::string path = "/tmp/op2ca_mesh_io_test.txt";
  write_meshdef_file(path, a.mesh);
  const MeshDef back = read_meshdef_file(path);
  EXPECT_EQ(back.num_sets(), a.mesh.num_sets());
  EXPECT_EQ(back.map(a.pe2n).targets, a.mesh.map(a.pe2n).targets);
  EXPECT_EQ(back.dat(a.coords).data, a.mesh.dat(a.coords).data);
}

TEST(MeshIo, RejectsMalformedInput) {
  {
    std::istringstream in("not-a-mesh 1\n");
    EXPECT_THROW(read_meshdef(in), Error);
  }
  {
    std::istringstream in("op2ca-mesh 99\n");
    EXPECT_THROW(read_meshdef(in), Error);
  }
  {
    std::istringstream in("op2ca-mesh 1\nmap m missing other 2\n");
    EXPECT_THROW(read_meshdef(in), Error);
  }
  {
    std::istringstream in("op2ca-mesh 1\nset s 2\ndat d s 1\n1.0\n");
    EXPECT_THROW(read_meshdef(in), Error);  // truncated values
  }
  {
    std::istringstream in("op2ca-mesh 1\nset s 2\nfrobnicate\n");
    EXPECT_THROW(read_meshdef(in), Error);
  }
  EXPECT_THROW(read_meshdef_file("/nonexistent/mesh.txt"), Error);
  // Counts come from the file: a huge declared set must not reach the
  // allocator, and size x arity / size x dim must not overflow gidx_t.
  // Each raises an Error that names its cause.
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    try {
      read_meshdef(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("op2ca-mesh 1\nset nodes 100000000000000\ndat x nodes 1\n",
               "mesh file ended while reading dat value");
  expect_error("op2ca-mesh 1\nset e 144115188075855872\nset n 2\n"
               "map m e n 64\n",
               "map 'm' over set 'e'");
  expect_error("op2ca-mesh 1\nset e 144115188075855872\n"
               "dat d e 64\n",
               "dat 'd' over set 'e'");
  // Writing raises too when a dat holds no values (a World's mesh).
  Quad2D freed = make_quad2d(2, 2);
  const dat_id u = freed.mesh.add_dat("u", freed.cells, 2);
  std::vector<double>().swap(freed.mesh.mutable_dat(u).data);
  std::ostringstream os;
  try {
    write_meshdef(os, freed.mesh);
    ADD_FAILURE() << "wrote a dat that holds no values";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dat 'u'"), std::string::npos)
        << e.what();
  }
}

TEST(MeshIo, CommentsAndWhitespaceIgnored) {
  std::istringstream in(R"(
# a mesh with comments
op2ca-mesh 1
set nodes 3   # three nodes
set edges 2
map e2n edges nodes 2
  0 1   # edge 0
  1 2
dat x nodes 1
  0.5 1.5 2.5
)");
  const MeshDef m = read_meshdef(in);
  EXPECT_EQ(m.set(*m.find_set("nodes")).size, 3);
  EXPECT_EQ(m.map(*m.find_map("e2n")).targets, (GIdxVec{0, 1, 1, 2}));
  EXPECT_DOUBLE_EQ(m.dat(*m.find_dat("x")).data[2], 2.5);
}

TEST(Vtk, WritesParseableSnapshot) {
  const Quad2D q = make_quad2d(3, 3);
  std::vector<double> field(static_cast<size_t>(q.mesh.set(q.nodes).size));
  for (size_t i = 0; i < field.size(); ++i)
    field[i] = static_cast<double>(i);
  const std::string path = "/tmp/op2ca_vtk_test.vtk";
  write_vtk(path, q.mesh, q.c2n, {{"height", field}});

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("POINTS 16 double"), std::string::npos);
  EXPECT_NE(text.find("CELLS 9 45"), std::string::npos);
  EXPECT_NE(text.find("SCALARS height double 1"), std::string::npos);
}

TEST(Vtk, RejectsBadInput) {
  const Quad2D q = make_quad2d(2, 2);
  EXPECT_THROW(write_vtk("/nonexistent_dir/x.vtk", q.mesh, q.c2n, {}),
               Error);
  // Field size not a multiple of the point count.
  EXPECT_THROW(
      write_vtk("/tmp/op2ca_vtk_bad.vtk", q.mesh, q.c2n,
                {{"bad", std::vector<double>(5)}}),
      Error);
  // A coords dat without values, as in a World's mesh: the error names it.
  Quad2D freed = make_quad2d(2, 2);
  std::vector<double>().swap(freed.mesh.mutable_dat(freed.coords).data);
  try {
    write_vtk("/tmp/op2ca_vtk_bad.vtk", freed.mesh, freed.c2n, {});
    ADD_FAILURE() << "wrote a mesh whose coords hold no values";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dat 'coords'"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace op2ca::mesh
