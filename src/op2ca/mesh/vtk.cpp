#include "op2ca/mesh/vtk.hpp"

#include <fstream>

#include "op2ca/util/error.hpp"

namespace op2ca::mesh {
namespace {

int vtk_cell_type(int arity) {
  switch (arity) {
    case 1: return 1;   // VTK_VERTEX
    case 2: return 3;   // VTK_LINE
    case 3: return 5;   // VTK_TRIANGLE
    case 4: return 9;   // VTK_QUAD
    case 8: return 12;  // VTK_HEXAHEDRON
    default:
      raise("write_vtk: unsupported element arity " +
            std::to_string(arity));
  }
}

}  // namespace

void write_vtk(const std::string& path, const MeshDef& mesh,
               map_id elements_to_points,
               const std::vector<VtkField>& point_fields) {
  OP2CA_REQUIRE(mesh.has_coords(), "write_vtk: mesh has no coordinates");
  const MapDef& mp = mesh.map(elements_to_points);
  OP2CA_REQUIRE(mp.to == mesh.coords_set(),
                "write_vtk: map must target the coordinate set");
  const int cdim = mesh.dat(mesh.coords_dat()).dim;
  const std::vector<double>& coords = mesh.dat_values(mesh.coords_dat());
  const gidx_t npoints = mesh.set(mesh.coords_set()).size;
  const gidx_t ncells = mesh.set(mp.from).size;
  const int cell_type = vtk_cell_type(mp.arity);

  std::ofstream os(path);
  OP2CA_REQUIRE(os.good(), "write_vtk: cannot open " + path);
  os << "# vtk DataFile Version 3.0\n"
     << "op2ca snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n";

  os << "POINTS " << npoints << " double\n";
  for (gidx_t i = 0; i < npoints; ++i) {
    for (int d = 0; d < 3; ++d) {
      const double v =
          d < cdim ? coords[static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(cdim) +
                            static_cast<std::size_t>(d)]
                   : 0.0;
      os << v << (d == 2 ? '\n' : ' ');
    }
  }

  os << "CELLS " << ncells << ' '
     << ncells * (static_cast<gidx_t>(mp.arity) + 1) << '\n';
  for (gidx_t e = 0; e < ncells; ++e) {
    os << mp.arity;
    for (int k = 0; k < mp.arity; ++k)
      os << ' '
         << mp.targets[static_cast<std::size_t>(e) *
                           static_cast<std::size_t>(mp.arity) +
                       static_cast<std::size_t>(k)];
    os << '\n';
  }
  os << "CELL_TYPES " << ncells << '\n';
  for (gidx_t e = 0; e < ncells; ++e) os << cell_type << '\n';

  if (!point_fields.empty()) {
    os << "POINT_DATA " << npoints << '\n';
    for (const VtkField& f : point_fields) {
      OP2CA_REQUIRE(npoints > 0 && f.values.size() %
                                           static_cast<std::size_t>(
                                               npoints) ==
                                       0,
                    "write_vtk: field '" + f.name +
                        "' size is not a multiple of the point count");
      const int dim =
          static_cast<int>(f.values.size() /
                           static_cast<std::size_t>(npoints));
      if (dim == 1) {
        os << "SCALARS " << f.name << " double 1\nLOOKUP_TABLE default\n";
        for (gidx_t i = 0; i < npoints; ++i)
          os << f.values[static_cast<std::size_t>(i)] << '\n';
      } else if (dim == 3) {
        os << "VECTORS " << f.name << " double\n";
        for (gidx_t i = 0; i < npoints; ++i)
          os << f.values[static_cast<std::size_t>(3 * i)] << ' '
             << f.values[static_cast<std::size_t>(3 * i + 1)] << ' '
             << f.values[static_cast<std::size_t>(3 * i + 2)] << '\n';
      } else {
        os << "FIELD fields 1\n"
           << f.name << ' ' << dim << ' ' << npoints << " double\n";
        for (gidx_t i = 0; i < npoints; ++i) {
          for (int d = 0; d < dim; ++d)
            os << f.values[static_cast<std::size_t>(i) *
                               static_cast<std::size_t>(dim) +
                           static_cast<std::size_t>(d)]
               << (d + 1 == dim ? '\n' : ' ');
        }
      }
    }
  }
  OP2CA_REQUIRE(os.good(), "write_vtk: write failed for " + path);
}

}  // namespace op2ca::mesh
