#include "op2ca/mesh/adjacency.hpp"

#include <algorithm>

namespace op2ca::mesh {

Csr reverse_map(const MeshDef& mesh, map_id m) {
  const MapDef& mp = mesh.map(m);
  const gidx_t nfrom = mesh.set(mp.from).size;
  const gidx_t nto = mesh.set(mp.to).size;

  Csr csr;
  csr.offsets.assign(static_cast<std::size_t>(nto) + 1, 0);
  for (gidx_t t : mp.targets)
    ++csr.offsets[static_cast<std::size_t>(t) + 1];
  for (std::size_t i = 1; i < csr.offsets.size(); ++i)
    csr.offsets[i] += csr.offsets[i - 1];

  csr.adj.resize(mp.targets.size());
  std::vector<gidx_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (gidx_t e = 0; e < nfrom; ++e) {
    for (int k = 0; k < mp.arity; ++k) {
      const gidx_t t = mp.targets[static_cast<std::size_t>(e * mp.arity + k)];
      csr.adj[static_cast<std::size_t>(cursor[static_cast<std::size_t>(t)]++)] = e;
    }
  }
  return csr;
}

Csr set_graph(const MeshDef& mesh, set_id s) {
  const gidx_t n = mesh.set(s).size;
  std::vector<GIdxVec> nbrs(static_cast<std::size_t>(n));

  for (map_id m = 0; m < mesh.num_maps(); ++m) {
    const MapDef& mp = mesh.map(m);
    if (mp.to != s) continue;
    const gidx_t nfrom = mesh.set(mp.from).size;
    for (gidx_t e = 0; e < nfrom; ++e) {
      const auto base = static_cast<std::size_t>(e * mp.arity);
      for (int a = 0; a < mp.arity; ++a) {
        for (int b = a + 1; b < mp.arity; ++b) {
          const gidx_t u = mp.targets[base + static_cast<std::size_t>(a)];
          const gidx_t v = mp.targets[base + static_cast<std::size_t>(b)];
          if (u == v) continue;
          nbrs[static_cast<std::size_t>(u)].push_back(v);
          nbrs[static_cast<std::size_t>(v)].push_back(u);
        }
      }
    }
  }

  Csr csr;
  csr.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (gidx_t i = 0; i < n; ++i) {
    auto& row = nbrs[static_cast<std::size_t>(i)];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    csr.offsets[static_cast<std::size_t>(i) + 1] =
        csr.offsets[static_cast<std::size_t>(i)] +
        static_cast<gidx_t>(row.size());
  }
  csr.adj.reserve(static_cast<std::size_t>(csr.offsets.back()));
  for (auto& row : nbrs)
    csr.adj.insert(csr.adj.end(), row.begin(), row.end());
  return csr;
}

std::vector<double> derive_coords(const MeshDef& mesh, set_id s) {
  OP2CA_REQUIRE(mesh.has_coords(), "MeshDef has no coords dat");
  const int dim = mesh.dat(mesh.coords_dat()).dim;
  const std::vector<double>& coords = mesh.dat_values(mesh.coords_dat());
  if (s == mesh.coords_set()) return coords;

  const gidx_t n = mesh.set(s).size;
  std::vector<double> out(static_cast<std::size_t>(n * dim), 0.0);
  std::vector<int> counts(static_cast<std::size_t>(n), 0);

  // Forward: a map from `s` directly onto the coords set.
  for (map_id m = 0; m < mesh.num_maps(); ++m) {
    const MapDef& mp = mesh.map(m);
    if (mp.from != s || mp.to != mesh.coords_set()) continue;
    for (gidx_t e = 0; e < n; ++e) {
      for (int k = 0; k < mp.arity; ++k) {
        const gidx_t t =
            mp.targets[static_cast<std::size_t>(e * mp.arity + k)];
        for (int d = 0; d < dim; ++d)
          out[static_cast<std::size_t>(e * dim + d)] +=
              coords[static_cast<std::size_t>(t * dim + d)];
        ++counts[static_cast<std::size_t>(e)];
      }
    }
  }

  bool any = false;
  for (gidx_t e = 0; e < n; ++e) {
    const int c = counts[static_cast<std::size_t>(e)];
    if (c > 0) {
      any = true;
      for (int d = 0; d < dim; ++d)
        out[static_cast<std::size_t>(e * dim + d)] /= c;
    }
  }
  if (any) return out;

  // Reverse: a map from the coords set onto `s` (e.g. edges -> cells when
  // only edge geometry exists). Average the sources touching each target.
  for (map_id m = 0; m < mesh.num_maps(); ++m) {
    const MapDef& mp = mesh.map(m);
    if (mp.to != s || mp.from != mesh.coords_set()) continue;
    const gidx_t nfrom = mesh.set(mp.from).size;
    for (gidx_t e = 0; e < nfrom; ++e) {
      for (int k = 0; k < mp.arity; ++k) {
        const gidx_t t =
            mp.targets[static_cast<std::size_t>(e * mp.arity + k)];
        for (int d = 0; d < dim; ++d)
          out[static_cast<std::size_t>(t * dim + d)] +=
              coords[static_cast<std::size_t>(e * dim + d)];
        ++counts[static_cast<std::size_t>(t)];
      }
    }
  }
  for (gidx_t e = 0; e < n; ++e) {
    const int c = counts[static_cast<std::size_t>(e)];
    if (c > 0) {
      any = true;
      for (int d = 0; d < dim; ++d)
        out[static_cast<std::size_t>(e * dim + d)] /= c;
    }
  }
  OP2CA_REQUIRE(any, "derive_coords: no geometric path from set '" +
                         mesh.set(s).name + "' to the coords set");
  return out;
}

}  // namespace op2ca::mesh
