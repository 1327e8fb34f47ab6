#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/util/rng.hpp"

namespace op2ca::apps::hydra {
namespace {

std::vector<double> random_field(std::size_t n, Rng* rng, double lo,
                                 double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->next_range(lo, hi);
  return v;
}

}  // namespace

Problem build_problem(gidx_t target_nodes, std::uint64_t seed) {
  gidx_t nr = 0, nt = 0, nz = 0;
  mesh::pick_annulus_dims(target_nodes, &nr, &nt, &nz);

  Problem p;
  p.an = mesh::make_annulus(nr, nt, nz);
  mesh::MeshDef& m = p.an.mesh;
  Rng rng(seed);

  const auto nn = static_cast<std::size_t>(m.set(p.an.nodes).size);
  const auto ne = static_cast<std::size_t>(m.set(p.an.edges).size);
  const auto nb = static_cast<std::size_t>(m.set(p.an.bnd).size);
  const auto nc = static_cast<std::size_t>(m.set(p.an.cbnd).size);

  p.qo = m.add_dat("qo", p.an.nodes, 6, random_field(nn * 6, &rng, 0.5, 1.5));
  p.qp = m.add_dat("qp", p.an.nodes, 6, random_field(nn * 6, &rng, 0.5, 1.5));
  p.ql = m.add_dat("ql", p.an.nodes, 6, random_field(nn * 6, &rng, 0.0, 1.0));
  // The five vflux dats are equal-sized (dim 6) so the Table-5 vflux row
  // reproduces exactly (baseline bytes == grouped bytes, 0% reduction):
  // xp carries coordinates in components 0..2, metric terms in 3..5;
  // qmu/qrg are 6-component coefficient fields.
  {
    const std::vector<double> xyz = mesh::derive_coords(m, p.an.nodes);
    std::vector<double> xp6(nn * 6, 0.0);
    for (std::size_t i = 0; i < nn; ++i)
      for (int dcomp = 0; dcomp < 3; ++dcomp)
        xp6[i * 6 + static_cast<std::size_t>(dcomp)] =
            xyz[i * 3 + static_cast<std::size_t>(dcomp)];
    p.xp = m.add_dat("xp", p.an.nodes, 6, std::move(xp6));
  }
  p.qmu = m.add_dat("qmu", p.an.nodes, 6,
                    random_field(nn * 6, &rng, 1e-3, 2e-3));
  p.qrg = m.add_dat("qrg", p.an.nodes, 6,
                    random_field(nn * 6, &rng, 0.9, 1.1));
  p.vol = m.add_dat("vol", p.an.nodes, 1,
                    random_field(nn, &rng, 0.5, 1.5));
  p.res = m.add_dat("res", p.an.nodes, 6);
  p.visres = m.add_dat("visres", p.an.nodes, 6);
  p.jacp = m.add_dat("jacp", p.an.nodes, 9,
                     random_field(nn * 9, &rng, -1.0, 1.0));
  p.jaca = m.add_dat("jaca", p.an.nodes, 9,
                     random_field(nn * 9, &rng, -1.0, 1.0));
  p.jacb = m.add_dat("jacb", p.an.nodes, 9,
                     random_field(nn * 9, &rng, -1.0, 1.0));

  p.bwts = m.add_dat("bwts", p.an.bnd, 1, random_field(nb, &rng, 0.0, 1.0));
  p.pwk = m.add_dat("pwk", p.an.pedges, 2);
  p.cbv = m.add_dat("cbv", p.an.cbnd, 6,
                    random_field(nc * 6, &rng, 0.5, 1.5));
  p.bwk = m.add_dat("bwk", p.an.bnd, 1);
  p.ewk = m.add_dat("ewk", p.an.edges, 1,
                    random_field(ne, &rng, -1.0, 1.0));
  return p;
}

Handles resolve_handles(const core::MeshHandles& rt, const Problem& prob) {
  (void)prob;
  Handles h;
  h.nodes = rt.set("nodes");
  h.edges = rt.set("edges");
  h.pedges = rt.set("pedges");
  h.bnd = rt.set("bnd");
  h.cbnd = rt.set("cbnd");
  h.e2n = rt.map("e2n");
  h.pe2n = rt.map("pe2n");
  h.b2n = rt.map("b2n");
  h.cb2n = rt.map("cb2n");
  h.qo = rt.dat("qo");
  h.qp = rt.dat("qp");
  h.ql = rt.dat("ql");
  h.xp = rt.dat("xp");
  h.qmu = rt.dat("qmu");
  h.qrg = rt.dat("qrg");
  h.vol = rt.dat("vol");
  h.res = rt.dat("res");
  h.visres = rt.dat("visres");
  h.jacp = rt.dat("jacp");
  h.jaca = rt.dat("jaca");
  h.jacb = rt.dat("jacb");
  h.bwts = rt.dat("bwts");
  h.pwk = rt.dat("pwk");
  h.cbv = rt.dat("cbv");
  h.bwk = rt.dat("bwk");
  h.ewk = rt.dat("ewk");
  return h;
}

}  // namespace op2ca::apps::hydra
