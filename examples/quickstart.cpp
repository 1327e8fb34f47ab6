// Quickstart — the paper's Fig 3 program, end to end.
//
// Declares the nodes/edges/cells mesh of Fig 1 (as a quad grid), the
// res/pres/cw/flux dats, and runs the update + edge_flux loop-chain over
// a simulated 4-rank machine twice: once with classic per-loop OP2
// execution and once with the communication-avoiding back-end. Verifies
// the results agree and prints the communication metrics side by side.
//
//   ./quickstart [--nx=64] [--ny=64] [--ranks=4] [--steps=3]
#include <cmath>
#include <exception>
#include <iostream>

#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/util/options.hpp"

using namespace op2ca;
using core::Access;
using core::arg_dat;

namespace {

// The two kernels of the paper's Fig 3.
void update(double* res1, double* res2, const double* pres1,
            const double* pres2) {
  res1[0] += pres1[0] - pres1[1];
  res1[1] += pres2[0] - pres2[1];
  res2[0] += pres2[1] - pres2[0];
  res2[1] += pres1[1] - pres1[0];
}

void edge_flux(double* flux1, double* flux2, const double* res1,
               const double* res2, const double* cw1, const double* cw2) {
  flux1[0] += res1[0] * cw1[0] - res1[1] * cw1[1];
  flux1[1] += res2[1] * cw1[2] - res2[0] * cw1[3];
  flux2[0] += res2[1] * cw2[2] - res1[1] * cw2[3];
  flux2[1] += res1[0] * cw2[0] - res1[1] * cw2[1];
}

struct Problem {
  mesh::Quad2D q;
  mesh::dat_id res, pres, flux, cw;
};

Problem build(gidx_t nx, gidx_t ny) {
  Problem p{mesh::make_quad2d(nx, ny), -1, -1, -1, -1};
  mesh::MeshDef& m = p.q.mesh;
  const auto nn = static_cast<std::size_t>(m.set(p.q.nodes).size);
  const auto nc = static_cast<std::size_t>(m.set(p.q.cells).size);
  std::vector<double> pres(nn * 2), cw(nc * 4);
  for (std::size_t i = 0; i < pres.size(); ++i)
    pres[i] = std::sin(0.01 * static_cast<double>(i));
  for (std::size_t i = 0; i < cw.size(); ++i)
    cw[i] = 0.25 * std::cos(0.02 * static_cast<double>(i));
  p.res = m.add_dat("res", p.q.nodes, 2);
  p.pres = m.add_dat("pres", p.q.nodes, 2, std::move(pres));
  p.flux = m.add_dat("flux", p.q.nodes, 2);
  p.cw = m.add_dat("cw", p.q.cells, 4, std::move(cw));
  return p;
}

void time_march(core::Runtime& rt, int steps) {
  const core::Set edges = rt.set("edges");
  const core::Dat res = rt.dat("res"), pres = rt.dat("pres"),
                  flux = rt.dat("flux"), cw = rt.dat("cw");
  const core::Map e2n = rt.map("e2n"), e2c = rt.map("e2c");
  for (int t = 0; t < steps; ++t) {
    rt.chain_begin("fig3");  // no-op when the chain is not CA-enabled
    rt.par_loop("update", edges, update,
                arg_dat(res, 0, e2n, Access::INC),
                arg_dat(res, 1, e2n, Access::INC),
                arg_dat(pres, 0, e2n, Access::READ),
                arg_dat(pres, 1, e2n, Access::READ));
    rt.par_loop("edge_flux", edges, edge_flux,
                arg_dat(flux, 0, e2n, Access::INC),
                arg_dat(flux, 1, e2n, Access::INC),
                arg_dat(res, 0, e2n, Access::READ),
                arg_dat(res, 1, e2n, Access::READ),
                arg_dat(cw, 0, e2c, Access::READ),
                arg_dat(cw, 1, e2c, Access::READ));
    rt.chain_end();
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"nx", "ny", "ranks", "steps"});
  const gidx_t nx = opt.get_int("nx", 64), ny = opt.get_int("ny", 64);
  const int ranks = static_cast<int>(opt.get_int("ranks", 4));
  const int steps = static_cast<int>(opt.get_int("steps", 3));

  auto run = [&](bool enable_ca) {
    Problem p = build(nx, ny);
    core::WorldConfig cfg;
    cfg.nranks = ranks;
    cfg.partitioner = partition::Kind::KWay;
    cfg.halo_depth = 2;
    if (enable_ca) cfg.chains.enable("fig3");
    core::World w(std::move(p.q.mesh), cfg);
    w.run([&](core::Runtime& rt) { time_march(rt, steps); });
    const auto metrics = w.chain_metrics().at("fig3");
    std::cout << (enable_ca ? "CA  " : "OP2 ") << " messages=" << metrics.msgs
              << "  bytes=" << metrics.bytes
              << "  core iters=" << metrics.core_iters
              << "  halo iters=" << metrics.halo_iters << '\n';
    return w.fetch_dat(p.flux);
  };

  std::cout << "Fig-3 loop-chain on a " << nx << "x" << ny << " mesh, "
            << ranks << " simulated ranks, " << steps << " steps\n";
  const std::vector<double> flux_op2 = run(false);
  const std::vector<double> flux_ca = run(true);

  double worst = 0.0;
  for (std::size_t i = 0; i < flux_op2.size(); ++i)
    worst = std::max(worst, std::abs(flux_op2[i] - flux_ca[i]));
  std::cout << "max |flux_OP2 - flux_CA| = " << worst << '\n';
  if (worst > 1e-9) {
    std::cout << "MISMATCH\n";
    return 1;
  }
  std::cout << "results match: the CA back-end exchanged one grouped "
               "message per neighbour per chain\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "quickstart: " << e.what() << '\n';
  return 1;
}
