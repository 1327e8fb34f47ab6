// airfoil — a 2D cell-centred finite-volume time-marching example in the
// style of OP2's classic airfoil demo: save -> flux -> update loops over
// a quad mesh, with the flux/update pair executed as a CA loop-chain.
// Demonstrates mixing standard loops (save_soln, with a global residual
// reduction) with a CA-enabled chain in the same time loop.
//
//   ./airfoil [--nx=128] [--ny=96] [--ranks=6] [--steps=20] [--ca=1]
#include <cmath>
#include <exception>
#include <iostream>

#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/mesh/vtk.hpp"
#include "op2ca/util/options.hpp"
#include "op2ca/util/timer.hpp"

using namespace op2ca;
using core::Access;
using core::arg_dat;
using core::arg_gbl;

namespace {

constexpr int kQ = 4;  // rho, rho*u, rho*v, rho*E

/// save_soln: qold = q (cells, direct).
void save_soln(const double* q, double* qold) {
  for (int k = 0; k < kQ; ++k) qold[k] = q[k];
}

/// flux: edge flux between the two adjacent cells (edges; q READ
/// indirect via e2c, res INC indirect via e2c).
void flux(const double* q1, const double* q2, double* res1, double* res2) {
  for (int k = 0; k < kQ; ++k) {
    const double f = 0.5 * (q1[k] - q2[k]) +
                     0.01 * (q1[(k + 1) % kQ] + q2[(k + 1) % kQ]);
    res1[k] += f;
    res2[k] -= f;
  }
}

/// update: explicit step consuming res (cells, direct) + residual norm.
void update(const double* qold, double* q, double* res, double* rms) {
  for (int k = 0; k < kQ; ++k) {
    q[k] = qold[k] - 1e-3 * res[k];
    rms[0] += res[k] * res[k];
    res[k] = 0.0;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt(argc, argv,
                    {"nx", "ny", "ranks", "steps", "ca", "vtk"});
  const gidx_t nx = opt.get_int("nx", 128), ny = opt.get_int("ny", 96);
  const int ranks = static_cast<int>(opt.get_int("ranks", 6));
  const int steps = static_cast<int>(opt.get_int("steps", 20));
  const bool ca = opt.get_bool("ca", true);

  mesh::Quad2D grid = mesh::make_quad2d(nx, ny);
  mesh::MeshDef& m = grid.mesh;
  const auto nc = static_cast<std::size_t>(m.set(grid.cells).size);
  std::vector<double> q0(nc * kQ);
  for (std::size_t i = 0; i < q0.size(); ++i)
    q0[i] = 1.0 + 0.1 * std::sin(0.005 * static_cast<double>(i));
  const mesh::dat_id q_id = m.add_dat("q", grid.cells, kQ, std::move(q0));
  m.add_dat("qold", grid.cells, kQ);
  m.add_dat("res", grid.cells, kQ);

  core::WorldConfig cfg;
  cfg.nranks = ranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  if (ca) cfg.chains.enable("flux_update", 0, 2);
  // The World gets a copy: it frees its dat values once the ranks hold
  // them, and the VTK snapshot below reads the coordinates from `m`.
  core::World w(m, cfg);

  WallTimer timer;
  std::vector<double> rms_history;
  w.run([&](core::Runtime& rt) {
    const core::Set cells = rt.set("cells"), edges = rt.set("edges");
    const core::Map e2c = rt.map("e2c");
    const core::Dat q = rt.dat("q"), qold = rt.dat("qold"),
                    res = rt.dat("res");
    for (int t = 0; t < steps; ++t) {
      rt.par_loop("save_soln", cells, save_soln,
                  arg_dat(q, Access::READ), arg_dat(qold, Access::WRITE));
      // The flux loop runs as a CA chain (one grouped exchange of q).
      rt.chain_begin("flux_update");
      rt.par_loop("flux", edges, flux, arg_dat(q, 0, e2c, Access::READ),
                  arg_dat(q, 1, e2c, Access::READ),
                  arg_dat(res, 0, e2c, Access::INC),
                  arg_dat(res, 1, e2c, Access::INC));
      rt.chain_end();
      // update carries a global reduction, so it stays outside the chain.
      double rms = 0.0;
      rt.par_loop("update", cells, update, arg_dat(qold, Access::READ),
                  arg_dat(q, Access::RW), arg_dat(res, Access::RW),
                  arg_gbl(&rms, 1, Access::INC));
      if (rt.rank() == 0) rms_history.push_back(std::sqrt(rms));
    }
  });

  std::cout << "airfoil: " << nx << "x" << ny << " cells, " << ranks
            << " ranks, " << steps << " steps, CA="
            << (ca ? "on" : "off") << '\n';
  for (int t = 0; t < steps; t += std::max(1, steps / 5))
    std::cout << "  step " << t
              << "  rms=" << rms_history[static_cast<std::size_t>(t)]
              << '\n';
  const auto chains = w.chain_metrics();
  if (chains.count("flux_update")) {
    const auto& mm = chains.at("flux_update");
    std::cout << "flux_update chain: messages=" << mm.msgs
              << " bytes=" << mm.bytes << '\n';
  }
  std::cout << "wall time " << timer.elapsed() << " s\n";

  // Sanity: the solution stays finite.
  const auto qfinal = w.fetch_dat(q_id);
  for (double v : qfinal)
    if (!std::isfinite(v)) {
      std::cout << "solution diverged\n";
      return 1;
    }
  std::cout << "solution finite after " << steps << " steps\n";

  const std::string vtk_path = opt.get_string("vtk", "");
  if (!vtk_path.empty()) {
    // Cell-centred q mapped onto nodes for visualisation: write the
    // density component averaged per node via c2n incidence.
    const gidx_t nn = m.set(grid.nodes).size;
    std::vector<double> rho(static_cast<std::size_t>(nn), 0.0);
    std::vector<int> counts(static_cast<std::size_t>(nn), 0);
    const mesh::MapDef& c2n = m.map(grid.c2n);
    for (gidx_t c = 0; c < m.set(grid.cells).size; ++c)
      for (int k = 0; k < 4; ++k) {
        const gidx_t n = c2n.targets[static_cast<std::size_t>(4 * c + k)];
        rho[static_cast<std::size_t>(n)] +=
            qfinal[static_cast<std::size_t>(c * kQ)];
        ++counts[static_cast<std::size_t>(n)];
      }
    for (gidx_t n = 0; n < nn; ++n)
      if (counts[static_cast<std::size_t>(n)] > 0)
        rho[static_cast<std::size_t>(n)] /=
            counts[static_cast<std::size_t>(n)];
    mesh::write_vtk(vtk_path, m, grid.c2n, {{"rho", rho}});
    std::cout << "wrote " << vtk_path << '\n';
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "airfoil: " << e.what() << '\n';
  return 1;
}
