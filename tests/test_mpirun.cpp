// Real-launcher smoke suite: runs ONLY under `mpirun` on a real-MPI
// build (ctest label "mpirun"; every test skips otherwise, so the binary
// is safe to execute standalone).
//
// Each MPI process drives one rank of the MPI-backend World (SPMD mode)
// and, in the same process, an in-process sim-fabric World at the same
// width as the reference. The partition, halo plan and per-rank
// arithmetic are identical by construction, and fetch_dat reassembles
// owned slots disjointly, so results must match BITWISE — any drift
// means the MPI data path (tag encoding, framing, collectives) corrupted
// or reordered something the sim fabric did not.
#include <gtest/gtest.h>

#include <string_view>
#include <type_traits>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/comm/mpi_backend.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core {
namespace {

bool under_real_mpirun() {
  return sim::MpiBackend::compiled_with_mpi() &&
         sim::MpiBackend::launched_under_mpirun();
}

#define SKIP_UNLESS_MPIRUN()                                             \
  do {                                                                   \
    if (!under_real_mpirun())                                            \
      GTEST_SKIP() << "needs a real-MPI build launched under mpirun";    \
  } while (0)

WorldConfig config_with(sim::BackendKind backend, int nranks) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  cfg.transport.backend = backend;
  return cfg;
}

void expect_bitwise(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "first divergence at element " << i;
}

// ---- quad2d, per-loop OP2 execution --------------------------------

struct QuadProblem {
  mesh::Quad2D q;
  mesh::dat_id res = -1, pres = -1, flux = -1, cw = -1;
};

QuadProblem make_quad_problem(gidx_t nx, gidx_t ny) {
  QuadProblem p{mesh::make_quad2d(nx, ny), -1, -1, -1, -1};
  mesh::MeshDef& m = p.q.mesh;
  const auto nn = static_cast<std::size_t>(m.set(p.q.nodes).size);
  const auto nc = static_cast<std::size_t>(m.set(p.q.cells).size);
  std::vector<double> pres(nn * 2), cw(nc * 4);
  for (std::size_t i = 0; i < pres.size(); ++i)
    pres[i] = 0.5 + 0.001 * static_cast<double>(i % 97);
  for (std::size_t i = 0; i < cw.size(); ++i)
    cw[i] = -0.25 + 0.002 * static_cast<double>(i % 53);
  p.res = m.add_dat("res", p.q.nodes, 2);
  p.pres = m.add_dat("pres", p.q.nodes, 2, std::move(pres));
  p.flux = m.add_dat("flux", p.q.nodes, 2);
  p.cw = m.add_dat("cw", p.q.cells, 4, std::move(cw));
  return p;
}

void fig3_kernel_update(double* r1, double* r2, const double* p1,
                        const double* p2) {
  r1[0] += p1[0] - p1[1];
  r1[1] += p2[0] - p2[1];
  r2[0] += p2[1] - p2[0];
  r2[1] += p1[1] - p1[0];
}

void fig3_kernel_flux(double* f1, double* f2, const double* r1,
                      const double* r2, const double* c1,
                      const double* c2) {
  f1[0] += r1[0] * c1[0] - r1[1] * c1[1];
  f1[1] += r2[1] * c1[2] - r2[0] * c1[3];
  f2[0] += r2[1] * c2[2] - r1[1] * c2[3];
  f2[1] += r1[0] * c2[0] - r1[1] * c2[1];
}

void run_fig3_loops(Runtime& rt, int timesteps) {
  const Set edges = rt.set("edges");
  const Dat res = rt.dat("res"), pres = rt.dat("pres"),
            flux = rt.dat("flux"), cw = rt.dat("cw");
  const Map e2n = rt.map("e2n"), e2c = rt.map("e2c");
  for (int t = 0; t < timesteps; ++t) {
    rt.par_loop("update", edges, fig3_kernel_update,
                arg_dat(res, 0, e2n, Access::INC),
                arg_dat(res, 1, e2n, Access::INC),
                arg_dat(pres, 0, e2n, Access::READ),
                arg_dat(pres, 1, e2n, Access::READ));
    rt.par_loop("edge_flux", edges, fig3_kernel_flux,
                arg_dat(flux, 0, e2n, Access::INC),
                arg_dat(flux, 1, e2n, Access::INC),
                arg_dat(res, 0, e2n, Access::READ),
                arg_dat(res, 1, e2n, Access::READ),
                arg_dat(cw, 0, e2c, Access::READ),
                arg_dat(cw, 1, e2c, Access::READ));
  }
}

struct QuadResult {
  std::vector<double> res, flux;
};

QuadResult run_quad(sim::BackendKind backend, int nranks) {
  QuadProblem p = make_quad_problem(14, 11);
  const mesh::dat_id res = p.res, flux = p.flux;
  World w(std::move(p.q.mesh), config_with(backend, nranks));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 3); });
  return QuadResult{w.fetch_dat(res), w.fetch_dat(flux)};
}

TEST(Mpirun, Quad2dOp2MatchesSimBitwise) {
  SKIP_UNLESS_MPIRUN();
  const int nranks = sim::MpiBackend::mpi_world_size();
  const QuadResult mpi = run_quad(sim::BackendKind::Mpi, nranks);
  const QuadResult ref = run_quad(sim::BackendKind::Sim, nranks);
  expect_bitwise(ref.res, mpi.res);
  expect_bitwise(ref.flux, mpi.flux);
}

// ---- hex multigrid mesh, synthetic chain (OP2 and CA paths) ---------

struct SynthResult {
  std::vector<double> sres, sflux;
};

SynthResult run_synth(sim::BackendKind backend, int nranks, bool ca) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1500, 1);
  WorldConfig cfg = config_with(backend, nranks);
  if (ca) cfg.chains.enable("synthetic");
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux;
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < 2; ++t)
      apps::mgcfd::run_synthetic_chain(rt, h, 4);
  });
  return SynthResult{w.fetch_dat(sres), w.fetch_dat(sflux)};
}

TEST(Mpirun, HexChainOp2MatchesSimBitwise) {
  SKIP_UNLESS_MPIRUN();
  const int nranks = sim::MpiBackend::mpi_world_size();
  const SynthResult mpi = run_synth(sim::BackendKind::Mpi, nranks, false);
  const SynthResult ref = run_synth(sim::BackendKind::Sim, nranks, false);
  expect_bitwise(ref.sres, mpi.sres);
  expect_bitwise(ref.sflux, mpi.sflux);
}

TEST(Mpirun, HexChainCaMatchesSimBitwise) {
  SKIP_UNLESS_MPIRUN();
  const int nranks = sim::MpiBackend::mpi_world_size();
  const SynthResult mpi = run_synth(sim::BackendKind::Mpi, nranks, true);
  const SynthResult ref = run_synth(sim::BackendKind::Sim, nranks, true);
  expect_bitwise(ref.sres, mpi.sres);
  expect_bitwise(ref.sflux, mpi.sflux);
}

// ---- cross-process metrics reduction --------------------------------

TEST(Mpirun, MetricsMergeAcrossProcesses) {
  SKIP_UNLESS_MPIRUN();
  const int nranks = sim::MpiBackend::mpi_world_size();
  auto run_metrics = [&](sim::BackendKind backend) {
    QuadProblem p = make_quad_problem(12, 12);
    World w(std::move(p.q.mesh), config_with(backend, nranks));
    w.run([](Runtime& rt) { run_fig3_loops(rt, 2); });
    return w.loop_metrics();
  };
  const auto mpi = run_metrics(sim::BackendKind::Mpi);
  const auto ref = run_metrics(sim::BackendKind::Sim);
  ASSERT_EQ(ref.size(), mpi.size());
  for (const auto& [name, m] : ref) {
    ASSERT_TRUE(mpi.count(name)) << name;
    const LoopMetrics& o = mpi.at(name);
    // The merged totals must cover every rank of every process, exactly
    // as the threaded sim World reports them: every integer field but
    // staging_allocs, because an SPMD process keeps each received payload
    // in its own staging pool where the sim World hands it back to the
    // sender's. The double fields are wall-clock seconds.
    LoopMetrics::for_each_field(
        [&](const char* field_name, auto field, LoopMetrics::Merge) {
          if constexpr (std::is_same_v<decltype(field),
                                       std::int64_t LoopMetrics::*>) {
            if (std::string_view(field_name) != "staging_allocs") {
              EXPECT_EQ(m.*field, o.*field) << name << " " << field_name;
            }
          }
        });
  }
}

// ---- launch-shape validation ----------------------------------------

TEST(Mpirun, RankCountMismatchErrorsLoudly) {
  SKIP_UNLESS_MPIRUN();
  const int nranks = sim::MpiBackend::mpi_world_size();
  QuadProblem p = make_quad_problem(8, 8);
  EXPECT_THROW(
      World(std::move(p.q.mesh),
            config_with(sim::BackendKind::Mpi, nranks + 1)),
      Error);
}

}  // namespace
}  // namespace op2ca::core
