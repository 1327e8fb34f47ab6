// Executor-equivalence suite: the batched region dispatch (one type-erased
// call per contiguous range / gathered list) must be BIT-IDENTICAL to the
// per-element dispatch order it replaced. WorldConfig::serial_dispatch
// re-creates the per-element path by invoking every region one element at
// a time; since both paths visit elements in the same order, every double
// must match exactly — EXPECT_EQ on the raw vectors, no tolerance.
//
// Covered modes, each multi-rank: per-loop OP2, explicit CA chains, lazy
// auto-chaining and temporal tiles (a chain's tile=<k> entry), on the
// MG-CFD synthetic chain and a Hydra chain. Chain brackets, lazy loops
// and tiles all queue in the rank's one deferred window, so each mode is
// also a different way of cutting that window into epochs. Further
// sections hold the other backends and numberings to the same results:
// the mpi-stub transport bitwise, renumbered meshes and thread widths
// within the usual tolerance.
#include <gtest/gtest.h>

#include <optional>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/comm/mpi_backend.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/reorder.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

enum class Mode { kOp2, kCa, kLazy };

WorldConfig equiv_config(int nranks, Mode mode, bool serial_dispatch,
                         int threads = 1) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  cfg.validate = true;
  cfg.serial_dispatch = serial_dispatch;
  cfg.threads_per_rank = threads;
  if (mode == Mode::kCa) cfg.chains.enable("synthetic");
  if (mode == Mode::kLazy) cfg.lazy = true;
  return cfg;
}

/// The synthetic loop pair without chain brackets, so lazy mode can form
/// its own chains (explicit brackets would bypass the lazy queue).
void plain_loops(Runtime& rt, const apps::mgcfd::Handles& h, int pairs) {
  namespace k = apps::mgcfd::kernels;
  rt.par_loop("perturb", h.nodes0, k::synth_perturb,
              arg_dat(rt.dat("spres"), Access::RW));
  for (int c = 0; c < pairs; ++c) {
    rt.par_loop("u", h.edges0, k::synth_update,
                arg_dat(h.sres, 0, h.e2n0, Access::INC),
                arg_dat(h.sres, 1, h.e2n0, Access::INC),
                arg_dat(h.spres, 0, h.e2n0, Access::READ),
                arg_dat(h.spres, 1, h.e2n0, Access::READ));
    rt.par_loop("f", h.edges0, k::synth_edge_flux,
                arg_dat(h.sflux, 0, h.e2n0, Access::INC),
                arg_dat(h.sflux, 1, h.e2n0, Access::INC),
                arg_dat(h.sres, 0, h.e2n0, Access::READ),
                arg_dat(h.sres, 1, h.e2n0, Access::READ),
                arg_dat(h.sewt, Access::READ));
  }
}

struct SynthResult {
  std::vector<double> sres, sflux, spres;
};

/// `order`, when set, renumbers the mesh before the World and maps the
/// fetched dats back to the input numbering.
SynthResult run_synth(int nranks, Mode mode, bool serial_dispatch,
                      std::optional<mesh::ReorderKind> order = {},
                      int threads = 1) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                     spres = prob.spres;
  std::vector<GIdxVec> perms;
  WorldConfig cfg = equiv_config(nranks, mode, serial_dispatch, threads);
  World w(order ? mesh::renumber(prob.mg.mesh, *order, &perms)
                : std::move(prob.mg.mesh),
          cfg);
  const auto fetch = [&](mesh::dat_id d) {
    const mesh::DatDef& dd = w.mesh().dat(d);
    if (!order) return w.fetch_dat(d);
    return mesh::unpermute_rows(perms[static_cast<std::size_t>(dd.set)],
                                dd.dim, w.fetch_dat(d));
  };
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < 2; ++t) {
      if (mode == Mode::kLazy) {
        plain_loops(rt, h, 3);
        rt.barrier();
      } else {
        apps::mgcfd::run_synthetic_chain(rt, h, 3);
      }
    }
  });
  return SynthResult{fetch(sres), fetch(sflux), fetch(spres)};
}

/// run_synth on another transport backend. The backend moves the same
/// bytes to the same buffers, so the result must be BIT-IDENTICAL to the
/// sim fabric's.
SynthResult run_synth_transport(int nranks, Mode mode,
                                const sim::TransportConfig& tc) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                     spres = prob.spres;
  WorldConfig cfg = equiv_config(nranks, mode, false);
  cfg.transport = tc;
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < 2; ++t) {
      if (mode == Mode::kLazy) {
        plain_loops(rt, h, 3);
        rt.barrier();
      } else {
        apps::mgcfd::run_synthetic_chain(rt, h, 3);
      }
    }
  });
  return SynthResult{w.fetch_dat(sres), w.fetch_dat(sflux),
                     w.fetch_dat(spres)};
}

void expect_bitwise(const SynthResult& a, const SynthResult& b) {
  EXPECT_EQ(a.sres, b.sres);
  EXPECT_EQ(a.sflux, b.sflux);
  EXPECT_EQ(a.spres, b.spres);
}

TEST(Equivalence, BatchedMatchesPerElementOp2) {
  expect_bitwise(run_synth(5, Mode::kOp2, false),
                 run_synth(5, Mode::kOp2, true));
}

TEST(Equivalence, BatchedMatchesPerElementCa) {
  expect_bitwise(run_synth(6, Mode::kCa, false),
                 run_synth(6, Mode::kCa, true));
}

TEST(Equivalence, BatchedMatchesPerElementLazy) {
  expect_bitwise(run_synth(5, Mode::kLazy, false),
                 run_synth(5, Mode::kLazy, true));
}

TEST(Equivalence, ModesAgreeToTolerance) {
  // Cross-mode results differ only by FP summation order; sanity-check
  // the three batched modes stay within the usual tolerance of each
  // other (bitwise identity across modes is NOT expected).
  const SynthResult op2 = run_synth(5, Mode::kOp2, false);
  const SynthResult ca = run_synth(5, Mode::kCa, false);
  const SynthResult lazy = run_synth(5, Mode::kLazy, false);
  testutil::expect_allclose(op2.sres, ca.sres);
  testutil::expect_allclose(op2.sres, lazy.sres);
  testutil::expect_allclose(op2.sflux, ca.sflux);
  testutil::expect_allclose(op2.sflux, lazy.sflux);
}

// -- Transport backend (WorldConfig::transport). ------------------------
//
// The backend only changes which tags cross which fabric, never which
// bytes land where, so each row is held to bitwise identity against the
// sim-fabric run of the same mode.

TEST(Equivalence, TransportMpiStubMatchesSim) {
  if (sim::MpiBackend::compiled_with_mpi())
    GTEST_SKIP() << "real MPI runs one process per rank; the multi-rank "
                    "thread harness only drives the stub";
  for (const Mode mode : {Mode::kOp2, Mode::kCa, Mode::kLazy}) {
    sim::TransportConfig tc;
    tc.backend = sim::BackendKind::Mpi;
    expect_bitwise(run_synth(5, mode, false),
                   run_synth_transport(5, mode, tc));
  }
}

// -- Renumbered meshes (mesh::renumber). --------------------------------
//
// Every path above runs the natural numbering. A renumbered mesh keeps
// per-element arithmetic (direct loops exact after mapping the fetched
// dats back — spres is written by the direct perturb loop) but permutes
// element order, so indirect-INC sums reassociate: comparisons against
// the natural order use the usual tolerance. Rows at more than 1 thread
// run the pooled sweep of 256-element colour blocks.

TEST(Equivalence, ReorderedMatchesBaselineToTolerance) {
  const SynthResult base = run_synth(5, Mode::kOp2, false);
  for (const auto kind :
       {mesh::ReorderKind::RCM, mesh::ReorderKind::SFC}) {
    const SynthResult re = run_synth(5, Mode::kOp2, false, kind);
    EXPECT_EQ(base.spres, re.spres);  // direct loop: exact
    testutil::expect_allclose(base.sres, re.sres);
    testutil::expect_allclose(base.sflux, re.sflux);
  }
}

TEST(Equivalence, ReorderedBatchedMatchesPerElement) {
  // Same (renumbered) iteration order with and without region batching:
  // bitwise, exactly like the natural-order equivalence above.
  expect_bitwise(
      run_synth(5, Mode::kOp2, false, mesh::ReorderKind::RCM),
      run_synth(5, Mode::kOp2, true, mesh::ReorderKind::RCM));
}

TEST(Equivalence, ReorderedModesAgreeSingleThread) {
  const SynthResult op2 = run_synth(5, Mode::kOp2, false,
                                    mesh::ReorderKind::RCM);
  const SynthResult ca = run_synth(5, Mode::kCa, false,
                                   mesh::ReorderKind::RCM);
  const SynthResult lazy = run_synth(5, Mode::kLazy, false,
                                     mesh::ReorderKind::RCM);
  testutil::expect_allclose(op2.sres, ca.sres);
  testutil::expect_allclose(op2.sres, lazy.sres);
  testutil::expect_allclose(op2.sflux, ca.sflux);
  testutil::expect_allclose(op2.sflux, lazy.sflux);
}

TEST(Equivalence, ReorderedModesAgreeFourThreads) {
  const SynthResult base = run_synth(4, Mode::kOp2, false);
  for (const Mode mode : {Mode::kOp2, Mode::kCa, Mode::kLazy}) {
    const SynthResult re =
        run_synth(4, mode, false, mesh::ReorderKind::RCM, 4);
    EXPECT_EQ(base.spres, re.spres);  // direct loop: exact
    testutil::expect_allclose(base.sres, re.sres);
    testutil::expect_allclose(base.sflux, re.sflux);
  }
}

TEST(Equivalence, ReorderedWidthIndependentSweeps) {
  // Pooled sweeps are a pure function of the block colouring — share
  // boundaries move with pool width, but blocks never straddle threads,
  // so any width > 1 is bitwise-identical, in natural order as in
  // renumbered ones.
  expect_bitwise(run_synth(4, Mode::kOp2, false, {}, 2),
                 run_synth(4, Mode::kOp2, false, {}, 4));
  expect_bitwise(
      run_synth(4, Mode::kOp2, false, mesh::ReorderKind::RCM, 2),
      run_synth(4, Mode::kOp2, false, mesh::ReorderKind::RCM, 4));
  expect_bitwise(
      run_synth(4, Mode::kCa, false, mesh::ReorderKind::SFC, 2),
      run_synth(4, Mode::kCa, false, mesh::ReorderKind::SFC, 4));
}

// -- Temporal tiling (ChainConfig tile=<k>). ----------------------------
//
// Fusing k back-to-back chain invocations into one exchange epoch moves
// the core/boundary split (deeper shrink levels) and regenerates halo
// values by redundant computation instead of exchange — per owned
// element the arithmetic is unchanged, so direct dats stay bitwise
// against the untiled baseline and indirect-INC dats reassociate within
// the usual 1e-9. tile=1 must be the legacy executor exactly.

/// GENUINELY back-to-back chain invocations: run_synthetic_chain puts
/// the direct perturb loop before each bracket, which is intervening
/// work that (correctly) ends every tile at one invocation. Here perturb
/// runs once up front and the bracketed pairs repeat, so full tiles
/// actually form and fuse.
void tiled_program(Runtime& rt, const apps::mgcfd::Handles& h,
                   int timesteps) {
  namespace k = apps::mgcfd::kernels;
  rt.par_loop("perturb", h.nodes0, k::synth_perturb,
              arg_dat(rt.dat("spres"), Access::RW));
  for (int t = 0; t < timesteps; ++t) {
    rt.chain_begin("synthetic");
    for (int c = 0; c < 3; ++c) {
      rt.par_loop("u", h.edges0, k::synth_update,
                  arg_dat(h.sres, 0, h.e2n0, Access::INC),
                  arg_dat(h.sres, 1, h.e2n0, Access::INC),
                  arg_dat(h.spres, 0, h.e2n0, Access::READ),
                  arg_dat(h.spres, 1, h.e2n0, Access::READ));
      rt.par_loop("f", h.edges0, k::synth_edge_flux,
                  arg_dat(h.sflux, 0, h.e2n0, Access::INC),
                  arg_dat(h.sflux, 1, h.e2n0, Access::INC),
                  arg_dat(h.sres, 0, h.e2n0, Access::READ),
                  arg_dat(h.sres, 1, h.e2n0, Access::READ),
                  arg_dat(h.sewt, Access::READ));
    }
    rt.chain_end();
  }
}

SynthResult run_synth_tiled(int nranks, int tile, Mode mode,
                            int threads = 1) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                     spres = prob.spres;
  WorldConfig cfg = equiv_config(nranks, mode, false, threads);
  if (mode == Mode::kCa) cfg.chains.enable("synthetic", 0, 0, tile);
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    tiled_program(rt, h, 4);
  });
  return SynthResult{w.fetch_dat(sres), w.fetch_dat(sflux),
                     w.fetch_dat(spres)};
}

TEST(Equivalence, TiledMatchesOp2Baseline) {
  const SynthResult base = run_synth_tiled(5, 1, Mode::kOp2);
  for (const int tile : {1, 2, 4}) {
    const SynthResult ca = run_synth_tiled(5, tile, Mode::kCa);
    EXPECT_EQ(base.spres, ca.spres);  // direct loop: exact
    testutil::expect_allclose(base.sres, ca.sres);
    testutil::expect_allclose(base.sflux, ca.sflux);
  }
}

TEST(Equivalence, TileOneIsBitwiseLegacy) {
  // An explicit tile=1 entry must take the identical code path as a
  // chain enabled without one: bitwise, not just tolerant.
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                     spres = prob.spres;
  World w(std::move(prob.mg.mesh), equiv_config(5, Mode::kCa, false));
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    tiled_program(rt, h, 4);
  });
  const SynthResult legacy{w.fetch_dat(sres), w.fetch_dat(sflux),
                           w.fetch_dat(spres)};
  expect_bitwise(legacy, run_synth_tiled(5, 1, Mode::kCa));
}

TEST(Equivalence, TiledAcrossThreadWidths) {
  // Tiling composes with threaded sweeps: at each width the tiled run
  // matches the OP2 baseline of the same width.
  for (const int threads : {1, 4}) {
    const SynthResult base = run_synth_tiled(4, 1, Mode::kOp2, threads);
    for (const int tile : {2, 4}) {
      const SynthResult ca = run_synth_tiled(4, tile, Mode::kCa, threads);
      EXPECT_EQ(base.spres, ca.spres);
      testutil::expect_allclose(base.sres, ca.sres);
      testutil::expect_allclose(base.sflux, ca.sflux);
    }
  }
}

// -- Hydra chain (vflux preceded by its gradl producer). ----------------

struct HydraResult {
  std::vector<double> ql, res, visres;
};

HydraResult run_hydra_chain(int nranks, bool enable_ca,
                            bool serial_dispatch) {
  namespace hy = apps::hydra;
  hy::Problem prob = hy::build_problem(1500);
  const hy::Problem ids = prob;
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::RIB;
  cfg.halo_depth = 2;
  cfg.validate = true;
  cfg.serial_dispatch = serial_dispatch;
  if (enable_ca) {
    cfg.chains.enable("gradl");
    cfg.chains.enable("vflux");
  }
  World w(std::move(prob.an.mesh), cfg);
  w.run([&](Runtime& rt) {
    const hy::Handles h = hy::resolve_handles(rt, ids);
    hy::run_setup(rt, h);
    hy::run_chain_gradl(rt, h);
    hy::run_chain_vflux(rt, h);
  });
  return HydraResult{w.fetch_dat(ids.ql), w.fetch_dat(ids.res),
                     w.fetch_dat(ids.visres)};
}

TEST(Equivalence, HydraVfluxBatchedMatchesPerElementCa) {
  const HydraResult batched = run_hydra_chain(5, true, false);
  const HydraResult serial = run_hydra_chain(5, true, true);
  EXPECT_EQ(batched.ql, serial.ql);
  EXPECT_EQ(batched.res, serial.res);
  EXPECT_EQ(batched.visres, serial.visres);
}

TEST(Equivalence, HydraVfluxBatchedMatchesPerElementOp2) {
  const HydraResult batched = run_hydra_chain(5, false, false);
  const HydraResult serial = run_hydra_chain(5, false, true);
  EXPECT_EQ(batched.ql, serial.ql);
  EXPECT_EQ(batched.res, serial.res);
  EXPECT_EQ(batched.visres, serial.visres);
}

}  // namespace
}  // namespace op2ca::core
