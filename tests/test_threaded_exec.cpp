// Threaded-execution suite for WorldConfig::threads_per_rank.
//
// Guarantees under test:
//  * width-independence: colour-ordered sweeps are a pure function of
//    the colouring, so any pool width > 1 produces BIT-IDENTICAL
//    results (threads=2 vs threads=4, EXPECT_EQ on raw vectors);
//  * threads=1 keeps the legacy single-region path and threads>1 only
//    reassociates increment sums — allclose against the serial run;
//  * serial_dispatch takes precedence over the pool;
//  * gbl-INC loops reduce exactly at any width (they run serially);
//  * the new LoopMetrics fields (chunks, colours, busy time) report.
//
// Covered across per-loop OP2, explicit CA chains and lazy auto-chains,
// on the MG-CFD synthetic chain and a Hydra chain.
#include <gtest/gtest.h>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/core/runtime.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

enum class Mode { kOp2, kCa, kLazy };

WorldConfig threaded_config(int nranks, Mode mode, int threads) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  cfg.validate = true;
  cfg.threads_per_rank = threads;
  if (mode == Mode::kCa) cfg.chains.enable("synthetic");
  if (mode == Mode::kLazy) cfg.lazy = true;
  return cfg;
}

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

SynthResult run_synth(int nranks, Mode mode, int threads,
                      World** out_world = nullptr) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                     spres = prob.spres;
  auto w = std::make_unique<World>(std::move(prob.mg.mesh),
                                   threaded_config(nranks, mode, threads));
  w->run([&](Runtime& rt) {
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
  SynthResult res{w->fetch_dat(sres), w->fetch_dat(sflux),
                  w->fetch_dat(spres)};
  if (out_world != nullptr) *out_world = w.release();
  return res;
}

void expect_bitwise(const SynthResult& a, const SynthResult& b) {
  EXPECT_EQ(a.sres, b.sres);
  EXPECT_EQ(a.sflux, b.sflux);
  EXPECT_EQ(a.spres, b.spres);
}

void expect_close(const SynthResult& a, const SynthResult& b) {
  testutil::expect_allclose(a.sres, b.sres);
  testutil::expect_allclose(a.sflux, b.sflux);
  testutil::expect_allclose(a.spres, b.spres);
}

TEST(ThreadedExec, WidthIndependentOp2) {
  expect_bitwise(run_synth(4, Mode::kOp2, 2),
                 run_synth(4, Mode::kOp2, 4));
}

TEST(ThreadedExec, WidthIndependentCa) {
  expect_bitwise(run_synth(4, Mode::kCa, 2),
                 run_synth(4, Mode::kCa, 4));
}

TEST(ThreadedExec, WidthIndependentLazy) {
  expect_bitwise(run_synth(4, Mode::kLazy, 2),
                 run_synth(4, Mode::kLazy, 4));
}

TEST(ThreadedExec, ThreadedMatchesSerialToTolerance) {
  for (Mode mode : {Mode::kOp2, Mode::kCa, Mode::kLazy})
    expect_close(run_synth(4, mode, 1), run_synth(4, mode, 3));
}

TEST(ThreadedExec, SerialDispatchOverridesPool) {
  // serial_dispatch forces the per-element path even with threads set:
  // results (and the no-pool metrics) must match serial_dispatch alone.
  auto run = [](int threads) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
    const mesh::dat_id sres = prob.sres;
    WorldConfig cfg = threaded_config(3, Mode::kOp2, threads);
    cfg.serial_dispatch = true;
    World w(std::move(prob.mg.mesh), cfg);
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      apps::mgcfd::run_synthetic_chain(rt, h, 2);
    });
    auto out = w.fetch_dat(sres);
    for (const auto& [name, m] : w.loop_metrics()) {
      EXPECT_EQ(m.chunks, 0) << name;
      EXPECT_EQ(m.max_colours, 0) << name;
      EXPECT_EQ(m.busy_seconds, 0.0) << name;
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ThreadedExec, MetricsReportChunksAndColours) {
  World* w = nullptr;
  run_synth(3, Mode::kOp2, 4, &w);
  std::unique_ptr<World> owned(w);
  const auto metrics = owned->loop_metrics();
  // Direct RW loop: one colour of blocks split across the pool; only
  // indirect-write sweeps count colours.
  EXPECT_GT(metrics.at("synth_perturb").chunks, 0);
  EXPECT_EQ(metrics.at("synth_perturb").max_colours, 0);
  // Indirect-INC loops: colour-ordered sweeps over >= 2 colours (blocks
  // of consecutive edges share nodes with their neighbours), counted as
  // chunked regions.
  for (const char* name : {"synth_update", "synth_edge_flux"}) {
    EXPECT_GT(metrics.at(name).chunks, 0) << name;
    EXPECT_GE(metrics.at(name).max_colours, 2) << name;
    EXPECT_GT(metrics.at(name).busy_seconds, 0.0) << name;
  }
}

TEST(ThreadedExec, ChainMetricsReportColours) {
  World* w = nullptr;
  run_synth(3, Mode::kCa, 4, &w);
  std::unique_ptr<World> owned(w);
  const auto metrics = owned->chain_metrics();
  ASSERT_TRUE(metrics.count("synthetic"));
  EXPECT_GT(metrics.at("synthetic").chunks, 0);
  EXPECT_GE(metrics.at("synthetic").max_colours, 2);
}

TEST(ThreadedExec, GblReductionExactAtAnyWidth) {
  // arg_gbl INC loops run the serial region path under the pool; the
  // owned-only sum must stay exact at every width.
  for (int threads : {1, 4}) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(900, 1);
    const gidx_t nnodes =
        prob.mg.mesh.set(prob.mg.levels[0].nodes).size;
    World w(std::move(prob.mg.mesh),
            threaded_config(3, Mode::kOp2, threads));
    double total = 0.0;
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      double local = 0.0;
      rt.par_loop(
          "count", h.nodes0,
          [](const double* pr, double* acc) { acc[0] += 1.0 + 0.0 * pr[0]; },
          arg_dat(rt.dat("spres"), Access::READ),
          arg_gbl(&local, 1, Access::INC));
      if (rt.rank() == 0) total = local;
    });
    EXPECT_DOUBLE_EQ(total, static_cast<double>(nnodes)) << threads;
  }
}

// -- Hydra chain (vflux preceded by its gradl producer). ----------------

struct HydraResult {
  std::vector<double> ql, res, visres;
};

HydraResult run_hydra(int nranks, bool enable_ca, int threads) {
  namespace hy = apps::hydra;
  hy::Problem prob = hy::build_problem(1500);
  const hy::Problem ids = prob;
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::RIB;
  cfg.halo_depth = 2;
  cfg.validate = true;
  cfg.threads_per_rank = threads;
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

TEST(ThreadedExec, HydraWidthIndependentCa) {
  const HydraResult a = run_hydra(4, true, 2);
  const HydraResult b = run_hydra(4, true, 4);
  EXPECT_EQ(a.ql, b.ql);
  EXPECT_EQ(a.res, b.res);
  EXPECT_EQ(a.visres, b.visres);
}

TEST(ThreadedExec, HydraThreadedMatchesSerialToTolerance) {
  for (bool ca : {false, true}) {
    const HydraResult serial = run_hydra(4, ca, 1);
    const HydraResult threaded = run_hydra(4, ca, 3);
    testutil::expect_allclose(serial.ql, threaded.ql);
    testutil::expect_allclose(serial.res, threaded.res);
    testutil::expect_allclose(serial.visres, threaded.visres);
  }
}

}  // namespace
}  // namespace op2ca::core
