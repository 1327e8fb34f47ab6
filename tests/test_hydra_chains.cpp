// Integration tests of the Hydra analogue: each of the six paper chains
// must produce identical owned results under (a) single-rank sequential
// execution, (b) multi-rank per-loop OP2 execution and (c) multi-rank CA
// execution, and the per-chain communication metrics must show the
// paper's qualitative behaviour.
#include <gtest/gtest.h>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/core/runtime.hpp"
#include "test_common.hpp"

namespace op2ca::apps::hydra {
namespace {

using core::Runtime;
using core::World;
using core::WorldConfig;
using testutil::expect_allclose;

WorldConfig hydra_config(int nranks, bool enable_ca) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::RIB;  // Hydra's default partitioner
  cfg.halo_depth = 2;
  cfg.validate = true;
  if (enable_ca)
    for (const std::string& name : chain_names()) cfg.chains.enable(name);
  return cfg;
}

/// Runs setup + `iters` main iterations; returns final state dats.
struct HydraState {
  std::vector<double> qo, qp, ql, vol, res, visres, pwk, bwk, cbv;
};

HydraState run_hydra(int nranks, bool enable_ca, int iters,
                     gidx_t nodes = 2500) {
  Problem prob = build_problem(nodes);
  const Problem ids = prob;  // copy of the handle ids (mesh moved below)
  World w(std::move(prob.an.mesh), hydra_config(nranks, enable_ca));
  w.run([&](Runtime& rt) {
    const Handles h = resolve_handles(rt, ids);
    run_setup(rt, h);
    for (int i = 0; i < iters; ++i) run_iteration(rt, h);
  });
  return HydraState{
      w.fetch_dat(ids.qo),  w.fetch_dat(ids.qp),     w.fetch_dat(ids.ql),
      w.fetch_dat(ids.vol), w.fetch_dat(ids.res),    w.fetch_dat(ids.visres),
      w.fetch_dat(ids.pwk), w.fetch_dat(ids.bwk),    w.fetch_dat(ids.cbv)};
}

void expect_state_close(const HydraState& a, const HydraState& b) {
  expect_allclose(a.qo, b.qo);
  expect_allclose(a.qp, b.qp);
  expect_allclose(a.ql, b.ql);
  expect_allclose(a.vol, b.vol);
  expect_allclose(a.res, b.res);
  expect_allclose(a.visres, b.visres);
  expect_allclose(a.pwk, b.pwk);
  expect_allclose(a.bwk, b.bwk);
  expect_allclose(a.cbv, b.cbv);
}

TEST(HydraExec, CaMatchesSerialOverFullRun) {
  const HydraState serial = run_hydra(1, false, 2);
  const HydraState ca = run_hydra(6, true, 2);
  expect_state_close(serial, ca);
}

TEST(HydraExec, CaMatchesBaselineSameRanks) {
  const HydraState op2 = run_hydra(5, false, 2);
  const HydraState ca = run_hydra(5, true, 2);
  expect_state_close(op2, ca);
}

TEST(HydraExec, BaselineMatchesSerial) {
  const HydraState serial = run_hydra(1, false, 2);
  const HydraState op2 = run_hydra(7, false, 2);
  expect_state_close(serial, op2);
}

/// Collects per-chain metrics for one execution mode.
std::map<std::string, core::LoopMetrics> chain_metrics_for(int nranks,
                                                           bool enable_ca,
                                                           int iters) {
  Problem prob = build_problem(2500);
  const Problem ids = prob;
  World w(std::move(prob.an.mesh), hydra_config(nranks, enable_ca));
  w.run([&](Runtime& rt) {
    const Handles h = resolve_handles(rt, ids);
    run_setup(rt, h);
    for (int i = 0; i < iters; ++i) run_iteration(rt, h);
  });
  return w.chain_metrics();
}

TEST(HydraMetrics, CaReducesMessageCountForEveryChain) {
  const auto op2 = chain_metrics_for(6, false, 2);
  const auto ca = chain_metrics_for(6, true, 2);
  for (const std::string& name : chain_names()) {
    ASSERT_TRUE(op2.count(name)) << name;
    ASSERT_TRUE(ca.count(name)) << name;
    if (op2.at(name).msgs > 0) {
      EXPECT_LT(ca.at(name).msgs, op2.at(name).msgs) << name;
    }
  }
}

TEST(HydraMetrics, GroupingOnlyChainsKeepBytesCutMessages) {
  // Table 5 structure: vflux and jacob group the same bytes into far
  // fewer messages (the paper's 0%-comm-reduction rows; see
  // EXPERIMENTS.md for the jacob byte-reduction caveat).
  const auto op2 = chain_metrics_for(6, false, 3);
  const auto ca = chain_metrics_for(6, true, 3);
  for (const char* name : {"vflux", "jacob"}) {
    const double ratio = static_cast<double>(ca.at(name).bytes) /
                         static_cast<double>(op2.at(name).bytes);
    EXPECT_NEAR(ratio, 1.0, 0.05) << name;
    EXPECT_LT(ca.at(name).msgs * 2, op2.at(name).msgs) << name;
  }
}

TEST(HydraMetrics, GradlIncreasesRedundantComputation) {
  // gradl needs two halo layers: its CA halo-iteration count must exceed
  // the baseline's (this is what degrades gradl in Fig 12).
  const auto op2 = chain_metrics_for(6, false, 2);
  const auto ca = chain_metrics_for(6, true, 2);
  EXPECT_GT(ca.at("gradl").halo_iters, op2.at("gradl").halo_iters);
}

TEST(HydraMetrics, JacobAddsNoRedundantComputation) {
  // Table 5: jacob's computation increase is 0.00% — all three loops
  // stay at one halo layer, so CA executes the same iterations.
  const auto op2 = chain_metrics_for(6, false, 2);
  const auto ca = chain_metrics_for(6, true, 2);
  EXPECT_EQ(ca.at("jacob").core_iters + ca.at("jacob").halo_iters,
            op2.at("jacob").core_iters + op2.at("jacob").halo_iters);
}

TEST(HydraExec, SelectiveChainEnabling) {
  // Only vflux CA-enabled; everything else runs as plain loops — the
  // "standard loops interspersed with selected loop-chains" mode.
  Problem prob = build_problem(2000);
  const Problem ids = prob;
  WorldConfig cfg = hydra_config(4, false);
  cfg.chains.enable("vflux");
  World w(std::move(prob.an.mesh), cfg);
  w.run([&](Runtime& rt) {
    const Handles h = resolve_handles(rt, ids);
    run_setup(rt, h);
    run_iteration(rt, h);
  });
  // Compare against full serial.
  const HydraState serial = run_hydra(1, false, 1, 2000);
  expect_allclose(serial.qo, w.fetch_dat(ids.qo));
  expect_allclose(serial.res, w.fetch_dat(ids.res));
}

TEST(HydraExec, RungeKuttaIterationMatchesSerial) {
  // The full 5-stage RK time step (every chain executed five times per
  // iteration) must agree between serial and CA-parallel execution.
  auto run_rk = [](int nranks, bool ca) {
    Problem prob = build_problem(2000);
    const Problem ids = prob;
    World w(std::move(prob.an.mesh), hydra_config(nranks, ca));
    w.run([&](Runtime& rt) {
      const Handles h = resolve_handles(rt, ids);
      run_setup(rt, h);
      for (int i = 0; i < 2; ++i) run_rk_iteration(rt, h);
    });
    return std::make_pair(w.fetch_dat(ids.qo), w.fetch_dat(ids.qp));
  };
  const auto serial = run_rk(1, false);
  const auto ca = run_rk(5, true);
  expect_allclose(serial.first, ca.first);
  expect_allclose(serial.second, ca.second);
}

TEST(HydraExec, TwentyIterationsStayFinite) {
  // The paper's benchmark horizon (20 main iterations): no NaN/inf.
  const HydraState st = run_hydra(4, true, 20, 1500);
  for (double v : st.qo) EXPECT_TRUE(std::isfinite(v));
  for (double v : st.res) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace op2ca::apps::hydra
