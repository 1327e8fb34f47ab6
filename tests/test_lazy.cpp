// Lazy-evaluation tests: with WorldConfig::lazy, par_loops queue up and
// flush at synchronisation points as automatically-formed CA chains.
// Results must match eager execution; infeasible fragments must fall
// back to per-loop execution transparently.
#include <gtest/gtest.h>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/util/error.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

using testutil::expect_allclose;

WorldConfig lazy_config(int nranks, bool lazy) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 3;
  cfg.validate = true;
  cfg.lazy = lazy;
  return cfg;
}

/// The synthetic loops issued WITHOUT chain_begin/chain_end: in lazy
/// mode the runtime must chain them automatically.
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

struct Result {
  std::vector<double> sres, sflux;
  std::map<std::string, LoopMetrics> loops, chains;
};

Result run(int nranks, bool lazy, int pairs, int steps) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux;
  World w(std::move(prob.mg.mesh), lazy_config(nranks, lazy));
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < steps; ++t) {
      plain_loops(rt, h, pairs);
      rt.barrier();  // sync point: forces a flush per timestep
    }
  });
  return Result{w.fetch_dat(sres), w.fetch_dat(sflux), w.loop_metrics(),
                w.chain_metrics()};
}

TEST(Lazy, MatchesEagerExecution) {
  const Result eager = run(5, false, 3, 2);
  const Result lazy = run(5, true, 3, 2);
  expect_allclose(eager.sres, lazy.sres);
  expect_allclose(eager.sflux, lazy.sflux);
}

TEST(Lazy, MatchesSerial) {
  const Result serial = run(1, false, 4, 2);
  const Result lazy = run(6, true, 4, 2);
  expect_allclose(serial.sres, lazy.sres);
  expect_allclose(serial.sflux, lazy.sflux);
}

TEST(Lazy, FormsChainsAutomatically) {
  const Result lazy = run(5, true, 4, 2);
  // Some lazy:<signature> chain must exist and carry the grouped
  // messages; the constituent loops must NOT have sent per-loop
  // exchanges of their own.
  std::int64_t lazy_msgs = 0;
  bool found = false;
  for (const auto& [name, m] : lazy.chains) {
    if (name.rfind("lazy:", 0) == 0) {
      found = true;
      lazy_msgs += m.msgs;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(lazy_msgs, 0);
  // The "u"/"f" loops only appear in loop metrics if they ran eagerly.
  EXPECT_EQ(lazy.loops.count("u"), 0u);
  EXPECT_EQ(lazy.loops.count("f"), 0u);
}

TEST(Lazy, FewerMessagesThanEager) {
  const Result eager = run(6, false, 8, 2);
  const Result lazy = run(6, true, 8, 2);
  auto total_msgs = [](const Result& r) {
    std::int64_t n = 0;
    for (const auto& [name, m] : r.loops) n += m.msgs;
    for (const auto& [name, m] : r.chains) n += m.msgs;
    return n;
  };
  EXPECT_LT(total_msgs(lazy), total_msgs(eager) / 2);
}

TEST(Lazy, GblReductionFlushesAndReduces) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  const gidx_t nnodes = prob.mg.mesh.set(prob.mg.levels[0].nodes).size;
  World w(std::move(prob.mg.mesh), lazy_config(4, true));
  double total = 0.0;
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    plain_loops(rt, h, 2);  // queued
    double count = 0.0;
    rt.par_loop(
        "count", h.nodes0,
        [](const double* p, double* acc) { acc[0] += 1.0 + 0.0 * p[0]; },
        arg_dat(rt.dat("spres"), Access::READ),
        arg_gbl(&count, 1, Access::INC));
    if (rt.rank() == 0) total = count;
  });
  EXPECT_DOUBLE_EQ(total, static_cast<double>(nnodes));
}

TEST(Lazy, InfeasibleFragmentFallsBack) {
  // perturb (direct node write) followed by a dependent indirect read in
  // ONE flush unit is not CA-executable; the lazy runtime must fall back
  // to per-loop execution and still produce correct results.
  auto run_mixed = [](int nranks, bool lazy) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
    const mesh::dat_id sres = prob.sres;
    World w(std::move(prob.mg.mesh), lazy_config(nranks, lazy));
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      namespace k = apps::mgcfd::kernels;
      // No barrier between perturb and the update: they land in the
      // same lazy fragment, which the inspector rejects.
      rt.par_loop("perturb", h.nodes0, k::synth_perturb,
                  arg_dat(rt.dat("spres"), Access::RW));
      rt.par_loop("u", h.edges0, k::synth_update,
                  arg_dat(h.sres, 0, h.e2n0, Access::INC),
                  arg_dat(h.sres, 1, h.e2n0, Access::INC),
                  arg_dat(h.spres, 0, h.e2n0, Access::READ),
                  arg_dat(h.spres, 1, h.e2n0, Access::READ));
    });
    return w.fetch_dat(sres);
  };
  expect_allclose(run_mixed(1, false), run_mixed(5, true));
}

TEST(Lazy, ExplicitChainsStillWork) {
  // chain_begin inside a lazy program flushes the queue and runs the
  // explicit chain as usual.
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  const mesh::dat_id sflux = prob.sflux;
  WorldConfig cfg = lazy_config(4, true);
  cfg.chains.enable("synthetic");
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    apps::mgcfd::run_synthetic_chain(rt, h, 2);  // explicit chain
  });
  EXPECT_GT(w.chain_metrics().at("synthetic").calls, 0);
  for (double v : w.fetch_dat(sflux)) ASSERT_TRUE(std::isfinite(v));
}

TEST(Lazy, FailedRunDropsQueuedLoops) {
  // A loop queued before the SPMD function threw belongs to the failed
  // run: it never runs, not even at the next run's first flush.
  mesh::Quad2D q = mesh::make_quad2d(4, 4);
  const auto nn = static_cast<std::size_t>(q.mesh.set(q.nodes).size);
  const mesh::dat_id v =
      q.mesh.add_dat("v", q.nodes, 1, std::vector<double>(nn, 10.0));
  World w(std::move(q.mesh), lazy_config(1, true));
  const auto add_one = [v](Runtime& rt) {
    rt.par_loop("add_one", rt.set("nodes"), [](double* p) { p[0] += 1.0; },
                arg_dat(rt.dat(v), Access::RW));
  };
  EXPECT_THROW(w.run([&](Runtime& rt) {
                 add_one(rt);
                 raise("deliberate failure after queueing a loop");
               }),
               Error);
  w.run(add_one);
  for (const double x : w.fetch_dat(v)) ASSERT_EQ(x, 11.0);
}

TEST(Lazy, BitwiseDeterministicAcrossRuns) {
  auto once = [] {
    return run(5, true, 4, 2);
  };
  const Result a = once();
  const Result b = once();
  EXPECT_EQ(a.sres, b.sres);    // bitwise
  EXPECT_EQ(a.sflux, b.sflux);
}

}  // namespace
}  // namespace op2ca::core
