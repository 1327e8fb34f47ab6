// CA executor (Alg 2) tests: chained execution must produce the same
// owned results as per-loop OP2 execution and as single-rank sequential
// execution, while exchanging a single grouped message per neighbour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/util/error.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

using testutil::expect_allclose;

WorldConfig base_config(int nranks, int depth) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = depth;
  cfg.validate = true;
  return cfg;
}

/// Runs the MG-CFD synthetic chain for `timesteps` outer iterations and
/// returns the final sres/sflux global values.
struct SynthResult {
  std::vector<double> sres, sflux, spres;
};

SynthResult run_synth(int nranks, int nchains, int timesteps, bool enable_ca,
                      int depth = 2, gidx_t target_nodes = 1200) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(target_nodes, 1);
  WorldConfig cfg = base_config(nranks, depth);
  if (enable_ca) cfg.chains.enable("synthetic", 2 * nchains, depth);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                     spres = prob.spres;
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < timesteps; ++t)
      apps::mgcfd::run_synthetic_chain(rt, h, nchains);
  });
  return SynthResult{w.fetch_dat(sres), w.fetch_dat(sflux),
                     w.fetch_dat(spres)};
}

TEST(ChainExec, CaMatchesSerial) {
  const SynthResult serial = run_synth(1, 3, 2, false);
  const SynthResult ca = run_synth(6, 3, 2, true);
  expect_allclose(serial.sres, ca.sres);
  expect_allclose(serial.sflux, ca.sflux);
  expect_allclose(serial.spres, ca.spres);
}

TEST(ChainExec, CaMatchesBaselineOp2) {
  const SynthResult op2 = run_synth(5, 4, 2, false);
  const SynthResult ca = run_synth(5, 4, 2, true);
  expect_allclose(op2.sres, ca.sres);
  expect_allclose(op2.sflux, ca.sflux);
}

TEST(ChainExec, LongChainManyRanks) {
  const SynthResult serial = run_synth(1, 8, 1, false);
  const SynthResult ca = run_synth(8, 8, 1, true);
  expect_allclose(serial.sres, ca.sres);
  expect_allclose(serial.sflux, ca.sflux);
}

TEST(ChainExec, SingleMessagePerNeighborPerChain) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  WorldConfig cfg = base_config(6, 2);
  cfg.chains.enable("synthetic");
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    apps::mgcfd::run_synthetic_chain(rt, h, 4);
  });
  const auto chains = w.chain_metrics();
  const LoopMetrics& m = chains.at("synthetic");
  // One grouped message per neighbour per rank: total messages equal the
  // number of directed neighbour pairs, regardless of the 8 loops and
  // multiple dats involved.
  std::int64_t directed_pairs = 0;
  for (const auto& rp : w.plan().ranks)
    directed_pairs += static_cast<std::int64_t>(rp.neighbors.size());
  EXPECT_LE(m.msgs, directed_pairs);
  EXPECT_GT(m.msgs, 0);
}

TEST(ChainExec, BaselineSendsManyMoreMessages) {
  auto count_msgs = [](bool enable_ca) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
    WorldConfig cfg = base_config(6, 2);
    if (enable_ca) cfg.chains.enable("synthetic");
    World w(std::move(prob.mg.mesh), cfg);
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      apps::mgcfd::run_synthetic_chain(rt, h, 8);
    });
    return w.chain_metrics().at("synthetic").msgs;
  };
  const std::int64_t op2 = count_msgs(false);
  const std::int64_t ca = count_msgs(true);
  // 8 chained pairs: baseline re-exchanges sres for every edge_flux
  // (plus spres once); CA sends one grouped message per neighbour.
  EXPECT_GE(op2, 4 * ca);
}

TEST(ChainExec, DisabledChainFallsBackToOp2) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  WorldConfig cfg = base_config(4, 2);
  cfg.chains.disable("synthetic");
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    apps::mgcfd::run_synthetic_chain(rt, h, 2);
  });
  // Loops were metered individually (OP2 path) and under the chain name.
  const auto loops = w.loop_metrics();
  EXPECT_GT(loops.at("synth_update").calls, 0);
  const auto chains = w.chain_metrics();
  EXPECT_GT(chains.at("synthetic").calls, 0);
}

TEST(ChainExec, DisabledChainMetersEveryField) {
  // A CA-disabled chain's entry folds in its loops' metrics whole. Its
  // loops run nowhere else, so every summed field equals the sum of the
  // loops' entries and every max field their maximum. Only calls (one per
  // invocation), tile (1: untiled) and max_rank_bytes (a rank's bytes over
  // one invocation) are defined per chain.
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  WorldConfig cfg = base_config(4, 2);
  cfg.chains.disable("synthetic");
  cfg.threads_per_rank = 2;
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < 3; ++t) apps::mgcfd::run_synthetic_chain(rt, h, 2);
  });
  const LoopMetrics chain = w.chain_metrics().at("synthetic");
  const auto loops = w.loop_metrics();
  const LoopMetrics& u = loops.at("synth_update");
  const LoopMetrics& f = loops.at("synth_edge_flux");

  LoopMetrics::for_each_field([&](const char* name, auto field,
                                  LoopMetrics::Merge merge) {
    const std::string_view n = name;
    if (n == "calls" || n == "tile" || n == "max_rank_bytes") return;
    if (merge == LoopMetrics::Merge::Max) {
      EXPECT_EQ(chain.*field, std::max(u.*field, f.*field)) << name;
    } else if constexpr (std::is_same_v<decltype(field),
                                        double LoopMetrics::*>) {
      const double sum = u.*field + f.*field;
      EXPECT_NEAR(chain.*field, sum, 1e-12 * (1.0 + sum)) << name;
    } else {
      EXPECT_EQ(chain.*field, u.*field + f.*field) << name;
    }
  });

  EXPECT_EQ(chain.calls, 3);
  EXPECT_EQ(chain.tile, 1);
  // One invocation sends every loop's bytes, so a rank's bytes per
  // invocation are at least those of either loop.
  EXPECT_GE(chain.max_rank_bytes,
            std::max(u.max_rank_bytes, f.max_rank_bytes));
  // The threaded and halo counters are present, not zero.
  EXPECT_GT(chain.chunks, 0);
  EXPECT_GT(chain.busy_seconds, 0.0);
  EXPECT_GT(chain.max_colours, 0);
  EXPECT_GT(chain.halo_elems, 0);
}

TEST(ChainExec, InsufficientHaloDepthRaises) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  WorldConfig cfg = base_config(4, /*depth=*/1);  // chain needs 2
  cfg.chains.enable("synthetic");
  World w(std::move(prob.mg.mesh), cfg);
  EXPECT_THROW(
      w.run([&](Runtime& rt) {
        const auto h = apps::mgcfd::resolve_handles(rt, prob);
        apps::mgcfd::run_synthetic_chain(rt, h, 2);
      }),
      Error);
}

TEST(ChainExec, ConfiguredDepthCapRaises) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  WorldConfig cfg = base_config(4, 3);
  cfg.chains.enable("synthetic", 0, /*max_depth=*/1);
  World w(std::move(prob.mg.mesh), cfg);
  try {
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      apps::mgcfd::run_synthetic_chain(rt, h, 2);
    });
    ADD_FAILURE() << "a chain deeper than its chains.cfg cap ran";
  } catch (const Error& e) {
    // The message names the depth the chain needs and the cap it broke.
    const std::string what = e.what();
    EXPECT_NE(what.find("needs 2 halo layers"), std::string::npos) << what;
    EXPECT_NE(what.find("depth=1"), std::string::npos) << what;
  }
}

TEST(ChainExec, NestedChainBeginRaises) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  World w(std::move(prob.mg.mesh), base_config(2, 2));
  EXPECT_THROW(w.run([](Runtime& rt) {
                 rt.chain_begin("a");
                 rt.chain_begin("b");
               }),
               Error);
  // chain_end without begin is also rejected (fresh world: the previous
  // failure poisoned the first one).
  apps::mgcfd::Problem prob2 = apps::mgcfd::build_problem(1000, 1);
  World w2(std::move(prob2.mg.mesh), base_config(2, 2));
  EXPECT_THROW(w2.run([](Runtime& rt) { rt.chain_end(); }), Error);
}

TEST(ChainExec, GblReductionInsideChainRaises) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  WorldConfig cfg = base_config(2, 2);
  cfg.chains.enable("bad");
  World w(std::move(prob.mg.mesh), cfg);
  EXPECT_THROW(
      w.run([&](Runtime& rt) {
        const Set nodes = rt.set("nodes_l0");
        const Dat sres = rt.dat("sres");
        double acc = 0.0;
        rt.chain_begin("bad");
        rt.par_loop(
            "reduce", nodes,
            [](const double* r, double* a) { a[0] += r[0]; },
            arg_dat(sres, Access::READ), arg_gbl(&acc, 1, Access::INC));
        rt.chain_end();
      }),
      Error);
}

TEST(ChainExec, ChainCoresSmallerThanBaselineCores) {
  // The shrinking cores of Alg 2 must show up in the metrics: CA core
  // iterations < baseline core iterations for the same chain.
  auto core_iters = [](bool enable_ca) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1500, 1);
    WorldConfig cfg = base_config(6, 2);
    if (enable_ca) cfg.chains.enable("synthetic");
    World w(std::move(prob.mg.mesh), cfg);
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      apps::mgcfd::run_synthetic_chain(rt, h, 6);
    });
    return w.chain_metrics().at("synthetic").core_iters;
  };
  EXPECT_LT(core_iters(true), core_iters(false));
}

TEST(ChainExec, RepeatedChainsUseCachedAnalysis) {
  // Functional check: repeated executions stay correct (the analysis
  // cache returns the same plan) and dirty bits keep the halos synced.
  const SynthResult once = run_synth(1, 2, 6, false);
  const SynthResult many = run_synth(4, 2, 6, true);
  expect_allclose(once.sres, many.sres);
  expect_allclose(once.sflux, many.sflux);
}

TEST(ChainExec, DepthOneSyncDoesNotSatisfyDepthTwoChain) {
  // fresh_depth is layered: a depth-1 sync (vflux-style chain) must not
  // suppress the deeper exchange a depth-2 chain needs afterwards.
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  WorldConfig cfg = base_config(5, 2);
  cfg.chains.enable("shallow");
  cfg.chains.enable("synthetic");
  const mesh::dat_id sres_id = prob.sres, sflux_id = prob.sflux;
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    namespace k = apps::mgcfd::kernels;
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    // Dirty spres, then a single-loop depth-1 chain reading it.
    rt.par_loop("perturb", h.nodes0, k::synth_perturb,
                arg_dat(h.spres, Access::RW));
    rt.chain_begin("shallow");
    rt.par_loop("shallow_update", h.edges0, k::synth_update,
                arg_dat(h.sres, 0, h.e2n0, Access::INC),
                arg_dat(h.sres, 1, h.e2n0, Access::INC),
                arg_dat(h.spres, 0, h.e2n0, Access::READ),
                arg_dat(h.spres, 1, h.e2n0, Access::READ));
    rt.chain_end();
    // Now the depth-2 synthetic chain: spres level-1 halo is fresh but
    // level 2 is not; the chain must exchange it again (deeper).
    apps::mgcfd::run_synthetic_chain(rt, h, 2);
  });
  const auto chains = w.chain_metrics();
  EXPECT_GT(chains.at("synthetic").msgs, 0);

  // Equivalence against a serial run of the same program.
  apps::mgcfd::Problem sp = apps::mgcfd::build_problem(1200, 1);
  World ws(std::move(sp.mg.mesh), base_config(1, 2));
  ws.run([&](Runtime& rt) {
    namespace k = apps::mgcfd::kernels;
    const auto h = apps::mgcfd::resolve_handles(rt, sp);
    rt.par_loop("perturb", h.nodes0, k::synth_perturb,
                arg_dat(h.spres, Access::RW));
    rt.par_loop("shallow_update", h.edges0, k::synth_update,
                arg_dat(h.sres, 0, h.e2n0, Access::INC),
                arg_dat(h.sres, 1, h.e2n0, Access::INC),
                arg_dat(h.spres, 0, h.e2n0, Access::READ),
                arg_dat(h.spres, 1, h.e2n0, Access::READ));
    apps::mgcfd::run_synthetic_chain(rt, h, 2);
  });
  expect_allclose(ws.fetch_dat(sp.sres), w.fetch_dat(sres_id));
  expect_allclose(ws.fetch_dat(sp.sflux), w.fetch_dat(sflux_id));
}

TEST(ChainExec, LoopAndChainOfOneNameKeepSeparateWindows) {
  // A CA chain named after one of its loops, then that loop run loose:
  // the chain window and the loop's one-loop window share a name, and
  // each must still run its own regions and exchanges.
  const auto run = [](int nranks, bool enable_ca) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
    WorldConfig cfg = base_config(nranks, 2);
    if (enable_ca) cfg.chains.enable("synth_update");
    const mesh::dat_id sres = prob.sres;
    World w(std::move(prob.mg.mesh), cfg);
    w.run([&](Runtime& rt) {
      namespace k = apps::mgcfd::kernels;
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      const auto update = [&] {
        rt.par_loop("synth_update", h.edges0, k::synth_update,
                    arg_dat(h.sres, 0, h.e2n0, Access::INC),
                    arg_dat(h.sres, 1, h.e2n0, Access::INC),
                    arg_dat(h.spres, 0, h.e2n0, Access::READ),
                    arg_dat(h.spres, 1, h.e2n0, Access::READ));
      };
      for (int t = 0; t < 2; ++t) {
        rt.par_loop("perturb", h.nodes0, k::synth_perturb,
                    arg_dat(h.spres, Access::RW));
        rt.chain_begin("synth_update");
        update();
        rt.par_loop("synth_edge_flux", h.edges0, k::synth_edge_flux,
                    arg_dat(h.sflux, 0, h.e2n0, Access::INC),
                    arg_dat(h.sflux, 1, h.e2n0, Access::INC),
                    arg_dat(h.sres, 0, h.e2n0, Access::READ),
                    arg_dat(h.sres, 1, h.e2n0, Access::READ),
                    arg_dat(h.sewt, Access::READ));
        rt.chain_end();
        update();  // loose, after the chain of the same name
      }
    });
    if (enable_ca) {
      const LoopMetrics chain = w.chain_metrics().at("synth_update");
      const LoopMetrics loose = w.loop_metrics().at("synth_update");
      EXPECT_EQ(chain.calls, 2);
      EXPECT_EQ(loose.calls, 2);
      // Only the chain window runs sliced exec lists; the loose loop's
      // own window runs the structural exec layer, which is not redundant.
      EXPECT_GT(chain.redundant_elems, 0);
      EXPECT_EQ(loose.redundant_elems, 0);
    }
    return w.fetch_dat(sres);
  };
  expect_allclose(run(1, false), run(4, true));
}

}  // namespace
}  // namespace op2ca::core
