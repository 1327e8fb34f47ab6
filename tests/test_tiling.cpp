// Temporal chain tiling (ChainConfig tile=<k>): up to k back-to-back,
// structure-equal invocations of an enabled chain fill one unit of the
// rank's deferred window, and the unit runs as ONE communication epoch
// over the unrolled k*L loop window. This suite covers that execution —
// inspector analysis across the unrolled sequence, the depth clamp with
// its loud per-invocation fallback, slice-shrink validity of the fused
// execution (validate=true everywhere), partial tiles cut by a loose loop
// or drained at the end of run, and the tile-geometry-keyed plan cache.
// A partial tile runs as soon as other work follows it: a loose loop,
// another chain's bracket or an invocation with a new loop structure.
// Two tests pin that through the arg_gbl READ value each deferred loop
// reads when it runs.
//
// The chain under test is a Jacobi-style relaxation pair (fwd: b += f(a),
// bwd: a += f(b), both through e2n): every invocation re-dirties what
// the next one reads, so the fused window's required depth grows by the
// per-invocation requirement (2 layers) for every extra invocation —
// the regime temporal tiling exists for. Contrast the MG-CFD synthetic
// chain, whose INC-only coupling keeps the requirement constant.
#include <gtest/gtest.h>

#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/hex3d.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/mesh/reorder.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/log.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

using testutil::expect_allclose;

/// Antisymmetric weighted relaxation along an edge.
struct JacobiRelax {
  template <typename O1, typename O2, typename I1, typename I2,
            typename W>
  void operator()(O1&& o1, O2&& o2, I1&& i1, I2&& i2, W&& w) const {
    const double f = 1e-3 * (1.0 + 0.1 * w[0]);
    o1[0] += f * (i2[0] - i1[0]);
    o2[0] += f * (i1[0] - i2[0]);
  }
};
inline constexpr JacobiRelax jacobi_relax{};

/// Direct node update, used as intervening work between invocations.
struct NodeScale {
  template <typename A>
  void operator()(A&& a) const {
    a[0] = a[0] * 1.000001 + 1e-9;
  }
};
inline constexpr NodeScale node_scale{};

mesh::MeshDef build_jacobi_mesh() {
  mesh::Hex3D h = mesh::make_hex3d(8, 8, 8);
  const gidx_t n = h.mesh.set(h.nodes).size;
  const gidx_t e = h.mesh.set(h.edges).size;
  std::vector<double> a(static_cast<std::size_t>(n)),
      b(static_cast<std::size_t>(n)), wt(static_cast<std::size_t>(e));
  for (gidx_t i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = 0.5 + 1e-3 * static_cast<double>(i % 97);
    b[static_cast<std::size_t>(i)] = 1.5 - 1e-3 * static_cast<double>(i % 89);
  }
  for (gidx_t i = 0; i < e; ++i)
    wt[static_cast<std::size_t>(i)] =
        -0.5 + 1e-3 * static_cast<double>(i % 1009);
  h.mesh.add_dat("ja", h.nodes, 1, std::move(a));
  h.mesh.add_dat("jb", h.nodes, 1, std::move(b));
  h.mesh.add_dat("jwt", h.edges, 1, std::move(wt));
  return mesh::scramble_mesh(h.mesh, 7);
}

/// One timestep: the fwd/bwd pair bracketed as chain "jacobi".
void jacobi_step(Runtime& rt) {
  const Set edges = rt.set("edges");
  const Map map = rt.map("e2n");
  rt.chain_begin("jacobi");
  rt.par_loop("jacobi_fwd", edges, jacobi_relax,
              arg_dat(rt.dat("jb"), 0, map, Access::INC),
              arg_dat(rt.dat("jb"), 1, map, Access::INC),
              arg_dat(rt.dat("ja"), 0, map, Access::READ),
              arg_dat(rt.dat("ja"), 1, map, Access::READ),
              arg_dat(rt.dat("jwt"), Access::READ));
  rt.par_loop("jacobi_bwd", edges, jacobi_relax,
              arg_dat(rt.dat("ja"), 0, map, Access::INC),
              arg_dat(rt.dat("ja"), 1, map, Access::INC),
              arg_dat(rt.dat("jb"), 0, map, Access::READ),
              arg_dat(rt.dat("jb"), 1, map, Access::READ),
              arg_dat(rt.dat("jwt"), Access::READ));
  rt.chain_end();
}

struct TiledRun {
  std::vector<double> a, b;
  LoopMetrics chain;  ///< merged metrics of chain "jacobi".
};

TiledRun run_jacobi(int tile, int timesteps, int max_depth = 0) {
  const mesh::MeshDef m = build_jacobi_mesh();
  WorldConfig cfg;
  cfg.nranks = 4;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  cfg.validate = true;  // slice-shrink validity checked on every epoch
  cfg.chains.enable("jacobi", /*loops=*/0, max_depth, tile);
  World w(m, cfg);
  w.run([&](Runtime& rt) {
    for (int t = 0; t < timesteps; ++t) jacobi_step(rt);
  });
  const mesh::dat_id ja = *m.find_dat("ja");
  const mesh::dat_id jb = *m.find_dat("jb");
  return TiledRun{w.fetch_dat(ja), w.fetch_dat(jb),
                  w.chain_metrics().at("jacobi")};
}

TEST(Tiling, WindowFusesAcrossUnrolledSequence) {
  // 8 invocations at tile=4: two fused epochs instead of eight, each
  // analysed across the unrolled 4*2-loop sequence (required depth 8 =
  // 4x the single-invocation requirement, inside the derived plan).
  const TiledRun untiled = run_jacobi(1, 8);
  const TiledRun tiled = run_jacobi(4, 8);
  EXPECT_EQ(untiled.chain.calls, 8);
  EXPECT_EQ(untiled.chain.tile, 1);
  EXPECT_EQ(untiled.chain.msgs_saved, 0);
  EXPECT_EQ(tiled.chain.calls, 2);
  EXPECT_EQ(tiled.chain.tile, 4);  // the fused path actually engaged
  // One grouped pre-exchange per fused epoch: fewer messages, and the
  // redundant-compute / saved-message ledger is populated.
  EXPECT_LT(tiled.chain.msgs, untiled.chain.msgs);
  EXPECT_GT(tiled.chain.msgs_saved, 0);
  EXPECT_GT(tiled.chain.redundant_elems, untiled.chain.redundant_elems);
}

TEST(Tiling, TiledMatchesUntiledResults) {
  // Fused execution regenerates halo values by redundant compute instead
  // of exchanging them; per owned element the arithmetic reassociates
  // across the moved core/boundary split — usual 1e-9 contract.
  const TiledRun untiled = run_jacobi(1, 8);
  for (const int tile : {2, 4}) {
    const TiledRun tiled = run_jacobi(tile, 8);
    expect_allclose(untiled.a, tiled.a);
    expect_allclose(untiled.b, tiled.b);
  }
}

TEST(Tiling, PartialTileFlushesAtSyncPoint) {
  // 6 invocations at tile=4: one full 4-tile plus a trailing partial
  // 2-tile drained by the end-of-program flush. The partial window
  // fuses too (>= 2 invocations), under its own #tile2 plan key.
  const TiledRun untiled = run_jacobi(1, 6);
  const TiledRun tiled = run_jacobi(4, 6);
  EXPECT_EQ(tiled.chain.calls, 2);
  EXPECT_EQ(tiled.chain.tile, 4);  // merge keeps the largest tile seen
  expect_allclose(untiled.a, tiled.a);
  expect_allclose(untiled.b, tiled.b);
}

TEST(Tiling, InterveningLooseLoopBreaksWindow) {
  // A loose par_loop between invocations 2 and 3 must observe exactly
  // two timesteps, so the window flushes as a 2-tile and a fresh window
  // accumulates afterwards — never a 4-tile spanning the loose loop.
  auto run_broken = [](int tile) {
    const mesh::MeshDef m = build_jacobi_mesh();
    WorldConfig cfg;
    cfg.nranks = 4;
    cfg.partitioner = partition::Kind::KWay;
    cfg.halo_depth = 2;
    cfg.validate = true;
    cfg.chains.enable("jacobi", 0, 0, tile);
    World w(m, cfg);
    w.run([&](Runtime& rt) {
      for (int t = 0; t < 2; ++t) jacobi_step(rt);
      rt.par_loop("scale", rt.set("nodes"), node_scale,
                  arg_dat(rt.dat("ja"), Access::RW));
      for (int t = 0; t < 2; ++t) jacobi_step(rt);
    });
    const mesh::dat_id ja = *m.find_dat("ja");
    const mesh::dat_id jb = *m.find_dat("jb");
    return TiledRun{w.fetch_dat(ja), w.fetch_dat(jb),
                    w.chain_metrics().at("jacobi")};
  };
  const TiledRun untiled = run_broken(1);
  const TiledRun tiled = run_broken(4);
  EXPECT_EQ(untiled.chain.calls, 4);
  EXPECT_EQ(tiled.chain.calls, 2);  // two fused 2-tiles
  EXPECT_EQ(tiled.chain.tile, 2);   // never reached 4
  expect_allclose(untiled.a, tiled.a);
  expect_allclose(untiled.b, tiled.b);
}

/// A quad mesh with node dats "u" and "w" at 0, and a loop that adds a
/// per-rank arg_gbl READ value to one of them: a loop reads its global
/// when it runs, so the final values record when each deferred loop ran.
mesh::MeshDef bump_mesh() {
  mesh::Quad2D q = mesh::make_quad2d(6, 6);
  const auto nn = static_cast<std::size_t>(q.mesh.set(q.nodes).size);
  q.mesh.add_dat("u", q.nodes, 1, std::vector<double>(nn, 0.0));
  q.mesh.add_dat("w", q.nodes, 1, std::vector<double>(nn, 0.0));
  return std::move(q.mesh);
}

void bump(Runtime& rt, const std::string& dat, double* x) {
  rt.par_loop("bump_" + dat, rt.set("nodes"),
              [](double* p, const double* g) { p[0] += g[0]; },
              arg_dat(rt.dat(dat), Access::RW), arg_gbl(x, 1, Access::READ));
}

void bumped_chain(Runtime& rt, const std::string& name,
                  const std::vector<std::string>& dats, double* x) {
  rt.chain_begin(name);
  for (const std::string& d : dats) bump(rt, d, x);
  rt.chain_end();
}

void expect_bumped(const World& w, const mesh::MeshDef& m, double u,
                   double v) {
  for (const double x : w.fetch_dat(*m.find_dat("u"))) ASSERT_EQ(x, u);
  for (const double x : w.fetch_dat(*m.find_dat("w"))) ASSERT_EQ(x, v);
}

TEST(Tiling, PartialTileRunsWhenTheNextUnitBegins) {
  // A partial tile that other work follows is final and runs then:
  // another chain's bracket runs it at chain_begin, and an invocation of
  // the same chain with a new loop structure at chain_end. Two tile=2
  // chains alternate, so no tile fills; then "a" gains a second loop.
  const mesh::MeshDef m = bump_mesh();
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.validate = true;
  cfg.chains.enable("a", 0, 0, /*tile=*/2);
  cfg.chains.enable("b", 0, 0, /*tile=*/2);
  World w(m, cfg);
  w.run([&](Runtime& rt) {
    double x = 1.0;
    bumped_chain(rt, "a", {"u"}, &x);
    bumped_chain(rt, "b", {"w"}, &x);  // runs a: u = 1
    x = 10.0;
    bumped_chain(rt, "a", {"u"}, &x);  // runs b: w = 10
    bumped_chain(rt, "b", {"w"}, &x);  // runs a: u = 11
    x = 100.0;
    bumped_chain(rt, "a", {"u"}, &x);  // runs b: w = 110
    x = 1000.0;
    bumped_chain(rt, "a", {"u", "w"}, &x);  // runs a: u = 1011
    x = 10000.0;
    rt.barrier();  // runs a: u = 11011, w = 10110
  });
  expect_bumped(w, m, 11011.0, 10110.0);
  EXPECT_EQ(w.chain_metrics().at("a").calls, 4);
  EXPECT_EQ(w.chain_metrics().at("b").calls, 2);
  EXPECT_EQ(w.chain_metrics().at("a").tile, 1);
}

TEST(Tiling, LazyRunAndPartialTileRunInProgramOrder) {
  // Lazy mode: a chain's bracket runs the lazy loops queued before it at
  // chain_begin, and a loose lazy loop runs a tile=4 chain's partial tile
  // before it queues.
  const mesh::MeshDef m = bump_mesh();
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.validate = true;
  cfg.lazy = true;
  cfg.chains.enable("t", 0, 0, /*tile=*/4);
  World w(m, cfg);
  w.run([&](Runtime& rt) {
    double x = 1.0;
    bump(rt, "u", &x);
    bumped_chain(rt, "t", {"w"}, &x);  // runs the lazy loop: u = 1
    x = 10.0;
    bump(rt, "u", &x);  // runs t: w = 10
    x = 100.0;
    bumped_chain(rt, "t", {"w"}, &x);  // runs the lazy loop: u = 101
    x = 1000.0;
    rt.barrier();  // runs t: w = 1010
  });
  expect_bumped(w, m, 101.0, 1010.0);
  EXPECT_EQ(w.chain_metrics().at("t").calls, 2);
  EXPECT_EQ(w.chain_metrics().at("t").tile, 1);
}

TEST(Tiling, DepthCapFallsBackPerInvocation) {
  // max_depth=2 admits the single-invocation requirement exactly; the
  // fused 4-window needs 8 layers, so the clamp rejects it and the loud
  // fallback runs each invocation as an ordinary CA epoch. Results are
  // identical to the untiled run and the metrics show no fusion. Every
  // rank falls back alike, and the World warns once, not once per rank.
  const TiledRun untiled = run_jacobi(1, 4, /*max_depth=*/2);
  const log::Level level = log::level();
  log::set_level(log::Level::Warn);
  testing::internal::CaptureStderr();
  const TiledRun capped = run_jacobi(4, 4, /*max_depth=*/2);
  const std::string err = testing::internal::GetCapturedStderr();
  log::set_level(level);
  std::size_t warnings = 0;
  for (std::size_t at = err.find("is infeasible"); at != std::string::npos;
       at = err.find("is infeasible", at + 1))
    ++warnings;
  EXPECT_EQ(warnings, 1u) << err;
  EXPECT_EQ(capped.chain.calls, 4);
  EXPECT_EQ(capped.chain.tile, 1);  // every epoch ran untiled
  EXPECT_EQ(capped.chain.msgs_saved, 0);
  EXPECT_EQ(untiled.a, capped.a);  // same executor, same epochs: bitwise
  EXPECT_EQ(untiled.b, capped.b);
}

TEST(Tiling, PlanCacheHitsOnRepeatedTiles) {
  // The first fused epoch pays the inspector + exchange-plan build under
  // the #tile4 key; every repeat of the same tile geometry must reuse it
  // wholesale (plan_builds == 0 — the same steady-state contract the
  // untiled plan-reuse tests assert).
  const mesh::MeshDef m = build_jacobi_mesh();
  WorldConfig cfg;
  cfg.nranks = 4;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  cfg.chains.enable("jacobi", 0, 0, 4);
  World w(m, cfg);
  w.run([](Runtime& rt) {
    // Warm-up: the first fused epoch runs with everything fresh (clean
    // stale-mask), the second builds the steady-state mask's grouped
    // exchange, and the remaining epochs let staging capacities
    // circulate between neighbour pools (zero-copy sends hand buffers
    // away, so pool coverage converges over a few epochs, not
    // instantly — same warmup shape as the untiled plan-reuse tests).
    for (int t = 0; t < 32; ++t) jacobi_step(rt);
  });
  EXPECT_GT(w.chain_metrics().at("jacobi").plan_builds, 0);
  w.clear_metrics();
  w.run([](Runtime& rt) {
    for (int t = 0; t < 8; ++t) jacobi_step(rt);  // two more fused epochs
  });
  // chain_metrics() merges across ranks into a fresh map — copy, don't
  // bind a reference into the temporary.
  const LoopMetrics mm = w.chain_metrics().at("jacobi");
  EXPECT_EQ(mm.calls, 2);
  EXPECT_EQ(mm.tile, 4);
  EXPECT_EQ(mm.plan_builds, 0);
  EXPECT_EQ(mm.staging_allocs, 0);
}

TEST(Tiling, ChainConfigRejectsTileBelowOne) {
  ChainConfig cfg;
  EXPECT_THROW(cfg.enable("jacobi", 0, 0, 0), Error);
}

}  // namespace
}  // namespace op2ca::core
