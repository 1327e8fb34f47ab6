// End-to-end tests of the baseline (Alg 1) runtime: SPMD execution over
// rank threads, halo exchanges driven by dirty bits, owner-compute
// redundant execution, global reductions, and agreement with single-rank
// sequential execution.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <variant>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/comm/mpi_backend.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/hex3d.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/util/aligned.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/rng.hpp"
#include "op2ca/util/table.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

using testutil::expect_allclose;

/// Small 2D problem with the Fig-3 style dats.
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

/// The two loops of Fig 3 (update over edges INCs res from pres reads;
/// edge_flux INCs flux from res and cell-weight reads).
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

WorldConfig config_for(int nranks, partition::Kind kind, int depth = 2) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = kind;
  cfg.halo_depth = depth;
  cfg.validate = true;
  return cfg;
}

TEST(RuntimeOp2, MatchesSerialOnFig3Loops) {
  QuadProblem serial_p = make_quad_problem(14, 11);
  QuadProblem par_p = make_quad_problem(14, 11);

  World serial(std::move(serial_p.q.mesh),
               config_for(1, partition::Kind::Block));
  serial.run([](Runtime& rt) { run_fig3_loops(rt, 3); });

  World par(std::move(par_p.q.mesh), config_for(5, partition::Kind::KWay));
  par.run([](Runtime& rt) { run_fig3_loops(rt, 3); });

  expect_allclose(serial.fetch_dat(serial_p.res),
                  par.fetch_dat(par_p.res));
  expect_allclose(serial.fetch_dat(serial_p.flux),
                  par.fetch_dat(par_p.flux));
}

TEST(RuntimeOp2, AllPartitionersAgree) {
  std::vector<double> reference;
  for (partition::Kind kind :
       {partition::Kind::Block, partition::Kind::RIB,
        partition::Kind::KWay}) {
    QuadProblem p = make_quad_problem(10, 10);
    World w(std::move(p.q.mesh), config_for(4, kind));
    w.run([](Runtime& rt) { run_fig3_loops(rt, 2); });
    const auto flux = w.fetch_dat(p.flux);
    if (reference.empty())
      reference = flux;
    else
      expect_allclose(reference, flux);
  }
}

TEST(RuntimeOp2, DirtyBitsSkipCleanExchanges) {
  QuadProblem p = make_quad_problem(12, 12);
  const mesh::dat_id pres_id = p.pres;
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  w.run([&](Runtime& rt) {
    const Set edges = rt.set("edges");
    const Dat res = rt.dat("res"), pres = rt.dat("pres");
    const Map e2n = rt.map("e2n");
    // Two identical read-only-pres loops: pres halo is fresh at start
    // (gathered at setup), so NO exchange should ever happen for it.
    for (int i = 0; i < 2; ++i)
      rt.par_loop("readonly", edges, fig3_kernel_update,
                  arg_dat(res, 0, e2n, Access::INC),
                  arg_dat(res, 1, e2n, Access::INC),
                  arg_dat(pres, 0, e2n, Access::READ),
                  arg_dat(pres, 1, e2n, Access::READ));
  });
  (void)pres_id;
  const auto metrics = w.loop_metrics();
  EXPECT_EQ(metrics.at("readonly").msgs, 0);
  EXPECT_EQ(metrics.at("readonly").bytes, 0);
}

TEST(RuntimeOp2, WriteDirtiesHaloAndTriggersExchange) {
  QuadProblem p = make_quad_problem(12, 12);
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  w.run([&](Runtime& rt) { run_fig3_loops(rt, 2); });
  const auto metrics = w.loop_metrics();
  // res is written by update and read by edge_flux -> every edge_flux
  // call exchanges res (2 messages per neighbour pair direction).
  EXPECT_GT(metrics.at("edge_flux").msgs, 0);
  // pres is never written: update never exchanges.
  EXPECT_EQ(metrics.at("update").msgs, 0);
}

TEST(RuntimeOp2, GblReductionSumsOwnedOnly) {
  QuadProblem p = make_quad_problem(9, 7);
  const gidx_t nnodes = p.q.mesh.set(p.q.nodes).size;
  for (int nranks : {1, 3, 6}) {
    QuadProblem pp = make_quad_problem(9, 7);
    World w(std::move(pp.q.mesh),
            config_for(nranks, partition::Kind::RIB));
    double total = 0.0;
    w.run([&](Runtime& rt) {
      const Set nodes = rt.set("nodes");
      const Dat pres = rt.dat("pres");
      double local = 0.0;
      rt.par_loop(
          "count", nodes,
          [](const double* pr, double* acc) { acc[0] += 1.0 + 0.0 * pr[0]; },
          arg_dat(pres, Access::READ), arg_gbl(&local, 1, Access::INC));
      if (rt.rank() == 0) total = local;
    });
    EXPECT_DOUBLE_EQ(total, static_cast<double>(nnodes)) << nranks;
  }
}

TEST(RuntimeOp2, GblReadBroadcastsConstant) {
  QuadProblem p = make_quad_problem(6, 6);
  World w(std::move(p.q.mesh), config_for(2, partition::Kind::Block));
  w.run([&](Runtime& rt) {
    const Set nodes = rt.set("nodes");
    const Dat res = rt.dat("res");
    double alpha = 2.5;
    rt.par_loop(
        "scale", nodes,
        [](double* r, const double* a) {
          r[0] = a[0];
          r[1] = a[0];
        },
        arg_dat(res, Access::WRITE), arg_gbl(&alpha, 1, Access::READ));
  });
  const auto res = w.fetch_dat(p.res);
  for (double v : res) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(RuntimeOp2, FetchAndResetDat) {
  QuadProblem p = make_quad_problem(5, 5);
  World w(std::move(p.q.mesh), config_for(3, partition::Kind::KWay));
  const gidx_t n = w.mesh().set(p.q.nodes).size;
  std::vector<double> fresh(static_cast<std::size_t>(2 * n), 7.0);
  w.reset_dat(p.res, fresh);
  EXPECT_EQ(w.fetch_dat(p.res), fresh);
  EXPECT_THROW(w.reset_dat(p.res, std::vector<double>(3)), Error);
}

TEST(RuntimeOp2, FetchDatRoundTripsRankRows) {
  // Build a world, run nothing: fetch_dat must reproduce the global
  // arrays exactly through gather_local -> scatter_owned, every owned
  // row of every rank landing back at its global slot. The World keeps
  // no global values once its ranks hold theirs, on either backend.
  std::vector<sim::BackendKind> backends = {sim::BackendKind::Sim};
  if (!sim::MpiBackend::compiled_with_mpi())
    backends.push_back(sim::BackendKind::Mpi);  // the in-process stub
  for (const sim::BackendKind backend : backends) {
    mesh::Hex3D h = mesh::make_hex3d(17, 17, 17);
    const gidx_t n = h.mesh.set(h.nodes).size;
    std::vector<double> init(static_cast<std::size_t>(n) * 3);
    Rng rng(51);
    for (auto& v : init) v = rng.next_range(-1.0, 1.0);
    const mesh::dat_id d3 = h.mesh.add_dat("d3", h.nodes, 3, init);
    WorldConfig cfg = config_for(3, partition::Kind::KWay);
    cfg.transport.backend = backend;
    World w(std::move(h.mesh), cfg);
    for (mesh::dat_id d = 0; d < w.mesh().num_dats(); ++d) {
      EXPECT_TRUE(w.mesh().dat(d).data.empty()) << w.mesh().dat(d).name;
      EXPECT_EQ(w.mesh().dat(d).data.capacity(), 0u)
          << w.mesh().dat(d).name;
    }
    w.run([](Runtime&) {});
    EXPECT_EQ(w.fetch_dat(d3), init);
    for (auto& v : init) v = -v;
    w.reset_dat(d3, init);
    EXPECT_EQ(w.fetch_dat(d3), init);
  }
}

TEST(RuntimeOp2, RankStorageIsCacheAligned) {
  mesh::Hex3D h = mesh::make_hex3d(9, 9, 9);
  h.mesh.add_dat("d2", h.nodes, 2);
  World w(std::move(h.mesh), config_for(3, partition::Kind::KWay));
  w.run([](Runtime& rt) {
    EXPECT_TRUE(util::cache_aligned(rt.dat_data(rt.dat("d2"))));
  });
}

TEST(RuntimeOp2, MetricsCountIterations) {
  QuadProblem p = make_quad_problem(8, 8);
  const gidx_t nedges = p.q.mesh.set(p.q.edges).size;
  World w(std::move(p.q.mesh), config_for(3, partition::Kind::KWay));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  const auto metrics = w.loop_metrics();
  const LoopMetrics& up = metrics.at("update");
  // Owned iterations = nedges; import-exec layer-1 edges add redundancy.
  EXPECT_GE(up.core_iters + up.halo_iters, nedges);
  EXPECT_GT(up.core_iters, 0);
  EXPECT_GT(up.halo_iters, 0);
}

TEST(RuntimeOp2, ErrorsPropagateAndDontDeadlock) {
  QuadProblem p = make_quad_problem(8, 8);
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  EXPECT_THROW(w.run([](Runtime& rt) {
                 if (rt.rank() == 2) raise("rank 2 exploded");
                 rt.barrier();  // others block here until poisoned
               }),
               Error);
}

TEST(RuntimeOp2, RejectsApiMisuse) {
  QuadProblem p = make_quad_problem(6, 6);
  World w(std::move(p.q.mesh), config_for(2, partition::Kind::Block));
  w.run([](Runtime& rt) {
    EXPECT_THROW(rt.set("nope"), Error);
    EXPECT_THROW(rt.map("nope"), Error);
    EXPECT_THROW(rt.dat("nope"), Error);
    // Set ids outside the mesh raise, naming the id and the range.
    for (const mesh::set_id bad : {-1, 99}) {
      try {
        rt.layout(rt.set(bad));
        ADD_FAILURE() << "set id " << bad << " was accepted";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("set id " + std::to_string(bad)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("[0, " + std::to_string(rt.mesh().num_sets()) +
                            ")"),
                  std::string::npos)
            << what;
      }
    }

    const Set nodes = rt.set("nodes");
    const Set edges = rt.set("edges");
    const Dat res = rt.dat("res");
    const Map e2n = rt.map("e2n");
    // Direct arg on the wrong set.
    EXPECT_THROW(rt.par_loop("bad", edges, [](double*) {},
                             arg_dat(res, Access::WRITE)),
                 Error);
    // Map that does not start at the iteration set.
    EXPECT_THROW(rt.par_loop("bad2", nodes, [](double*) {},
                             arg_dat(res, 0, e2n, Access::READ)),
                 Error);
    // Map index out of arity.
    EXPECT_THROW(rt.par_loop("bad3", edges, [](double*) {},
                             arg_dat(res, 5, e2n, Access::READ)),
                 Error);
    // Gbl INC combined with indirect write.
    double acc = 0.0;
    EXPECT_THROW(
        rt.par_loop(
            "bad4", edges, [](double*, double*) {},
            arg_dat(res, 0, e2n, Access::INC),
            arg_gbl(&acc, 1, Access::INC)),
        Error);
  });
}

TEST(RuntimeOp2, MultigridSolverRunsAndReducesResidual) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(3000, 3);
  World w(std::move(prob.mg.mesh), config_for(4, partition::Kind::RIB));
  std::vector<double> history;
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    const auto local = apps::mgcfd::run_solver(rt, h, 5);
    if (rt.rank() == 0) history = local;
  });
  ASSERT_EQ(history.size(), 5u);
  for (double r : history) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
}

TEST(RuntimeOp2, MgcfdSolverMatchesSerial) {
  apps::mgcfd::Problem sp = apps::mgcfd::build_problem(2000, 2);
  apps::mgcfd::Problem pp = apps::mgcfd::build_problem(2000, 2);
  const mesh::dat_id q0 = sp.levels[0].q;

  World serial(std::move(sp.mg.mesh), config_for(1, partition::Kind::Block));
  serial.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, sp);
    apps::mgcfd::run_solver(rt, h, 3);
  });
  World par(std::move(pp.mg.mesh), config_for(5, partition::Kind::KWay));
  par.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, pp);
    apps::mgcfd::run_solver(rt, h, 3);
  });
  expect_allclose(serial.fetch_dat(q0), par.fetch_dat(pp.levels[0].q));
}

TEST(RuntimeOp2, StatePersistsAcrossRuns) {
  // World::run may be called repeatedly (setup phase, then time loop);
  // dat values and dirty bits must carry over.
  QuadProblem p = make_quad_problem(10, 10);
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  const auto after_one = w.fetch_dat(p.flux);
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  const auto after_two = w.fetch_dat(p.flux);
  // Second run accumulated further increments on top of the first.
  double diff = 0.0;
  for (size_t i = 0; i < after_one.size(); ++i)
    diff = std::max(diff, std::abs(after_two[i] - after_one[i]));
  EXPECT_GT(diff, 0.0);

  // And matches a single two-step run from the same initial state.
  QuadProblem p2 = make_quad_problem(10, 10);
  World w2(std::move(p2.q.mesh), config_for(4, partition::Kind::KWay));
  w2.run([](Runtime& rt) { run_fig3_loops(rt, 2); });
  expect_allclose(after_two, w2.fetch_dat(p2.flux));
}

TEST(RuntimeOp2, ResetDatClearsStateMidStream) {
  QuadProblem p = make_quad_problem(8, 8);
  World w(std::move(p.q.mesh), config_for(3, partition::Kind::RIB));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 2); });
  const gidx_t n = w.mesh().set(p.q.nodes).size;
  w.reset_dat(p.res, std::vector<double>(static_cast<size_t>(2 * n), 0.0));
  w.reset_dat(p.flux, std::vector<double>(static_cast<size_t>(2 * n), 0.0));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  const auto flux_restarted = w.fetch_dat(p.flux);

  QuadProblem p2 = make_quad_problem(8, 8);
  World w2(std::move(p2.q.mesh), config_for(3, partition::Kind::RIB));
  // One fresh step... but pres evolved? pres is never written by the
  // fig3 loops, so a single step from zeroed res/flux is equivalent.
  w2.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  expect_allclose(flux_restarted, w2.fetch_dat(p2.flux));
}

TEST(RuntimeOp2, SchedulingIndependentDeterminism) {
  // Rank threads interleave arbitrarily on the host, but results (and
  // even the FP summation order within each rank) are functions of the
  // plan alone: two runs of the same program must agree bit-for-bit.
  auto run_once = [] {
    QuadProblem p = make_quad_problem(12, 9);
    World w(std::move(p.q.mesh), config_for(6, partition::Kind::KWay));
    w.run([](Runtime& rt) { run_fig3_loops(rt, 3); });
    return w.fetch_dat(p.flux);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);  // bitwise
}

TEST(RuntimeOp2, MetricsCsvExport) {
  QuadProblem p = make_quad_problem(8, 8);
  World w(std::move(p.q.mesh), config_for(3, partition::Kind::KWay));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  std::ostringstream os;
  w.write_metrics_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,name,calls"), std::string::npos);
  EXPECT_NE(csv.find("loop,update"), std::string::npos);
  EXPECT_NE(csv.find("loop,edge_flux"), std::string::npos);
  // Every counter has a column; max_rank_bytes follows max_msg_bytes.
  EXPECT_NE(csv.find("max_msg_bytes,max_rank_bytes"), std::string::npos);
  // Temporal-tiling ledger columns ride at the end of every row.
  EXPECT_NE(csv.find("tile,redundant_elems,msgs_saved"),
            std::string::npos);
  std::istringstream header(csv.substr(0, csv.find('\n')));
  for (std::string col; std::getline(header, col, ',');)
    for (const char* gone : {"layout", "gather_span", "reuse_gap"})
      EXPECT_NE(col, gone);
}

/// A LoopMetrics whose listed fields hold first, first + step, ... in
/// list order.
LoopMetrics distinct_metrics(std::int64_t first, std::int64_t step) {
  LoopMetrics m;
  std::int64_t v = first;
  LoopMetrics::for_each_field([&](const char*, auto field, LoopMetrics::Merge) {
    m.*field = static_cast<std::remove_reference_t<decltype(m.*field)>>(v);
    v += step;
  });
  return m;
}

TEST(RuntimeOp2, MetricsMergeEveryField) {
  // a ascends and b descends, so the larger value comes from b in the
  // first fields and from a in the last: each max field must pick the
  // larger either way, and every other field must sum.
  const std::set<std::string_view> max_fields = {
      "calls", "max_msg_bytes", "max_rank_bytes", "max_neighbors",
      "max_colours", "tile"};
  const LoopMetrics a = distinct_metrics(1, 1), b = distinct_metrics(40, -1);
  LoopMetrics merged = a;
  merged.merge_from(b);
  LoopMetrics::for_each_field(
      [&](const char* name, auto field, LoopMetrics::Merge) {
        EXPECT_NE(a.*field, b.*field) << name;
        if (max_fields.count(name)) {
          EXPECT_EQ(merged.*field, std::max(a.*field, b.*field)) << name;
        } else {
          EXPECT_EQ(merged.*field, a.*field + b.*field) << name;
        }
      });
}

TEST(RuntimeOp2, MetricsWireRoundTripsEveryField) {
  const std::map<std::string, LoopMetrics> sent = {
      {"chain_a", distinct_metrics(1, 1)}, {"loop_b", distinct_metrics(7, 3)}};
  const ByteBuf blob = detail::serialize_metrics(sent);
  std::map<std::string, LoopMetrics> got;
  detail::merge_serialized_metrics(blob, &got);
  ASSERT_EQ(got.size(), sent.size());
  for (const auto& [name, m] : sent) {
    ASSERT_TRUE(got.count(name)) << name;
    LoopMetrics::for_each_field(
        [&](const char* field_name, auto field, LoopMetrics::Merge) {
          EXPECT_EQ(got.at(name).*field, m.*field) << name << " " << field_name;
        });
  }
  // A blob cut short raises instead of reading past its end.
  const ByteBuf cut(blob.begin(), blob.end() - 1);
  std::map<std::string, LoopMetrics> partial;
  EXPECT_THROW(detail::merge_serialized_metrics(cut, &partial), Error);
}

TEST(RuntimeOp2, MetricsCsvHasEveryField) {
  QuadProblem p = make_quad_problem(8, 8);
  World w(std::move(p.q.mesh), config_for(3, partition::Kind::KWay));
  w.run([](Runtime& rt) {
    rt.chain_begin("fig3");  // not enabled: runs per loop, metered twice
    run_fig3_loops(rt, 1);
    rt.chain_end();
    run_fig3_loops(rt, 1);
  });
  std::ostringstream os;
  w.write_metrics_csv(os);
  std::istringstream csv(os.str());
  const auto cells = [](const std::string& line) {
    std::vector<std::string> out;
    std::istringstream in(line);
    for (std::string c; std::getline(in, c, ',');) out.push_back(c);
    return out;
  };

  std::vector<std::string> expected = {"kind", "name"};
  LoopMetrics::for_each_field([&](const char* name, auto, LoopMetrics::Merge) {
    expected.push_back(name);
  });
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(cells(line), expected);

  const auto loops = w.loop_metrics();
  const auto chains = w.chain_metrics();
  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    const std::vector<std::string> row = cells(line);
    ASSERT_EQ(row.size(), expected.size()) << line;
    const auto& source = row[0] == "chain" ? chains : loops;
    ASSERT_TRUE(source.count(row[1])) << line;
    const LoopMetrics& m = source.at(row[1]);
    std::size_t col = 2;
    LoopMetrics::for_each_field(
        [&](const char* name, auto field, LoopMetrics::Merge) {
          const Cell cell = m.*field;
          const std::string want =
              std::holds_alternative<double>(cell)
                  ? format_double(std::get<double>(cell), 6)
                  : std::to_string(std::get<std::int64_t>(cell));
          EXPECT_EQ(row[col++], want) << row[1] << " " << name;
        });
    ++rows;
  }
  EXPECT_EQ(rows, loops.size() + chains.size());
  EXPECT_EQ(chains.size(), 1u);
}

TEST(RuntimeOp2, PhaseTimingsSumToWall) {
  QuadProblem p = make_quad_problem(12, 12);
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 2); });
  for (const auto& [name, m] : w.loop_metrics()) {
    const double parts = m.pack_seconds + m.core_seconds + m.wait_seconds +
                         m.unpack_seconds + m.halo_seconds;
    EXPECT_NEAR(parts, m.wall_seconds, 1e-3) << name;
    EXPECT_GE(m.pack_seconds, 0.0);
    EXPECT_GE(m.core_seconds, 0.0);
    EXPECT_GE(m.wait_seconds, 0.0);
    EXPECT_GE(m.unpack_seconds, 0.0);
    EXPECT_GE(m.halo_seconds, 0.0);
  }
}

}  // namespace
}  // namespace op2ca::core
