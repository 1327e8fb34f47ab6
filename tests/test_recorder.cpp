// Planned mode records the applications' own chain functions through a
// SpecRecorder. These tests pin that the recorder and a World accept and
// reject the same programs (both build their LoopSpecs through
// make_loop_spec), that a recording holds exactly the loops a World runs,
// and the recorded chains and outer-loop writes of the two applications.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/core/recorder.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core {
namespace {

/// A kernel for any argument count; the malformed programs never run it.
constexpr auto kNop = [](auto*...) {};

/// A quad mesh with one dat on nodes and one on edges.
struct Fixture {
  mesh::Quad2D q = mesh::make_quad2d(6, 5);
  mesh::dat_id u = q.mesh.add_dat("u", q.nodes, 1);
  mesh::dat_id w = q.mesh.add_dat("w", q.edges, 1);
};

/// One malformed program, written once against the runtime interface and
/// run through both a Runtime and a SpecRecorder, and a phrase of the
/// Error both must raise.
struct Malformed {
  const char* cause;
  std::function<void(Runtime&, const Fixture&)> on_world;
  std::function<void(SpecRecorder&, const Fixture&)> on_recorder;
};

template <typename Program>
Malformed malformed(const char* cause, Program program) {
  return {cause, program, program};
}

/// The message of the Error fn raises; empty when it raises none.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Recorder, MalformedProgramsRaiseInWorldAndRecorder) {
  const Fixture f;
  static double gbl = 0.0;
  const std::vector<Malformed> table = {
      malformed("does not live on the iteration set",
                [](auto& rt, const Fixture& x) {
                  rt.par_loop("bad", Set{x.q.edges}, kNop,
                              arg_dat(Dat{x.u}, Access::READ));
                }),
      malformed("does not start at the iteration set",
                [](auto& rt, const Fixture& x) {
                  rt.par_loop("bad", Set{x.q.nodes}, kNop,
                              arg_dat(Dat{x.u}, 0, Map{x.q.e2n},
                                      Access::READ));
                }),
      malformed("map index out of arity",
                [](auto& rt, const Fixture& x) {
                  rt.par_loop("bad", Set{x.q.edges}, kNop,
                              arg_dat(Dat{x.u}, 2, Map{x.q.e2n},
                                      Access::READ));
                }),
      malformed("cannot appear inside a loop-chain",
                [](auto& rt, const Fixture& x) {
                  rt.chain_begin("c");
                  rt.par_loop("bad", Set{x.q.nodes}, kNop,
                              arg_dat(Dat{x.u}, Access::READ),
                              arg_gbl(&gbl, 1, Access::INC));
                  rt.chain_end();
                }),
      malformed("cannot be combined with indirect writes",
                [](auto& rt, const Fixture& x) {
                  rt.par_loop("bad", Set{x.q.edges}, kNop,
                              arg_dat(Dat{x.u}, 0, Map{x.q.e2n},
                                      Access::INC),
                              arg_gbl(&gbl, 1, Access::INC));
                }),
      malformed("while chain 'outer' is still open",
                [](auto& rt, const Fixture&) {
                  rt.chain_begin("outer");
                  rt.chain_begin("inner");
                }),
      malformed("chain_end without chain_begin",
                [](auto& rt, const Fixture&) { rt.chain_end(); }),
      malformed("chain 'open' is still open at the end of",
                [](auto& rt, const Fixture& x) {
                  rt.chain_begin("open");
                  rt.par_loop("ok", Set{x.q.nodes}, kNop,
                              arg_dat(Dat{x.u}, Access::RW));
                }),
  };
  for (const Malformed& m : table) {
    WorldConfig cfg;
    cfg.nranks = 2;
    World world(f.q.mesh, cfg);
    const std::string on_world = error_of(
        [&] { world.run([&](Runtime& rt) { m.on_world(rt, f); }); });
    const std::string on_recorder = error_of([&] {
      record(f.q.mesh, [&](SpecRecorder& rec) { m.on_recorder(rec, f); });
    });
    EXPECT_NE(on_world.find(m.cause), std::string::npos)
        << m.cause << " (World raised: " << on_world << ")";
    EXPECT_NE(on_recorder.find(m.cause), std::string::npos)
        << m.cause << " (recorder raised: " << on_recorder << ")";
  }
}

TEST(Recorder, WellFormedProgramRecordsWithoutRunningKernels) {
  const Fixture f;
  int kernel_calls = 0;
  const auto count = [&kernel_calls](auto*...) { ++kernel_calls; };
  const Recording rec = record(f.q.mesh, [&](SpecRecorder& rt) {
    rt.par_loop("scale", rt.set("nodes"), count,
                arg_dat(rt.dat("u"), Access::RW));
    rt.chain_begin("pair");
    rt.par_loop("gather", rt.set("edges"), count,
                arg_dat(rt.dat("w"), Access::WRITE),
                arg_dat(rt.dat("u"), 1, rt.map("e2n"), Access::READ));
    rt.chain_end();
  });
  EXPECT_EQ(kernel_calls, 0);
  ASSERT_EQ(rec.chains.size(), 1u);
  ASSERT_EQ(rec.loose.size(), 1u);
  EXPECT_EQ(rec.loose[0].name, "scale");
  EXPECT_EQ(rec.loose_written(), (std::set<mesh::dat_id>{f.u}));
  const LoopSpec& gather = rec.chains[0].loops.at(0);
  EXPECT_EQ(gather.set, f.q.edges);
  ASSERT_EQ(gather.args.size(), 2u);
  EXPECT_EQ(gather.args[0], (ArgSpec{f.w, Access::WRITE, false, -1, 0}));
  EXPECT_EQ(gather.args[1], (ArgSpec{f.u, Access::READ, true, f.q.e2n, 1}));
}

TEST(Recorder, OneNameMustRecordOneLoopSequence) {
  const Fixture f;
  const Recording rec = record(f.q.mesh, [&](SpecRecorder& rt) {
    for (const Access mode : {Access::READ, Access::RW}) {
      rt.chain_begin("c");
      rt.par_loop("l", Set{f.q.nodes}, kNop, arg_dat(Dat{f.u}, mode));
      rt.chain_end();
    }
  });
  EXPECT_THROW(rec.chains_by_name(), Error);
}

/// Occurrences of each loop name, and of each chain name, in a recording.
struct Counts {
  std::map<std::string, std::int64_t> loops, chains;
};

Counts count_recorded(const Recording& rec) {
  Counts c;
  for (const ChainSpec& chain : rec.chains) {
    ++c.chains[chain.name];
    for (const LoopSpec& l : chain.loops) ++c.loops[l.name];
  }
  for (const LoopSpec& l : rec.loose) ++c.loops[l.name];
  return c;
}

TEST(Recorder, HydraRecordingHoldsTheLoopsAWorldRuns) {
  // The World runs every chain as per-loop OP2 (no chain enabled), so
  // each loop and each chain invocation is one metered call per rank.
  const apps::hydra::Problem prob = apps::hydra::build_problem(1500);
  const Counts recorded = count_recorded(apps::hydra::record_program(prob));
  WorldConfig cfg;
  cfg.nranks = 3;
  cfg.partitioner = partition::Kind::RIB;
  World world(prob.an.mesh, cfg);
  world.run([&](Runtime& rt) {
    const apps::hydra::Handles h = apps::hydra::resolve_handles(rt, prob);
    apps::hydra::run_setup(rt, h);
    apps::hydra::run_iteration(rt, h);
  });
  Counts ran;
  for (const auto& [name, m] : world.loop_metrics()) ran.loops[name] = m.calls;
  for (const auto& [name, m] : world.chain_metrics())
    ran.chains[name] = m.calls;
  EXPECT_EQ(recorded.loops, ran.loops);
  EXPECT_EQ(recorded.chains, ran.chains);
  EXPECT_EQ(recorded.loops.at("rk_update"), 1);
  EXPECT_EQ(recorded.chains.at("period"), 2);
}

TEST(Recorder, SyntheticChainAndPerturbLoop) {
  const apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  const Recording rec = apps::mgcfd::record_synthetic_chain(prob, 3);
  ASSERT_EQ(rec.loose.size(), 1u);
  EXPECT_EQ(rec.loose[0].name, "synth_perturb");
  EXPECT_EQ(rec.loose_written(), (std::set<mesh::dat_id>{prob.spres}));
  ASSERT_EQ(rec.chains.size(), 1u);
  EXPECT_EQ(rec.chains[0].name, "synthetic");
  ASSERT_EQ(rec.chains[0].loops.size(), 6u);
  for (std::size_t l = 0; l < 6; ++l)
    EXPECT_EQ(rec.chains[0].loops[l].name,
              l % 2 == 0 ? "synth_update" : "synth_edge_flux");
  EXPECT_EQ(apps::mgcfd::synthetic_chain_spec(prob, 3), rec.chains[0]);
}

}  // namespace
}  // namespace op2ca::core
