// Failure-injection and misuse tests: the library must fail loudly and
// legibly, never deadlock, and leave errors attributable.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/comm/comm.hpp"
#include "op2ca/comm/transport.hpp"
#include "op2ca/core/chain_config.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/partition/partition.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core {
namespace {

TEST(ChainConfigParse, FullGrammar) {
  std::istringstream in(R"(
# comment line
default off
chain period loops=6 depth=2
chain vflux depth=1
chain gradl enabled=0  # trailing comment
)");
  const ChainConfig cfg = ChainConfig::parse(in);
  EXPECT_TRUE(cfg.enabled("period"));
  EXPECT_EQ(cfg.expected_loops("period"), 6);
  EXPECT_EQ(cfg.max_depth("period"), 2);
  EXPECT_TRUE(cfg.enabled("vflux"));
  EXPECT_FALSE(cfg.enabled("gradl"));
  EXPECT_FALSE(cfg.enabled("unlisted"));
}

TEST(ChainConfigParse, TileKeyRoundTrips) {
  std::istringstream in(R"(
chain period loops=6 depth=2 tile=4
chain vflux tile=1
chain gradl depth=1
)");
  const ChainConfig cfg = ChainConfig::parse(in);
  EXPECT_EQ(cfg.tile("period"), 4);
  EXPECT_EQ(cfg.expected_loops("period"), 6);
  EXPECT_EQ(cfg.max_depth("period"), 2);
  EXPECT_EQ(cfg.tile("vflux"), 1);
  // tile unset -> 0: the chain inherits WorldConfig::tile.
  EXPECT_EQ(cfg.tile("gradl"), 0);
  EXPECT_EQ(cfg.tile("unlisted"), 0);

  // Programmatic enable() carries the same field.
  ChainConfig prog;
  prog.enable("jacob", /*loops=*/3, /*max_depth=*/2, /*tile=*/8);
  EXPECT_EQ(prog.tile("jacob"), 8);
}

TEST(ChainConfigParse, RejectsBadTile) {
  {
    std::istringstream in("chain x tile=0\n");
    EXPECT_THROW(ChainConfig::parse(in), Error);
  }
  {
    std::istringstream in("chain x tile=-2\n");
    EXPECT_THROW(ChainConfig::parse(in), Error);
  }
  {
    std::istringstream in("chain x tile=abc\n");
    EXPECT_THROW(ChainConfig::parse(in), Error);
  }
}

TEST(ChainConfigParse, DefaultOn) {
  std::istringstream in("default on\nchain x enabled=0\n");
  const ChainConfig cfg = ChainConfig::parse(in);
  EXPECT_TRUE(cfg.enabled("anything"));
  EXPECT_FALSE(cfg.enabled("x"));
}

TEST(ChainConfigParse, RejectsGarbage) {
  {
    std::istringstream in("frobnicate period\n");
    EXPECT_THROW(ChainConfig::parse(in), Error);
  }
  {
    std::istringstream in("chain x depth=abc\n");
    EXPECT_THROW(ChainConfig::parse(in), Error);
  }
  {
    std::istringstream in("chain x bogus=1\n");
    EXPECT_THROW(ChainConfig::parse(in), Error);
  }
  {
    std::istringstream in("default maybe\n");
    EXPECT_THROW(ChainConfig::parse(in), Error);
  }
  {
    std::istringstream in("chain\n");
    EXPECT_THROW(ChainConfig::parse(in), Error);
  }
  // Numbers must be whole integer tokens; loops/depth non-negative and
  // enabled 0 or 1. The error names the offending line.
  for (const char* entry : {"tile=4x", "depth=2.5", "loops=6abc", "depth=-1",
                            "loops=-3", "enabled=7"}) {
    std::istringstream in(std::string("chain ok loops=2\nchain x ") + entry +
                          "\n");
    try {
      ChainConfig::parse(in);
      ADD_FAILURE() << entry << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << entry << ": " << e.what();
    }
  }
  EXPECT_THROW(ChainConfig::load("/nonexistent/path/chains.cfg"), Error);
}

TEST(WorldFailures, BadSeedSetName) {
  mesh::Quad2D q = mesh::make_quad2d(4, 4);
  WorldConfig cfg;
  cfg.seed_set = "nonexistent";
  EXPECT_THROW(World(std::move(q.mesh), cfg), Error);
}

TEST(WorldFailures, ZeroRanksRejected) {
  mesh::Quad2D q = mesh::make_quad2d(4, 4);
  WorldConfig cfg;
  cfg.nranks = 0;
  EXPECT_THROW(World(std::move(q.mesh), cfg), Error);
}

TEST(WorldFailures, BadHaloDepthRejected) {
  mesh::Quad2D q = mesh::make_quad2d(4, 4);
  WorldConfig cfg;
  cfg.halo_depth = 0;
  EXPECT_THROW(World(std::move(q.mesh), cfg), Error);
}

TEST(WorldFailures, RankExceptionCarriesMessage) {
  mesh::Quad2D q = mesh::make_quad2d(8, 8);
  WorldConfig cfg;
  cfg.nranks = 3;
  World w(std::move(q.mesh), cfg);
  try {
    w.run([](Runtime& rt) {
      if (rt.rank() == 1) raise("deliberate failure on rank 1");
      rt.barrier();
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    // Either the original error or a poison notification surfaces; both
    // must be self-describing.
    EXPECT_TRUE(what.find("deliberate failure") != std::string::npos ||
                what.find("poisoned") != std::string::npos)
        << what;
  }
}

TEST(WorldFailures, MetricsCallsInsideRunRaise) {
  // Rank threads write their metrics maps during run; clearing or merging
  // them from inside run would race, so both raise an Error naming the
  // call instead.
  mesh::Quad2D q = mesh::make_quad2d(8, 8);
  WorldConfig cfg;
  cfg.nranks = 2;
  World w(std::move(q.mesh), cfg);
  try {
    w.run([&](Runtime&) { w.clear_metrics(); });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("clear_metrics"), std::string::npos)
        << e.what();
  }
  try {
    w.run([&](Runtime&) { (void)w.loop_metrics(); });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("loop_metrics"), std::string::npos)
        << e.what();
  }
  // The flag is cleared on the failing exit path: outside run both work.
  EXPECT_NO_THROW(w.clear_metrics());
  EXPECT_TRUE(w.chain_metrics().empty());
}

TEST(WorldFailures, MismatchedChainNamesAreIndependent) {
  // Enabling a chain name that the app never opens is harmless; opening
  // a chain that is not configured runs as plain OP2.
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(900, 1);
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.halo_depth = 2;
  cfg.chains.enable("never_used");
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    apps::mgcfd::run_synthetic_chain(rt, h, 2);  // chain "synthetic"
  });
  // "synthetic" fell back to per-loop execution and was still metered.
  EXPECT_GT(w.chain_metrics().at("synthetic").calls, 0);
}

TEST(WorldFailures, EmptyChainIsNoOp) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(900, 1);
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.chains.enable("empty");
  World w(std::move(prob.mg.mesh), cfg);
  w.run([](Runtime& rt) {
    rt.chain_begin("empty");
    rt.chain_end();
  });
  SUCCEED();
}

TEST(WorldFailures, ValidationCatchesOutOfRegionAccess) {
  // A loop iterating the NONEXEC fringe would touch absent targets; the
  // runtime's per-iteration validation must catch indirect access through
  // unresolved (kInvalidLocal) map slots. We provoke it by running a loop
  // over cells (which land in fringe regions of neighbouring ranks)
  // through a map whose deep targets are absent at depth 1.
  // The iteration-time guard itself is driven over hand-built args on
  // both addressing paths in test_hotpath (Dispatch.Validation*); here
  // check the documented world-level error path: a chain that requires
  // depth 2 on a depth-1 world raises before any execution.
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(900, 1);
  WorldConfig cfg;
  cfg.nranks = 4;
  cfg.halo_depth = 1;
  cfg.validate = true;
  cfg.chains.enable("synthetic");
  World w(std::move(prob.mg.mesh), cfg);
  EXPECT_THROW(w.run([&](Runtime& rt) {
                 const auto h = apps::mgcfd::resolve_handles(rt, prob);
                 apps::mgcfd::run_synthetic_chain(rt, h, 1);
               }),
               Error);
}

TEST(WorldFailures, InfeasibleChainRejectedWithGuidance) {
  // A chain where a direct write to a non-executable set (nodes) is read
  // by a later loop cannot run communication-avoiding: the halo node
  // values cannot be recomputed. The inspector must reject it with a
  // message naming the loop and suggesting a split.
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(900, 1);
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.halo_depth = 2;
  cfg.chains.enable("bad_direct");
  World w(std::move(prob.mg.mesh), cfg);
  try {
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      rt.chain_begin("bad_direct");
      // perturb writes spres directly on nodes...
      rt.par_loop("p", h.nodes0,
                  [](double* pres) { pres[0] += 1.0; },
                  arg_dat(rt.dat("spres"), Access::RW));
      // ...and update reads spres indirectly afterwards.
      rt.par_loop("u", h.edges0,
                  [](double* r1, double* r2, const double* p1,
                     const double* p2) {
                    r1[0] += p1[0];
                    r2[0] += p2[0];
                  },
                  arg_dat(rt.dat("sres"), 0, h.e2n0, Access::INC),
                  arg_dat(rt.dat("sres"), 1, h.e2n0, Access::INC),
                  arg_dat(rt.dat("spres"), 0, h.e2n0, Access::READ),
                  arg_dat(rt.dat("spres"), 1, h.e2n0, Access::READ));
      rt.chain_end();
    });
    FAIL() << "expected the inspector to reject the chain";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.find("cannot execute communication-avoiding") !=
                    std::string::npos ||
                what.find("poisoned") != std::string::npos)
        << what;
  }
}

// ---- Malformed plan input: the halo builder indexes per-element arrays
// by global id, so a bad partition must be rejected before any lookup. --

/// Runs build_halo_plan and returns the Error's message ("" if none).
std::string plan_error(const mesh::MeshDef& mesh,
                       const partition::Partition& part, int depth = 2) {
  halo::HaloPlanOptions opts;
  opts.depth = depth;
  try {
    halo::build_halo_plan(mesh, part, opts);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(HaloPlanFailures, ShortAssignmentNamesSetAndElement) {
  const mesh::Quad2D q = mesh::make_quad2d(6, 5);
  partition::Partition part =
      partition::partition_mesh(q.mesh, 3, partition::Kind::RIB, q.nodes);
  auto& nodes = part.assignment[static_cast<std::size_t>(q.nodes)];
  const std::size_t n = nodes.size();
  nodes.resize(n - 4);
  const std::string what = plan_error(q.mesh, part);
  EXPECT_NE(what.find("'" + q.mesh.set(q.nodes).name + "'"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("first bad element " + std::to_string(n - 4)),
            std::string::npos)
      << what;

  nodes.resize(n + 2, 0);  // too long is as wrong as too short
  EXPECT_NE(plan_error(q.mesh, part).find("first bad element " +
                                          std::to_string(n)),
            std::string::npos);
}

TEST(HaloPlanFailures, OwnerOutsideRanksNamesSetAndElement) {
  const mesh::Quad2D q = mesh::make_quad2d(6, 5);
  partition::Partition part =
      partition::partition_mesh(q.mesh, 3, partition::Kind::RIB, q.nodes);
  auto& edges = part.assignment[static_cast<std::size_t>(q.edges)];
  for (rank_t bad : {3, -1}) {
    edges[7] = bad;
    const std::string what = plan_error(q.mesh, part);
    EXPECT_NE(what.find("element 7 of set '" + q.mesh.set(q.edges).name +
                        "' to rank " + std::to_string(bad)),
              std::string::npos)
        << what;
  }
}

TEST(HaloPlanFailures, DepthAboveBuilderLimitRejected) {
  const mesh::Quad2D q = mesh::make_quad2d(4, 4);
  const partition::Partition part =
      partition::partition_mesh(q.mesh, 2, partition::Kind::Block, q.nodes);
  EXPECT_NE(plan_error(q.mesh, part, 128).find("limit of 127"),
            std::string::npos);
  EXPECT_EQ(plan_error(q.mesh, part, 127), "");
}

// ---- Transport faults: a striped exchange must fail loudly or fall
// back; delivering a torn message silently is never an option. ------------

TEST(TransportFailures, DroppedRailTimesOutLoudly) {
  sim::Transport t(2);
  sim::TransportConfig tc;
  tc.rails = 4;
  tc.stripe_min_bytes = 64;
  tc.stripe_timeout_s = 0.2;  // fail fast in the test.
  // Rail 0's stripe never arrives: a dead NIC / lost sub-message.
  t.inject_drop(/*src=*/0, /*dst=*/1, /*tag=*/9, /*count=*/1);
  sim::Comm sender(t, 0, nullptr, &tc);
  auto sreq = sender.stripe_isend(1, 9, ByteBuf(2048));
  sender.wait(sreq);
  sim::Comm recv(t, 1, nullptr, &tc);
  ByteBuf out;
  auto rreq = recv.stripe_irecv(0, 9, &out, 2048);
  try {
    recv.wait(rreq);
    FAIL() << "reassembly must not complete with a dropped rail";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("dropped rail"), std::string::npos) << what;
  }
}

TEST(TransportFailures, TruncatedStripeRejectedAsTorn) {
  sim::Transport t(2);
  sim::TransportConfig tc;
  tc.rails = 4;
  tc.stripe_min_bytes = 64;
  // Keep the 32-byte header plus 8 payload bytes: the header promises a
  // full stripe, the body cannot honour it.
  t.inject_truncate(/*src=*/0, /*dst=*/1, /*tag=*/9, /*keep_bytes=*/40);
  sim::Comm sender(t, 0, nullptr, &tc);
  auto sreq = sender.stripe_isend(1, 9, ByteBuf(2048));
  sender.wait(sreq);
  sim::Comm recv(t, 1, nullptr, &tc);
  ByteBuf out;
  auto rreq = recv.stripe_irecv(0, 9, &out, 2048);
  try {
    recv.wait(rreq);
    FAIL() << "a truncated stripe must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("torn"), std::string::npos)
        << e.what();
  }
}

TEST(TransportFailures, StripeShorterThanHeaderRejected) {
  sim::Transport t(2);
  sim::TransportConfig tc;
  tc.rails = 4;
  tc.stripe_min_bytes = 64;
  // Not even a whole header survives.
  t.inject_truncate(/*src=*/0, /*dst=*/1, /*tag=*/9, /*keep_bytes=*/16);
  sim::Comm sender(t, 0, nullptr, &tc);
  auto sreq = sender.stripe_isend(1, 9, ByteBuf(2048));
  sender.wait(sreq);
  sim::Comm recv(t, 1, nullptr, &tc);
  ByteBuf out;
  auto rreq = recv.stripe_irecv(0, 9, &out, 2048);
  try {
    recv.wait(rreq);
    FAIL() << "a headerless fragment must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(TransportFailures, BelowThresholdFallsBackUnstriped) {
  // Small messages never stripe, so a multi-rail config cannot tear
  // them: the same injection that kills a stripe above has nothing to
  // bite on when the message takes the legacy single-send path.
  sim::Transport t(2);
  sim::TransportConfig tc;
  tc.rails = 4;
  tc.stripe_min_bytes = 1 << 20;
  sim::Comm sender(t, 0, nullptr, &tc);
  ByteBuf payload(2048);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i & 0xff);
  ByteBuf copy = payload;
  auto sreq = sender.stripe_isend(1, 9, std::move(copy));
  sender.wait(sreq);
  EXPECT_EQ(sender.stats().stripes_sent, 0);
  sim::Comm recv(t, 1, nullptr, &tc);
  ByteBuf out;
  auto rreq = recv.stripe_irecv(0, 9, &out, 2048);
  recv.wait(rreq);
  EXPECT_EQ(out, payload);
}

TEST(TransportFailures, StaleChannelGeometryRejected) {
  // The two ends of a persistent channel disagree on the slot size — one
  // side's exchange plan changed without renegotiation. The handshake
  // must refuse on both ends rather than truncate or pad traffic.
  sim::Transport t(2);
  sim::TransportConfig tc;
  tc.rails = 1;
  tc.persistent = true;
  std::vector<std::string> errors(2);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        sim::Comm c(t, r, nullptr, &tc);
        sim::ChannelSpec spec;
        spec.peer = 1 - r;
        spec.sender = (r == 0);
        spec.bytes = (r == 0) ? 256 : 512;  // stale: sizes diverged.
        spec.plan_hash = 42;
        c.open_channels(std::span<const sim::ChannelSpec>(&spec, 1));
      } catch (const Error& e) {
        errors[r] = e.what();
        t.poison();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(errors[0].empty());
  EXPECT_FALSE(errors[1].empty());
  EXPECT_TRUE(
      errors[0].find("geometry mismatch") != std::string::npos ||
      errors[1].find("geometry mismatch") != std::string::npos)
      << errors[0] << " / " << errors[1];
}

}  // namespace
}  // namespace op2ca::core
