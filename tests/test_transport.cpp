// Transport-layer tests: the hierarchical cost model, backend selection
// (sim / mpi-stub) and the calibration-file loader.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "op2ca/comm/comm.hpp"
#include "op2ca/comm/cost_model.hpp"
#include "op2ca/comm/mpi_backend.hpp"
#include "op2ca/comm/transport.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::sim {
namespace {

ByteBuf pattern_bytes(std::size_t n, unsigned seed = 1) {
  ByteBuf b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xff);
  return b;
}

/// Runs fn(comm, rank) on one thread per rank, all sharing `t`. Rethrows
/// the first rank failure after poisoning the fabric so peers unwind.
template <typename Fn>
void spmd(TransportBackend& t, int nranks, Fn fn) {
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex err_mu;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Comm c(t, r);
        fn(c, r);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        t.poison();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

// ---- Hierarchical cost model. ---------------------------------------------

TEST(CostModelTiers, TierOfUsesCheapestContainingTier) {
  CostModel cm;
  // Flat default: everything crosses the network.
  EXPECT_EQ(cm.tier_of(0, 1), Tier::Net);
  cm.ranks_per_numa = 2;
  cm.ranks_per_node = 4;
  EXPECT_EQ(cm.tier_of(0, 1), Tier::Numa);
  EXPECT_EQ(cm.tier_of(0, 2), Tier::Node);
  EXPECT_EQ(cm.tier_of(0, 4), Tier::Net);
  EXPECT_EQ(cm.tier_of(5, 6), Tier::Node);  // same node, NUMA domains 2/3.
  EXPECT_EQ(cm.tier_of(6, 7), Tier::Numa);
}

TEST(CostModelTiers, IntraNodeTiersAreCheaper) {
  CostModel cm;
  cm.ranks_per_numa = 2;
  cm.ranks_per_node = 4;
  EXPECT_LT(cm.message_time(4096, Tier::Numa),
            cm.message_time(4096, Tier::Node));
  EXPECT_LT(cm.message_time(4096, Tier::Node),
            cm.message_time(4096, Tier::Net));
}

// ---- Backend selection. ---------------------------------------------------

TEST(Backends, NamesRoundtrip) {
  EXPECT_STREQ(backend_name(BackendKind::Sim), "sim");
  EXPECT_STREQ(backend_name(BackendKind::Mpi), "mpi");
  EXPECT_EQ(backend_by_name("sim"), BackendKind::Sim);
  EXPECT_EQ(backend_by_name("mpi"), BackendKind::Mpi);
  EXPECT_THROW(backend_by_name("smoke-signals"), Error);
  auto be = make_backend(TransportConfig{}, 2);
  EXPECT_STREQ(be->name(), "sim");
  EXPECT_EQ(be->size(), 2);
}

TEST(Backends, MpiStubCarriesFullProtocol) {
  if (MpiBackend::compiled_with_mpi())
    GTEST_SKIP() << "real MPI runs one process per rank; the multi-rank "
                    "thread harness only drives the stub";
  TransportConfig tc;
  tc.backend = BackendKind::Mpi;
  auto be = make_backend(tc, 2);
  EXPECT_STREQ(be->name(), "mpi-stub");
  const std::size_t kBytes = 5000;
  spmd(*be, 2, [&](Comm& c, int r) {
    // Collectives exercise the negative internal tags through the stub's
    // tag shift; the plain isend/irecv a user tag.
    EXPECT_DOUBLE_EQ(c.allreduce_sum(1.0), 2.0);
    if (r == 0) {
      auto req = c.isend(1, 8, pattern_bytes(kBytes, 4));
      c.wait(req);
    } else {
      ByteBuf out;
      auto req = c.irecv(0, 8, &out);
      c.wait(req);
      EXPECT_EQ(out, pattern_bytes(kBytes, 4));
    }
    c.barrier();
  });
}

// ---- calibration-file loader (BENCH_calibration.json round-trip) ----

std::string calibration_json(const std::string& net_lat = "5e-6",
                             const std::string& net_bw = "10e9",
                             const std::string& net_rails = "2") {
  return std::string("{\n"
                     "  \"backend\": \"sim\", \"nranks\": 4, \"iters\": 16,\n"
                     "  \"tiers\": {\n"
                     "    \"numa\": {\"latency_s\": 5e-7, "
                     "\"bandwidth_Bps\": 4e10, \"rails\": 1},\n"
                     "    \"node\": {\"latency_s\": 1e-6, "
                     "\"bandwidth_Bps\": 2e10, \"rails\": 1},\n"
                     "    \"net\": {\"latency_s\": ") +
         net_lat + ", \"bandwidth_Bps\": " + net_bw +
         ", \"rails\": " + net_rails + "}\n  }\n}\n";
}

TEST(Calibration, ParsesBenchCalibrateSchema) {
  const Calibration cal = parse_calibration(calibration_json());
  EXPECT_EQ(cal.backend, "sim");
  EXPECT_EQ(cal.nranks, 4);
  EXPECT_DOUBLE_EQ(cal.tier(Tier::Numa).latency_s, 5e-7);
  EXPECT_DOUBLE_EQ(cal.tier(Tier::Node).bandwidth_Bps, 2e10);
  EXPECT_DOUBLE_EQ(cal.tier(Tier::Net).latency_s, 5e-6);
  EXPECT_EQ(cal.tier(Tier::Net).rails, 2);
  const TierParams node = TierParams::from_calibration(cal, Tier::Node);
  EXPECT_DOUBLE_EQ(node.latency_s, 1e-6);
}

TEST(Calibration, AppliedModelUsesMeasuredTiers) {
  const Calibration cal = parse_calibration(calibration_json());
  CostModel cm;
  cm.per_message_overhead_s = 4e-6;
  cm.pack_bandwidth_Bps = 21e9;
  apply_calibration(cal, &cm);
  // Net tier lands in the legacy flat fields every Eq (1)-(3) term reads.
  EXPECT_DOUBLE_EQ(cm.latency_s, 5e-6);
  EXPECT_DOUBLE_EQ(cm.bandwidth_Bps, 10e9);
  EXPECT_EQ(cm.net_rails, 2);
  EXPECT_DOUBLE_EQ(cm.numa.bandwidth_Bps, 4e10);
  EXPECT_DOUBLE_EQ(cm.node.latency_s, 1e-6);
  // Host-side overheads are not wire-measured and must survive.
  EXPECT_DOUBLE_EQ(cm.per_message_overhead_s, 4e-6);
  EXPECT_DOUBLE_EQ(cm.pack_bandwidth_Bps, 21e9);
  EXPECT_NE(cm.name.find("calibrated(sim)"), std::string::npos);
}

TEST(Calibration, RejectsMissingTierOrField) {
  EXPECT_THROW(parse_calibration("{\"backend\": \"sim\", \"nranks\": 2}"),
               Error);
  // Drop the node tier.
  std::string text = calibration_json();
  text.replace(text.find("\"node\""), 6, "\"nope\"");
  EXPECT_THROW(parse_calibration(text), Error);
  // Drop a field inside one tier.
  text = calibration_json();
  text.replace(text.find("\"bandwidth_Bps\""), 15, "\"bandwidth_xxx\"");
  EXPECT_THROW(parse_calibration(text), Error);
}

TEST(Calibration, RejectsNonPositiveAndNonMonotoneTiers) {
  // Net bandwidth above the node tier: monotonicity violation.
  EXPECT_THROW(parse_calibration(calibration_json("5e-6", "3e10")), Error);
  // Net latency below the node tier.
  EXPECT_THROW(parse_calibration(calibration_json("5e-7", "10e9")), Error);
  // Zero rails.
  EXPECT_THROW(parse_calibration(calibration_json("5e-6", "10e9", "0")),
               Error);
  // Too-small world.
  std::string text = calibration_json();
  text.replace(text.find("\"nranks\": 4"), 11, "\"nranks\": 1");
  EXPECT_THROW(parse_calibration(text), Error);
}

TEST(Calibration, RejectsFractionalAndOutOfRangeCounts) {
  // rails and nranks are counts: a fractional value is not truncated, an
  // out-of-range one is not cast, and rails stays within kMaxRails. The
  // error names the field.
  const auto expect_error = [](const std::string& text,
                               const std::string& field) {
    try {
      parse_calibration(text);
      ADD_FAILURE() << field << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + field + "\""),
                std::string::npos)
          << e.what();
    }
  };
  for (const char* rails : {"2.5", "1e10", "100"})
    expect_error(calibration_json("5e-6", "10e9", rails), "rails");
  for (const char* nranks : {"4.9", "1e12"}) {
    std::string text = calibration_json();
    text.replace(text.find("\"nranks\": 4"), 11,
                 std::string("\"nranks\": ") + nranks);
    expect_error(text, "nranks");
  }
}

TEST(Calibration, LoadReportsUnreadablePath) {
  EXPECT_THROW(load_calibration("/nonexistent/BENCH_calibration.json"),
               Error);
}

}  // namespace
}  // namespace op2ca::sim
