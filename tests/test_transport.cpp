// Transport-layer tests: stripe geometry and wire format, out-of-order
// reassembly, persistent-channel negotiation, tier accounting, the
// hierarchical cost model, and backend selection (sim / mpi-stub).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <exception>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "op2ca/comm/channel.hpp"
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
void spmd(TransportBackend& t, int nranks, const CostModel* cost,
          const TransportConfig* tcfg, Fn fn) {
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex err_mu;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Comm c(t, r, cost, tcfg);
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

// ---- Stripe geometry. -----------------------------------------------------

TEST(StripeBounds, CoversEveryByteContiguously) {
  for (std::size_t bytes : {1u, 7u, 8u, 63u, 64u, 1000u, 4096u, 100000u}) {
    for (int rails : {1, 2, 3, 4, 8}) {
      auto slots = stripe_bounds(bytes, rails);
      ASSERT_FALSE(slots.empty());
      std::size_t expect_off = 0;
      for (const StripeSlot& s : slots) {
        EXPECT_EQ(s.offset, expect_off);
        EXPECT_GT(s.bytes, 0u);
        expect_off += s.bytes;
      }
      EXPECT_EQ(expect_off, bytes);
    }
  }
}

TEST(StripeBounds, BoundariesAreWordAligned) {
  // Dat payloads are doubles: every interior boundary must sit on an
  // 8-byte multiple so no stripe splits a value.
  auto slots = stripe_bounds(1000, 4);
  ASSERT_EQ(slots.size(), 4u);
  for (std::size_t i = 1; i < slots.size(); ++i)
    EXPECT_EQ(slots[i].offset % 8, 0u);
}

TEST(StripeBounds, UnevenSplitDistributesRemainder) {
  // 100 words over 3 rails: 34/33/33 words.
  auto slots = stripe_bounds(800, 3);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].bytes, 34u * 8);
  EXPECT_EQ(slots[1].bytes, 33u * 8);
  EXPECT_EQ(slots[2].bytes, 33u * 8);
}

TEST(StripeBounds, MoreRailsThanWordsYieldsFewerStripes) {
  // 3 words cannot feed 8 rails; every stripe stays non-empty.
  auto slots = stripe_bounds(24, 8);
  EXPECT_EQ(slots.size(), 3u);
  // A sub-word message cannot split at all.
  slots = stripe_bounds(5, 4);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].bytes, 5u);
}

TEST(StripeBounds, DegenerateCases) {
  auto one = stripe_bounds(4096, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].offset, 0u);
  EXPECT_EQ(one[0].bytes, 4096u);

  auto empty = stripe_bounds(0, 4);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].bytes, 0u);
}

// ---- Wire format. ---------------------------------------------------------

TEST(StripeWire, HeaderRoundtrip) {
  StripeHeader h;
  h.magic = kStripeMagic;
  h.rail = 2;
  h.rails = 4;
  h.total = 123456789;
  h.offset = 987654;
  h.plan_hash = 0xdeadbeefcafef00dULL;
  std::byte wire[kStripeHeaderBytes + 16] = {};
  encode_stripe_header(h, wire);
  StripeHeader back = decode_stripe_header(wire, sizeof(wire));
  EXPECT_EQ(back.magic, kStripeMagic);
  EXPECT_EQ(back.rail, 2);
  EXPECT_EQ(back.rails, 4);
  EXPECT_EQ(back.total, h.total);
  EXPECT_EQ(back.offset, h.offset);
  EXPECT_EQ(back.plan_hash, h.plan_hash);
}

TEST(StripeWire, HeaderRejectsShortOrForeignPayload) {
  std::byte wire[kStripeHeaderBytes] = {};
  StripeHeader h;
  h.magic = kStripeMagic;
  encode_stripe_header(h, wire);
  // Shorter than the header: truncated on the wire.
  EXPECT_THROW(decode_stripe_header(wire, kStripeHeaderBytes - 1), Error);
  // Wrong magic: a foreign message landed on a stripe tag.
  wire[0] = static_cast<std::byte>(0x00);
  wire[1] = static_cast<std::byte>(0x00);
  EXPECT_THROW(decode_stripe_header(wire, kStripeHeaderBytes), Error);
}

TEST(StripeWire, HelloRoundtrip) {
  ChannelHello h;
  h.magic = kHelloMagic;
  h.id = 17;
  h.bytes = 65536;
  h.rails = 4;
  h.plan_hash = 0x0123456789abcdefULL;
  std::byte wire[kHelloBytes] = {};
  encode_hello(h, wire);
  ChannelHello back = decode_hello(wire, sizeof(wire));
  EXPECT_EQ(back.id, 17);
  EXPECT_EQ(back.bytes, 65536u);
  EXPECT_EQ(back.rails, 4);
  EXPECT_EQ(back.plan_hash, h.plan_hash);
  EXPECT_THROW(decode_hello(wire, kHelloBytes - 1), Error);
}

// ---- Striped exchange end-to-end. -----------------------------------------

TEST(Striping, LargeMessageStripesAndReassembles) {
  Transport t(2);
  TransportConfig tc;
  tc.rails = 4;
  tc.stripe_min_bytes = 256;
  const std::size_t kBytes = 10000;
  spmd(t, 2, nullptr, &tc, [&](Comm& c, int r) {
    if (r == 0) {
      auto req = c.stripe_isend(1, 42, pattern_bytes(kBytes));
      c.wait(req);
      EXPECT_EQ(c.stats().stripes_sent, 4);
      EXPECT_EQ(c.stats().msgs_sent, 4);
      // The logical payload moved (into the stripe pool), not copied.
      EXPECT_EQ(c.stats().sends_moved, 1);
    } else {
      ByteBuf out;
      auto req = c.stripe_irecv(0, 42, &out, kBytes);
      c.wait(req);
      ByteBuf expect = pattern_bytes(kBytes);
      ASSERT_EQ(out.size(), expect.size());
      EXPECT_EQ(out, expect);
    }
  });
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(Striping, ReassemblesRailsArrivingOutOfOrder) {
  // Hand-craft the stripes and post them in REVERSE rail order; the
  // receiver must place each by its header offset, not arrival order.
  Transport t(2);
  TransportConfig tc;
  tc.rails = 4;
  tc.stripe_min_bytes = 64;
  const std::size_t kBytes = 1000;
  ByteBuf payload = pattern_bytes(kBytes, 9);
  auto slots = stripe_bounds(kBytes, tc.rails);
  ASSERT_EQ(slots.size(), 4u);
  for (int r = static_cast<int>(slots.size()) - 1; r >= 0; --r) {
    StripeHeader h;
    h.magic = kStripeMagic;
    h.rail = static_cast<std::uint16_t>(r);
    h.rails = static_cast<std::uint16_t>(slots.size());
    h.total = kBytes;
    h.offset = slots[r].offset;
    h.plan_hash = 0;
    ByteBuf wire(kStripeHeaderBytes + slots[r].bytes);
    encode_stripe_header(h, wire.data());
    std::memcpy(wire.data() + kStripeHeaderBytes,
                payload.data() + slots[r].offset, slots[r].bytes);
    t.post(Message{0, 1, 7, std::move(wire)});
  }
  Comm c(t, 1, nullptr, &tc);
  ByteBuf out;
  auto req = c.stripe_irecv(0, 7, &out, kBytes);
  c.wait(req);
  EXPECT_EQ(out, payload);
}

TEST(Striping, BelowThresholdIsOnePlainMessage) {
  Transport t(2);
  TransportConfig tc;
  tc.rails = 4;
  tc.stripe_min_bytes = 1 << 16;
  spmd(t, 2, nullptr, &tc, [&](Comm& c, int r) {
    if (r == 0) {
      auto req = c.stripe_isend(1, 3, pattern_bytes(512));
      c.wait(req);
      EXPECT_EQ(c.stats().msgs_sent, 1);
      EXPECT_EQ(c.stats().stripes_sent, 0);
    } else {
      ByteBuf out;
      auto req = c.stripe_irecv(0, 3, &out, 512);
      c.wait(req);
      EXPECT_EQ(out, pattern_bytes(512));
    }
  });
}

TEST(Striping, OneRailIsBitwiseLegacyPath) {
  // rails == 1: stripe_isend must BE isend — one unframed wire message a
  // plain irecv can match.
  Transport t(2);
  TransportConfig tc;
  tc.rails = 1;
  tc.stripe_min_bytes = 1;  // every size "qualifies"; rails gates it off.
  spmd(t, 2, nullptr, &tc, [&](Comm& c, int r) {
    if (r == 0) {
      auto req = c.stripe_isend(1, 5, pattern_bytes(4096));
      c.wait(req);
      EXPECT_EQ(c.stats().stripes_sent, 0);
    } else {
      ByteBuf out;
      auto req = c.irecv(0, 5, &out);  // legacy receive matches it.
      c.wait(req);
      EXPECT_EQ(out, pattern_bytes(4096));
    }
  });
}

// ---- Persistent channels. -------------------------------------------------

TEST(Channels, NegotiateThenTransferSingleRail) {
  Transport t(2);
  TransportConfig tc;
  tc.rails = 1;
  tc.persistent = true;
  spmd(t, 2, nullptr, &tc, [&](Comm& c, int r) {
    ChannelSpec spec;
    spec.peer = 1 - r;
    spec.sender = (r == 0);
    spec.bytes = 640;
    spec.plan_hash = 0x5eedULL;
    auto chans = c.open_channels(std::span<const ChannelSpec>(&spec, 1));
    ASSERT_EQ(chans.size(), 1u);
    ASSERT_TRUE(chans[0].valid());
    EXPECT_EQ(chans[0].rails(), 1);
    EXPECT_EQ(c.stats().channels_opened, 1);
    // Reuse the channel across epochs, as the executors do.
    for (int epoch = 0; epoch < 3; ++epoch) {
      if (r == 0) {
        auto req = c.channel_isend(chans[0], pattern_bytes(640, epoch));
        c.wait(req);
      } else {
        ByteBuf out;
        auto req = c.channel_irecv(chans[0], &out);
        c.wait(req);
        EXPECT_EQ(out, pattern_bytes(640, epoch));
      }
    }
    if (r == 0) {
      EXPECT_EQ(c.stats().channel_sends, 3);
    }
  });
}

TEST(Channels, StripedChannelTransfer) {
  Transport t(2);
  TransportConfig tc;
  tc.rails = 4;
  tc.stripe_min_bytes = 256;
  tc.persistent = true;
  const std::size_t kBytes = 8192;
  spmd(t, 2, nullptr, &tc, [&](Comm& c, int r) {
    ChannelSpec spec;
    spec.peer = 1 - r;
    spec.sender = (r == 0);
    spec.bytes = kBytes;
    spec.plan_hash = 77;
    auto chans = c.open_channels(std::span<const ChannelSpec>(&spec, 1));
    ASSERT_EQ(chans.size(), 1u);
    EXPECT_EQ(chans[0].rails(), 4);
    if (r == 0) {
      auto req = c.channel_isend(chans[0], pattern_bytes(kBytes, 3));
      c.wait(req);
      EXPECT_EQ(c.stats().stripes_sent, 4);
    } else {
      ByteBuf out;
      auto req = c.channel_irecv(chans[0], &out);
      c.wait(req);
      EXPECT_EQ(out, pattern_bytes(kBytes, 3));
    }
  });
}

TEST(Channels, BidirectionalPairsKeepIndependentIds) {
  // Each ordered (src -> dst) pair numbers its own channels: a symmetric
  // exchange (both ranks send AND receive) must pair k-th with k-th.
  Transport t(2);
  TransportConfig tc;
  tc.rails = 1;
  tc.persistent = true;
  spmd(t, 2, nullptr, &tc, [&](Comm& c, int r) {
    // Rank r sends 256 + 128r bytes and receives the peer's size back.
    const std::size_t send_bytes = 256 + 128 * static_cast<std::size_t>(r);
    const std::size_t recv_bytes =
        256 + 128 * static_cast<std::size_t>(1 - r);
    std::vector<ChannelSpec> specs(2);
    specs[0] = {1 - r, /*sender=*/true, send_bytes, 11};
    specs[1] = {1 - r, /*sender=*/false, recv_bytes, 11};
    auto chans = c.open_channels(specs);
    ASSERT_EQ(chans.size(), 2u);
    auto sreq = c.channel_isend(chans[0], pattern_bytes(send_bytes, r));
    ByteBuf out;
    auto rreq = c.channel_irecv(chans[1], &out);
    c.wait(rreq);
    c.wait(sreq);
    EXPECT_EQ(out, pattern_bytes(recv_bytes, 1 - r));
  });
}

TEST(Channels, StaleHashFailsLoudly) {
  // The two ends negotiated against different plan hashes: one side
  // rebuilt its exchange plan without renegotiating. Both must refuse.
  Transport t(2);
  TransportConfig tc;
  tc.rails = 1;
  tc.persistent = true;
  std::vector<std::string> errors(2);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        Comm c(t, r, nullptr, &tc);
        ChannelSpec spec;
        spec.peer = 1 - r;
        spec.sender = (r == 0);
        spec.bytes = 256;
        spec.plan_hash = (r == 0) ? 0xAAAAULL : 0xBBBBULL;
        c.open_channels(std::span<const ChannelSpec>(&spec, 1));
      } catch (const std::exception& e) {
        errors[r] = e.what();
        t.poison();
      }
    });
  }
  for (auto& th : threads) th.join();
  // Both hellos were posted before either side validated, so at least
  // one rank (typically both) diagnoses the stale channel by name; no
  // rank may silently succeed.
  EXPECT_FALSE(errors[0].empty());
  EXPECT_FALSE(errors[1].empty());
  EXPECT_TRUE(errors[0].find("stale") != std::string::npos ||
              errors[1].find("stale") != std::string::npos)
      << errors[0] << " / " << errors[1];
}

// ---- Tier accounting. -----------------------------------------------------

TEST(Tiers, SendStatsSplitByMachineTier) {
  CostModel cm;
  cm.ranks_per_numa = 2;
  cm.ranks_per_node = 4;
  Transport t(8);
  Comm c(t, 0, &cm, nullptr);
  ByteBuf b = pattern_bytes(100);
  auto r1 = c.isend(1, 0, std::span<const std::byte>(b));  // same NUMA.
  auto r2 = c.isend(2, 0, std::span<const std::byte>(b));  // same node.
  auto r3 = c.isend(4, 0, std::span<const std::byte>(b));  // across nodes.
  c.wait(r1);
  c.wait(r2);
  c.wait(r3);
  const CommStats& s = c.stats();
  EXPECT_EQ(s.msgs_by_tier[static_cast<int>(Tier::Numa)], 1);
  EXPECT_EQ(s.msgs_by_tier[static_cast<int>(Tier::Node)], 1);
  EXPECT_EQ(s.msgs_by_tier[static_cast<int>(Tier::Net)], 1);
  EXPECT_EQ(s.bytes_by_tier[static_cast<int>(Tier::Numa)], 100);
  EXPECT_EQ(s.epoch_msgs_by_tier[static_cast<int>(Tier::Net)], 1);
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

TEST(CostModelTiers, StripedTimeRoundsOverRails) {
  CostModel cm;
  cm.latency_s = 1e-6;
  cm.bandwidth_Bps = 1e9;
  cm.per_message_overhead_s = 2e-6;
  cm.net_rails = 4;
  const double kFixed = 1e-6 + 2e-6;
  // One stripe degenerates to message_time.
  EXPECT_DOUBLE_EQ(cm.striped_time(4000, 1, Tier::Net),
                   cm.message_time(4000, Tier::Net));
  // 4 stripes on 4 rails move concurrently: serialisation / 4.
  EXPECT_DOUBLE_EQ(cm.striped_time(4000, 4, Tier::Net),
                   kFixed + 1000.0 / 1e9);
  // 8 stripes on 4 rails: two rounds per rail, no gain over 4.
  EXPECT_DOUBLE_EQ(cm.striped_time(4000, 8, Tier::Net),
                   kFixed + 2.0 * 500.0 / 1e9);
  // Striping onto a single-rail tier buys nothing on the wire.
  cm.net_rails = 1;
  EXPECT_DOUBLE_EQ(cm.striped_time(4000, 4, Tier::Net),
                   kFixed + 4000.0 / 1e9);
}

TEST(CostModelTiers, ChannelTimeSwapsHostOverhead) {
  CostModel cm;
  cm.latency_s = 1e-6;
  cm.bandwidth_Bps = 1e9;
  cm.per_message_overhead_s = 4e-6;
  cm.channel_overhead_s = 5e-7;
  cm.net_rails = 2;
  EXPECT_DOUBLE_EQ(cm.channel_time(8000, 2, Tier::Net),
                   cm.striped_time(8000, 2, Tier::Net) - 4e-6 + 5e-7);
  // The pre-negotiated slot must beat the ad-hoc send.
  EXPECT_LT(cm.channel_time(8000, 2, Tier::Net),
            cm.striped_time(8000, 2, Tier::Net));
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
}

TEST(Backends, MakeBackendValidatesConfig) {
  TransportConfig tc;
  tc.rails = 0;
  EXPECT_THROW(make_backend(tc, 2), Error);
  tc.rails = kMaxRails + 1;
  EXPECT_THROW(make_backend(tc, 2), Error);
  tc.rails = 1;
  tc.stripe_timeout_s = 0.0;
  EXPECT_THROW(make_backend(tc, 2), Error);
  tc.stripe_timeout_s = 1.0;
  auto be = make_backend(tc, 2);
  EXPECT_STREQ(be->name(), "sim");
  EXPECT_EQ(be->size(), 2);
}

TEST(Backends, MpiStubCarriesFullProtocol) {
  if (MpiBackend::compiled_with_mpi())
    GTEST_SKIP() << "real MPI runs one process per rank; the multi-rank "
                    "thread harness only drives the stub";
  TransportConfig tc;
  tc.backend = BackendKind::Mpi;
  tc.rails = 4;
  tc.stripe_min_bytes = 256;
  auto be = make_backend(tc, 2);
  EXPECT_STREQ(be->name(), "mpi-stub");
  const std::size_t kBytes = 5000;
  spmd(*be, 2, nullptr, &tc, [&](Comm& c, int r) {
    // Collectives exercise the negative internal tags through the stub's
    // tag shift; the striped exchange exercises the header path.
    EXPECT_DOUBLE_EQ(c.allreduce_sum(1.0), 2.0);
    if (r == 0) {
      auto req = c.stripe_isend(1, 8, pattern_bytes(kBytes, 4));
      c.wait(req);
      EXPECT_EQ(c.stats().stripes_sent, 4);
    } else {
      ByteBuf out;
      auto req = c.stripe_irecv(0, 8, &out, kBytes);
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
  cm.channel_overhead_s = 1e-6;
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
  EXPECT_DOUBLE_EQ(cm.channel_overhead_s, 1e-6);
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
