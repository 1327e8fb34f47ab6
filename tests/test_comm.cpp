// Unit tests for the simulated message-passing substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "op2ca/util/rng.hpp"

#include "op2ca/comm/comm.hpp"
#include "op2ca/comm/cost_model.hpp"
#include "op2ca/util/buffer_pool.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::sim {
namespace {

op2ca::ByteBuf bytes_of(const std::string& s) {
  op2ca::ByteBuf v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::string string_of(const op2ca::ByteBuf& v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

/// Runs fn(rank) on nranks threads.
void spmd(Transport& t, int nranks, const std::function<void(Comm&)>& fn) {
  std::vector<std::thread> threads;
  for (rank_t r = 0; r < nranks; ++r)
    threads.emplace_back([&t, r, &fn] {
      Comm c(t, r);
      fn(c);
    });
  for (auto& th : threads) th.join();
}

TEST(Transport, PingPong) {
  Transport t(2);
  spmd(t, 2, [](Comm& c) {
    if (c.rank() == 0) {
      const auto payload = bytes_of("hello");
      Request s = c.isend(1, 7, payload);
      c.wait(s);
      op2ca::ByteBuf buf;
      Request r = c.irecv(1, 8, &buf);
      c.wait(r);
      EXPECT_EQ(string_of(buf), "world");
    } else {
      op2ca::ByteBuf buf;
      Request r = c.irecv(0, 7, &buf);
      c.wait(r);
      EXPECT_EQ(string_of(buf), "hello");
      const auto payload = bytes_of("world");
      Request s = c.isend(0, 8, payload);
      c.wait(s);
    }
  });
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(Transport, FifoPerSourceAndTag) {
  Transport t(2);
  spmd(t, 2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        const auto payload = bytes_of("msg" + std::to_string(i));
        Request s = c.isend(1, 3, payload);
        c.wait(s);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        op2ca::ByteBuf buf;
        Request r = c.irecv(0, 3, &buf);
        c.wait(r);
        EXPECT_EQ(string_of(buf), "msg" + std::to_string(i));
      }
    }
  });
}

TEST(Transport, TagsMatchIndependently) {
  Transport t(2);
  spmd(t, 2, [](Comm& c) {
    if (c.rank() == 0) {
      Request a = c.isend(1, 1, bytes_of("tag1"));
      Request b = c.isend(1, 2, bytes_of("tag2"));
      c.wait(a);
      c.wait(b);
    } else {
      // Receive in the opposite order to the sends.
      op2ca::ByteBuf buf2, buf1;
      Request r2 = c.irecv(0, 2, &buf2);
      c.wait(r2);
      Request r1 = c.irecv(0, 1, &buf1);
      c.wait(r1);
      EXPECT_EQ(string_of(buf1), "tag1");
      EXPECT_EQ(string_of(buf2), "tag2");
    }
  });
}

TEST(Transport, SenderMayReuseBufferAfterIsend) {
  Transport t(2);
  spmd(t, 2, [](Comm& c) {
    if (c.rank() == 0) {
      auto payload = bytes_of("first");
      Request s = c.isend(1, 0, payload);
      std::memcpy(payload.data(), "XXXXX", 5);  // mutate after isend
      c.wait(s);
    } else {
      op2ca::ByteBuf buf;
      Request r = c.irecv(0, 0, &buf);
      c.wait(r);
      EXPECT_EQ(string_of(buf), "first");
    }
  });
}

TEST(Transport, BarrierSynchronizes) {
  constexpr int kRanks = 8;
  Transport t(kRanks);
  std::atomic<int> before{0}, after{0};
  spmd(t, kRanks, [&](Comm& c) {
    ++before;
    c.barrier();
    EXPECT_EQ(before.load(), kRanks);
    ++after;
    c.barrier();
    EXPECT_EQ(after.load(), kRanks);
  });
}

// The three collectives the runtime calls: allreduce_sum(double) from the
// epoch executor (arg_gbl INC), and allreduce_sum(vector) and
// allgather_bytes from World::fetch_dat and the metrics merge in
// process-per-rank SPMD mode. Here they run on the sim fabric.
TEST(Collectives, AllreduceSum) {
  constexpr int kRanks = 5;
  Transport t(kRanks);
  spmd(t, kRanks, [](Comm& c) {
    EXPECT_DOUBLE_EQ(c.allreduce_sum(static_cast<double>(c.rank() + 1)),
                     15.0);
  });
}

TEST(Collectives, VectorSumIsBitwiseTheRankOrderSum) {
  // Element 0 cancels only when summed in rank order: (1 + 1e16) rounds
  // to 1e16, so ((1 + 1e16) - 1e16) + 1 = 1, where any other order of
  // the same four terms gives 0 or 2.
  constexpr int kRanks = 4;
  const double col0[kRanks] = {1.0, 1e16, -1e16, 1.0};
  std::vector<double> expected(3);
  for (int r = 0; r < kRanks; ++r) {
    expected[0] += col0[r];
    expected[1] += 0.1 * (r + 1);
    expected[2] += 1.0 / (r + 3);
  }
  ASSERT_EQ(expected[0], 1.0);
  Transport t(kRanks);
  spmd(t, kRanks, [&](Comm& c) {
    const int r = c.rank();
    const std::vector<double> sum =
        c.allreduce_sum(std::vector<double>{col0[r], 0.1 * (r + 1),
                                            1.0 / (r + 3)});
    ASSERT_EQ(sum.size(), expected.size());
    EXPECT_EQ(std::memcmp(sum.data(), expected.data(),
                          sum.size() * sizeof(double)),
              0);
  });
}

TEST(Collectives, VectorSumLengthMismatchRaises) {
  // Rank 2 contributes three elements where the root holds two. The root
  // names the rank and raises; poisoning the fabric then unblocks the
  // peers waiting for the broadcast, which raise too.
  constexpr int kRanks = 3;
  Transport t(kRanks);
  std::atomic<int> errors{0};
  std::string root_error;
  spmd(t, kRanks, [&](Comm& c) {
    try {
      c.allreduce_sum(std::vector<double>(c.rank() == 2 ? 3 : 2, 1.0));
    } catch (const Error& e) {
      if (c.rank() == 0) root_error = e.what();
      ++errors;
      t.poison();
    }
  });
  EXPECT_EQ(errors.load(), kRanks);
  EXPECT_NE(root_error.find("rank 2"), std::string::npos) << root_error;
}

TEST(Collectives, AllgatherBytesReturnsBlobsInRankOrder) {
  // Rank r contributes r bytes of value r: rank 0's blob is empty.
  constexpr int kRanks = 4;
  Transport t(kRanks);
  spmd(t, kRanks, [](Comm& c) {
    const op2ca::ByteBuf mine(static_cast<std::size_t>(c.rank()),
                              static_cast<std::byte>(c.rank()));
    const std::vector<op2ca::ByteBuf> all = c.allgather_bytes(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
    for (int r = 0; r < kRanks; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)],
                op2ca::ByteBuf(static_cast<std::size_t>(r),
                               static_cast<std::byte>(r)))
          << "blob of rank " << r << " on rank " << c.rank();
  });
}

TEST(Collectives, SingleRankIsIdentity) {
  Transport t(1);
  Comm c(t, 0);
  EXPECT_DOUBLE_EQ(c.allreduce_sum(3.5), 3.5);
  EXPECT_EQ(c.allreduce_sum(std::vector<double>{1.5, -2.0}),
            (std::vector<double>{1.5, -2.0}));
  const std::vector<op2ca::ByteBuf> all = c.allgather_bytes(bytes_of("x"));
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(string_of(all[0]), "x");
}

TEST(CommStats, CountsMessagesAndNeighbors) {
  Transport t(3);
  spmd(t, 3, [](Comm& c) {
    if (c.rank() == 0) {
      Request a = c.isend(1, 0, bytes_of("x"));
      Request b = c.isend(2, 0, bytes_of("yy"));
      c.wait(a);
      c.wait(b);
      EXPECT_EQ(c.stats().msgs_sent, 2);
      EXPECT_EQ(c.stats().bytes_sent, 3);
      EXPECT_EQ(c.stats().send_neighbors.size(), 2u);
      EXPECT_EQ(c.stats().epoch_max_msg_bytes, 2);
      c.stats().reset_epoch();
      EXPECT_EQ(c.stats().epoch_msgs_sent, 0);
      EXPECT_EQ(c.stats().msgs_sent, 2);  // lifetime counters survive
    } else {
      op2ca::ByteBuf buf;
      Request r = c.irecv(0, 0, &buf);
      c.wait(r);
    }
  });
}

TEST(CostModel, MessageTime) {
  CostModel m;
  m.latency_s = 1e-6;
  m.bandwidth_Bps = 1e9;
  EXPECT_DOUBLE_EQ(m.message_time(1000), 1e-6 + 1e-6);
  EXPECT_GT(m.pack_time(1 << 20), 0.0);
}

TEST(Transport, PoisonUnblocksWaiters) {
  Transport t(2);
  std::thread waiter([&t] {
    Comm c(t, 0);
    op2ca::ByteBuf buf;
    Request r = c.irecv(1, 5, &buf);
    EXPECT_THROW(c.wait(r), Error);
  });
  // Give the waiter time to block, then poison.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.poison();
  waiter.join();
}

TEST(Transport, SelfSendRejected) {
  Transport t(2);
  Comm c(t, 0);
  EXPECT_THROW(c.isend(0, 0, std::span<const std::byte>{}), Error);
  op2ca::ByteBuf buf;
  EXPECT_THROW(c.irecv(0, 0, &buf), Error);
  // Peers outside [0, size) raise, naming the rank and the range, before
  // a send takes a per-destination lock or a wait blocks on a match.
  for (const rank_t bad : {-1, 2}) {
    const auto expect_named = [bad](const std::function<void()>& op) {
      try {
        op();
        ADD_FAILURE() << "rank " << bad << " was accepted";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rank " + std::to_string(bad)), std::string::npos)
            << what;
        EXPECT_NE(what.find("[0, 2)"), std::string::npos) << what;
      }
    };
    expect_named([&] { c.isend(bad, 0, std::span<const std::byte>{}); });
    expect_named([&] { c.isend(bad, 0, op2ca::ByteBuf(8)); });
    expect_named([&] { c.irecv(bad, 0, &buf); });
  }
}

TEST(Transport, RandomTrafficStress) {
  // 8 ranks exchange randomized tagged messages in a deterministic
  // pattern; every payload must arrive intact and in per-(src,tag) order.
  constexpr int kRanks = 8;
  constexpr int kRounds = 200;
  Transport t(kRanks);
  std::atomic<int> errors{0};
  spmd(t, kRanks, [&](Comm& c) {
    Rng rng(1000 + static_cast<std::uint64_t>(c.rank()));
    // Each round: send to (rank+1+round)%n a message whose content is a
    // function of (sender, round); receive the matching message from the
    // rank for which WE are that destination.
    for (int round = 0; round < kRounds; ++round) {
      const rank_t dst =
          static_cast<rank_t>((c.rank() + 1 + round) % kRanks);
      const rank_t src = static_cast<rank_t>(
          (c.rank() - 1 - round % kRanks + 2 * kRanks) % kRanks);
      // Rounds where everyone would self-send are skipped symmetrically.
      if (dst == c.rank()) {
        EXPECT_EQ(src, c.rank());
        continue;
      }
      const std::uint64_t value =
          (static_cast<std::uint64_t>(c.rank()) << 32) |
          static_cast<std::uint64_t>(round);
      op2ca::ByteBuf payload(sizeof value);
      std::memcpy(payload.data(), &value, sizeof value);
      Request s = c.isend(dst, round % 5, payload);
      c.wait(s);
      op2ca::ByteBuf buf;
      Request r = c.irecv(src, round % 5, &buf);
      c.wait(r);
      std::uint64_t got = 0;
      std::memcpy(&got, buf.data(), sizeof got);
      const std::uint64_t expect =
          (static_cast<std::uint64_t>(src) << 32) |
          static_cast<std::uint64_t>(round);
      if (got != expect) ++errors;
      (void)rng;
    }
  });
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(Collectives, ManySequentialReductionsStayConsistent) {
  constexpr int kRanks = 6;
  Transport t(kRanks);
  spmd(t, kRanks, [](Comm& c) {
    double acc = 0.0;
    for (int i = 1; i <= 50; ++i) {
      acc = c.allreduce_sum(static_cast<double>(c.rank()) + acc / 100.0);
      const auto all = c.allgather_bytes(bytes_of(std::to_string(i)));
      for (const op2ca::ByteBuf& b : all)
        EXPECT_EQ(string_of(b), std::to_string(i));
    }
    EXPECT_TRUE(std::isfinite(acc));
  });
}

TEST(StagingReturn, AsymmetricExchangeKeepsBothPoolsFlat) {
  // Rank 0 sends three 64 KiB payloads per epoch, rank 1 one 1 KiB
  // payload back. Each receiver gives every consumed payload back to the
  // sender's pool. A payload is back before its sender packs two epochs
  // later (the receiver unpacks before it posts its next message), so
  // the two spare sets a cached exchange parks at build time cover every
  // pack: both pools stay at their spare count. Releasing payloads into
  // the receiver's own pool instead would drain rank 0 by two buffers
  // per epoch.
  constexpr int kEpochs = 12;
  Transport t(2);
  BufferPool pools[2];
  std::int64_t after_two[2] = {0, 0};
  spmd(t, 2, [&](Comm& c) {
    const rank_t me = c.rank(), peer = 1 - me;
    const int sends = me == 0 ? 3 : 1, recvs = me == 0 ? 1 : 3;
    const std::size_t bytes = me == 0 ? 64 * 1024 : 1024;
    pools[me].reserve_spares(2 * static_cast<std::size_t>(sends), bytes);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (int m = 0; m < sends; ++m) {
        ByteBuf buf = pools[me].take(bytes);
        std::memset(buf.data(), epoch, buf.size());
        c.isend(peer, m, std::move(buf));
      }
      for (int m = 0; m < recvs; ++m) {
        ByteBuf buf;
        Request r = c.irecv(peer, m, &buf);
        c.wait(r);
        EXPECT_EQ(buf.size(), me == 0 ? 1024u : 64u * 1024u);
        EXPECT_EQ(buf[0], static_cast<std::byte>(epoch));
        pools[peer].give_back(std::move(buf));
      }
      if (epoch == 1) after_two[me] = pools[me].allocations();
    }
  });
  EXPECT_EQ(pools[0].allocations(), after_two[0]);
  EXPECT_EQ(pools[1].allocations(), after_two[1]);
  EXPECT_EQ(pools[0].allocations(), 6);  // the spares, nothing more
  EXPECT_EQ(pools[1].allocations(), 2);
}

TEST(StagingReturn, GiveBackFromAnotherThreadIsReclaimedOnTake) {
  BufferPool pool;
  ByteBuf buf = pool.take(4096);
  const std::byte* storage = buf.data();
  std::thread peer([&] { pool.give_back(std::move(buf)); });
  peer.join();
  EXPECT_EQ(pool.pooled(), 0u);  // parked until the owner's next take
  const ByteBuf again = pool.take(4096);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(pool.allocations(), 1);
}

TEST(StagingReturn, SparesServeTakesWithoutFurtherAllocation) {
  BufferPool pool;
  pool.reserve_spares(3, 1000);
  EXPECT_EQ(pool.allocations(), 3);
  pool.reserve_spares(2, 800);  // one spare set serves every exchange
  EXPECT_EQ(pool.allocations(), 3);
  ByteBuf a = pool.take(1000), b = pool.take(600), c = pool.take(1000);
  EXPECT_EQ(pool.allocations(), 3);
  EXPECT_GE(b.capacity(), 1000u);  // every spare fits the largest send
}

}  // namespace
}  // namespace op2ca::sim
