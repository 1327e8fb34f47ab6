// Unit tests for the util module: RNG, tables, options, errors.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "op2ca/util/aligned.hpp"
#include "op2ca/util/buffer_pool.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/options.hpp"
#include "op2ca/util/rng.hpp"
#include "op2ca/util/table.hpp"

namespace op2ca {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitIndependence) {
  Rng a(42);
  Rng s1 = a.split(1), s2 = a.split(2);
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Rng, RangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    const std::int64_t n = rng.next_int(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(Rng, IntDistributionCoversRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Table, PrintAndCsv) {
  Table t("demo");
  t.set_header({"name", "count", "ratio"});
  t.add_row({std::string("a"), std::int64_t{42}, 0.5});
  t.add_row({std::string("b,c"), std::int64_t{7}, 1.25});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("42"), std::string::npos);

  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_NE(csv.str().find("\"b,c\""), std::string::npos);
}

TEST(Table, RowWidthMismatchRaises) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), Error);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(-1000), "-1,000");
  EXPECT_EQ(format_count(12), "12");
}

TEST(Options, ParsesForms) {
  // Note: a known option followed by a bare token consumes it as a
  // value, so boolean flags must use --flag=true or come last.
  const char* argv[] = {"prog",        "--nodes=4", "--mesh", "8M",
                        "positional",  "--ratio=0.5", "--flag"};
  Options opt(7, argv, {"nodes", "mesh", "flag", "ratio"});
  EXPECT_EQ(opt.get_int("nodes", 0), 4);
  EXPECT_EQ(opt.get_string("mesh", ""), "8M");
  EXPECT_TRUE(opt.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(opt.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(opt.positional().size(), 1u);
  EXPECT_EQ(opt.positional()[0], "positional");
}

TEST(Options, UnknownOptionRaises) {
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_THROW(Options(2, argv, {"nodes"}), Error);
}

TEST(Options, BadIntRaises) {
  const char* argv[] = {"prog", "--nodes=abc"};
  Options opt(2, argv, {"nodes"});
  EXPECT_THROW(opt.get_int("nodes", 0), Error);
}

/// Runs `get` expecting an Error whose message names option `name`.
template <typename F>
void expect_rejects(const std::string& name, F get) {
  try {
    get();
    ADD_FAILURE() << "--" << name << " was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--" + name), std::string::npos)
        << e.what();
  }
}

TEST(Options, RejectsEmptyAndOutOfRangeNumbers) {
  const char* argv[] = {"prog",          "--seed=",
                        "--ratio=",      "--big=99999999999999999999",
                        "--huge=1e999",  "--ok=-7"};
  const Options opt(6, argv, {"seed", "ratio", "big", "huge", "ok"});
  for (const char* name : {"seed", "big"})
    expect_rejects(name, [&] { opt.get_int(name, 0); });
  for (const char* name : {"ratio", "huge"})
    expect_rejects(name, [&] { opt.get_double(name, 0.0); });
  EXPECT_EQ(opt.get_int("ok", 0), -7);
  EXPECT_DOUBLE_EQ(opt.get_double("ok", 0.0), -7.0);
}

TEST(Error, MessageCarriesLocation) {
  try {
    OP2CA_REQUIRE(false, "boom");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"),
              std::string::npos);
  }
}

TEST(BufferPool, SteadyStateStaysAllocationFree) {
  BufferPool pool;
  for (int i = 0; i < 4; ++i) pool.release(pool.take(1024));
  const std::int64_t allocs = pool.allocations();
  // Many decay windows of identical demand: the mark tracks the size
  // exactly, so no buffer is ever dropped or re-grown.
  for (int i = 0; i < 500; ++i) pool.release(pool.take(1024));
  EXPECT_EQ(pool.allocations(), allocs);
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST(BufferPool, HighWaterDecaysAfterSpike) {
  BufferPool pool;
  for (int i = 0; i < 10; ++i) pool.release(pool.take(1 << 10));
  // One-off large chain.
  pool.release(pool.take(8 << 20));
  EXPECT_GE(pool.high_water(), std::size_t{8} << 20);
  EXPECT_GE(pool.pooled_bytes(), std::size_t{8} << 20);
  // Steady small traffic: after a window rollover the mark follows
  // demand down and the spike's storage leaves the pool.
  for (int i = 0; i < 200; ++i) pool.release(pool.take(1 << 10));
  EXPECT_LT(pool.high_water(), std::size_t{8} << 20);
  EXPECT_LT(pool.pooled_bytes(), std::size_t{1} << 20);
}

TEST(BufferPool, ReleaseDropsSpikeLeftoverAfterDecay) {
  BufferPool pool;
  // A large buffer still in flight while demand decays (e.g. a chain's
  // recv slot) must not re-enter the pool on release.
  op2ca::ByteBuf big = pool.take(4 << 20);
  for (int i = 0; i < 200; ++i) pool.release(pool.take(512));
  const std::size_t before = pool.pooled_bytes();
  pool.release(std::move(big));
  EXPECT_EQ(pool.pooled_bytes(), before);
}

TEST(BufferPool, MixedSizesKeepLargeBuffersWithinWindow) {
  BufferPool pool;
  // Alternating small/large demand inside every window: the window max
  // stays large, so the large buffer survives every decay.
  for (int i = 0; i < 300; ++i) {
    pool.release(pool.take(256));
    pool.release(pool.take(1 << 16));
  }
  EXPECT_GE(pool.high_water(), std::size_t{1} << 16);
  EXPECT_GE(pool.pooled_bytes(), std::size_t{1} << 16);
}

// -- Cache alignment (the halo pack copies whole rows with wide loads, so
// staging buffers carry the allocator's 64-byte guarantee). -------------

TEST(BufferPool, BuffersAreCacheAligned) {
  BufferPool pool;
  for (const std::size_t bytes : {1u, 63u, 64u, 65u, 4096u, 100001u}) {
    op2ca::ByteBuf buf = pool.take(bytes);
    EXPECT_EQ(buf.size(), bytes);
    EXPECT_TRUE(util::cache_aligned(buf.data())) << bytes;
    pool.release(std::move(buf));
  }
}

TEST(BufferPool, AlignmentSurvivesRecycling) {
  BufferPool pool;
  // Shrinking reuse: a recycled buffer is resized down, never
  // reallocated, so the original allocation's alignment must carry over.
  pool.release(pool.take(8192));
  const std::int64_t allocs = pool.allocations();
  for (const std::size_t bytes : {8192u, 100u, 8000u, 1u}) {
    op2ca::ByteBuf buf = pool.take(bytes);
    EXPECT_TRUE(util::cache_aligned(buf.data())) << bytes;
    pool.release(std::move(buf));
  }
  EXPECT_EQ(pool.allocations(), allocs);  // all served from the pool
}

TEST(BufferPool, AlignmentSurvivesHighWaterDecay) {
  BufferPool pool;
  // Spike, then decay back to small traffic: post-decay allocations are
  // fresh and must come out aligned like the originals.
  pool.release(pool.take(8 << 20));
  for (int i = 0; i < 200; ++i) {
    op2ca::ByteBuf buf = pool.take(512);
    EXPECT_TRUE(util::cache_aligned(buf.data()));
    pool.release(std::move(buf));
  }
  EXPECT_LT(pool.pooled_bytes(), std::size_t{1} << 20);
  op2ca::ByteBuf buf = pool.take(640);
  EXPECT_TRUE(util::cache_aligned(buf.data()));
}

TEST(BufferPool, HighWaterRoundsUpToCacheLines) {
  BufferPool pool;
  pool.release(pool.take(65));  // rounds to 128
  EXPECT_EQ(pool.high_water() % util::kCacheLine, 0u);
  EXPECT_GE(pool.high_water(), std::size_t{128});
}

TEST(AlignedAlloc, VectorStorageIsCacheAligned) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    util::AlignedDVec v(n, 1.0);
    EXPECT_TRUE(util::cache_aligned(v.data())) << n;
    util::AlignedDVec moved = std::move(v);  // moves keep the allocation
    EXPECT_TRUE(util::cache_aligned(moved.data())) << n;
  }
}

}  // namespace
}  // namespace op2ca
