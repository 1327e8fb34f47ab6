// Hot-path infrastructure tests: BufferPool recycling, GroupedPlan
// pack/unpack against the reference (map-walking) implementation,
// zero-copy transport semantics, the region bodies' row addressing under
// compile-time argument kinds and its validation guard, and the
// steady-state zero-allocation / zero-rebuild guarantee of the cached
// exchange plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/comm/comm.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/partition/partition.hpp"
#include "op2ca/util/buffer_pool.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca {
namespace {

// -- BufferPool. --------------------------------------------------------

TEST(BufferPool, FreshTakeAllocates) {
  BufferPool pool;
  const auto buf = pool.take(128);
  EXPECT_EQ(buf.size(), 128u);
  EXPECT_EQ(pool.allocations(), 1);
}

TEST(BufferPool, ReleaseThenTakeReusesStorage) {
  BufferPool pool;
  op2ca::ByteBuf buf = pool.take(256);
  const std::byte* storage = buf.data();
  pool.release(std::move(buf));
  ASSERT_EQ(pool.pooled(), 1u);
  op2ca::ByteBuf again = pool.take(256);
  EXPECT_EQ(again.data(), storage);  // same heap block, no allocation
  EXPECT_EQ(pool.allocations(), 1);
}

TEST(BufferPool, SmallerTakeReusesWithoutGrowth) {
  BufferPool pool;
  pool.release(pool.take(512));
  const auto buf = pool.take(64);
  EXPECT_EQ(buf.size(), 64u);
  EXPECT_EQ(pool.allocations(), 1);
}

TEST(BufferPool, GrowthCountsAsAllocation) {
  BufferPool pool;
  pool.release(pool.take(64));
  const auto buf = pool.take(4096);
  EXPECT_EQ(buf.size(), 4096u);
  EXPECT_EQ(pool.allocations(), 2);
}

TEST(BufferPool, BestFitKeepsLargeBuffersForLargeRequests) {
  BufferPool pool;
  op2ca::ByteBuf small = pool.take(16);
  op2ca::ByteBuf big = pool.take(1024);
  pool.release(std::move(small));
  pool.release(std::move(big));
  // The small request must NOT consume the 1024-capacity buffer: the
  // 1000-byte request that follows would otherwise re-grow the 16-byte
  // one — every epoch, in a mixed-message-size exchange.
  pool.release(pool.take(8));
  pool.take(1000);
  EXPECT_EQ(pool.allocations(), 2);
}

// -- GroupedPlan vs the reference implementation. -----------------------

struct GroupedFixture {
  mesh::Quad2D q;
  partition::Partition part;
  halo::HaloPlan plan;
  /// Per rank: two dats (dim 3 depth 2 on nodes, dim 1 depth 1 on cells)
  /// with rank-dependent deterministic contents.
  std::vector<std::vector<double>> node_data, cell_data;

  explicit GroupedFixture(int nranks) : q(mesh::make_quad2d(12, 12)) {
    part = partition::partition_mesh(q.mesh, nranks, partition::Kind::RIB,
                                     q.nodes);
    halo::HaloPlanOptions opts;
    opts.depth = 2;
    plan = build_halo_plan(q.mesh, part, opts);
    for (rank_t r = 0; r < nranks; ++r) {
      const auto& nl = plan.layout(r, q.nodes);
      const auto& cl = plan.layout(r, q.cells);
      node_data.emplace_back(static_cast<std::size_t>(nl.total) * 3);
      cell_data.emplace_back(static_cast<std::size_t>(cl.total));
      for (std::size_t i = 0; i < node_data.back().size(); ++i)
        node_data.back()[i] = 1000.0 * r + static_cast<double>(i);
      for (std::size_t i = 0; i < cell_data.back().size(); ++i)
        cell_data.back()[i] = -2000.0 * r - static_cast<double>(i);
    }
  }

  std::vector<halo::DatSyncSpec> specs(rank_t r) {
    return {halo::DatSyncSpec{q.nodes, 3, 2, node_data[r].data()},
            halo::DatSyncSpec{q.cells, 1, 1, cell_data[r].data()}};
  }
};

TEST(GroupedPlan, PackMatchesReference) {
  GroupedFixture f(4);
  for (rank_t r = 0; r < 4; ++r) {
    const halo::RankPlan& rp = f.plan.ranks[static_cast<std::size_t>(r)];
    auto specs = f.specs(r);
    const halo::GroupedPlan gp = halo::build_grouped_plan(rp, specs);
    for (const halo::GroupedPlan::Side& side : gp.sides) {
      const op2ca::ByteBuf ref =
          halo::pack_grouped(rp, side.q, specs);
      ASSERT_EQ(ref.size(), side.send_bytes);
      op2ca::ByteBuf out(side.send_bytes);
      halo::pack_grouped(side, specs, out.data());
      EXPECT_EQ(out, ref) << "rank " << r << " -> " << side.q;
    }
    // Every neighbour with traffic must be covered by a side.
    const auto bytes = halo::grouped_message_bytes(rp, specs);
    for (const auto& [q2, n] : bytes) {
      const bool found =
          std::any_of(gp.sides.begin(), gp.sides.end(),
                      [q2 = q2](const auto& s) { return s.q == q2; });
      EXPECT_TRUE(found) << "missing side for neighbour " << q2;
    }
  }
}

TEST(GroupedPlan, UnpackMatchesReference) {
  GroupedFixture f(4);
  // Rank 0 receives from each neighbour the buffer that neighbour packs;
  // unpacking through the plan must scatter exactly what the reference
  // unpack scatters.
  const halo::RankPlan& rp0 = f.plan.ranks[0];
  auto specs_plan = f.specs(0);
  const halo::GroupedPlan gp = halo::build_grouped_plan(rp0, specs_plan);

  // Two independent copies of rank 0's arrays, one per unpack path.
  GroupedFixture ref_copy(4);
  auto specs_ref = ref_copy.specs(0);

  for (const halo::GroupedPlan::Side& side : gp.sides) {
    if (side.recv_bytes == 0) continue;
    const rank_t q = side.q;
    auto sender_specs = f.specs(q);
    const op2ca::ByteBuf payload = halo::pack_grouped(
        f.plan.ranks[static_cast<std::size_t>(q)], 0, sender_specs);
    ASSERT_EQ(payload.size(), side.recv_bytes);
    halo::unpack_grouped(side, specs_plan, payload);
    halo::unpack_grouped(rp0, q, specs_ref, payload);
  }
  EXPECT_EQ(f.node_data[0], ref_copy.node_data[0]);
  EXPECT_EQ(f.cell_data[0], ref_copy.cell_data[0]);
}

TEST(GroupedPlan, PerDatClassCutsOneMessagePerDatAndClass) {
  // The per-loop exchange: each (spec, halo class, neighbour) travels
  // alone under tag + 2*spec + class and carries exactly that class's
  // layers; together the sides move what the grouped message moves.
  GroupedFixture f(4);
  constexpr sim::tag_t kTag = 100;
  for (rank_t r = 0; r < 4; ++r) {
    const halo::RankPlan& rp = f.plan.ranks[static_cast<std::size_t>(r)];
    const auto specs = f.specs(r);
    const halo::GroupedPlan grouped = halo::build_grouped_plan(rp, specs);
    const halo::GroupedPlan split = halo::build_grouped_plan(
        rp, specs, halo::Grouping::PerDatClass, kTag);
    std::map<rank_t, std::size_t> split_bytes;
    for (const halo::GroupedPlan::Side& side : split.sides) {
      const auto s = static_cast<std::size_t>((side.tag - kTag) / 2);
      const bool exec = (side.tag - kTag) % 2 == 0;
      ASSERT_LT(s, specs.size());
      const halo::NeighborLists& nl =
          rp.lists[static_cast<std::size_t>(specs[s].set)];
      // The side points at the plan's own non-empty layer lists, in
      // layer order; it copies none of them.
      using Lists = std::vector<const LIdxVec*>;
      const auto layers = [&](const auto& table) {
        Lists lists;
        const auto it = table.find(side.q);
        if (it == table.end()) return lists;
        for (int k = 0; k < specs[s].depth &&
                        k < static_cast<int>(it->second.size());
             ++k) {
          const LIdxVec& layer = it->second[static_cast<std::size_t>(k)];
          if (!layer.empty()) lists.push_back(&layer);
        }
        return lists;
      };
      const auto of_spec =
          [](const std::vector<halo::GroupedPlan::Segment>& segs,
             std::size_t o) {
            Lists lists;
            for (const halo::GroupedPlan::Segment& seg : segs)
              if (seg.spec == o) lists.push_back(seg.rows);
            return lists;
          };
      const Lists gather = layers(exec ? nl.exp_exec : nl.exp_nonexec);
      const Lists scatter = layers(exec ? nl.imp_exec : nl.imp_nonexec);
      for (std::size_t o = 0; o < specs.size(); ++o) {
        EXPECT_EQ(of_spec(side.gather, o), o == s ? gather : Lists{});
        EXPECT_EQ(of_spec(side.scatter, o), o == s ? scatter : Lists{});
      }
      split_bytes[side.q] += side.send_bytes;
    }
    for (const halo::GroupedPlan::Side& side : grouped.sides)
      EXPECT_EQ(split_bytes[side.q], side.send_bytes)
          << "rank " << r << " -> " << side.q;
  }
}

TEST(GroupedPlan, PlanPackRejectsNothingButWrongSizeUnpackThrows) {
  GroupedFixture f(2);
  const halo::RankPlan& rp = f.plan.ranks[0];
  auto specs = f.specs(0);
  const halo::GroupedPlan gp = halo::build_grouped_plan(rp, specs);
  ASSERT_FALSE(gp.sides.empty());
  const auto& side = gp.sides[0];
  ASSERT_GT(side.recv_bytes, 0u);
  op2ca::ByteBuf bogus(side.recv_bytes + 8);
  EXPECT_THROW(halo::unpack_grouped(side, specs, bogus), Error);
}

// -- Zero-copy transport. -----------------------------------------------

TEST(ZeroCopy, MovedSendPreservesStorageIdentity) {
  sim::Transport t(2);
  sim::Comm c0(t, 0), c1(t, 1);

  op2ca::ByteBuf buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(i);
  const std::byte* storage = buf.data();

  sim::Request s = c0.isend(1, 7, std::move(buf));
  EXPECT_TRUE(buf.empty());  // ownership gone: no payload copy was made

  op2ca::ByteBuf recv;
  sim::Request r = c1.irecv(0, 7, &recv);
  c1.wait(r);
  c0.wait(s);

  ASSERT_EQ(recv.size(), 64u);
  // The receiver holds the very heap block the sender packed into.
  EXPECT_EQ(recv.data(), storage);
  for (std::size_t i = 0; i < recv.size(); ++i)
    EXPECT_EQ(recv[i], static_cast<std::byte>(i));
}

TEST(ZeroCopy, SpanSendStillCopies) {
  sim::Transport t(2);
  sim::Comm c0(t, 0), c1(t, 1);
  op2ca::ByteBuf buf(16, std::byte{42});
  sim::Request s = c0.isend(1, 1, std::span<const std::byte>(buf));
  EXPECT_EQ(buf.size(), 16u);  // caller keeps its buffer
  op2ca::ByteBuf recv;
  sim::Request r = c1.irecv(0, 1, &recv);
  c1.wait(r);
  c0.wait(s);
  EXPECT_NE(recv.data(), buf.data());
  EXPECT_EQ(recv, buf);
}

// -- Region bodies: addressing paths and the validation guard. ----------

namespace cd = core::detail;

using Kind = core::Arg::Kind;
constexpr Kind kD = Kind::DatDirect;
constexpr Kind kI = Kind::DatIndirect;
constexpr Kind kG = Kind::Gbl;

// par_loop takes only descriptors whose type carries their kind; a plain
// Arg (kind known only at run time) must not satisfy its constraint.
static_assert(!core::LoopArg<core::Arg>);
static_assert(core::LoopArg<decltype(core::arg_dat(core::Dat{},
                                                   core::Access::READ))>);
static_assert(core::LoopArg<decltype(core::arg_dat(
                  core::Dat{}, 0, core::Map{}, core::Access::INC))>);
static_assert(core::LoopArg<decltype(core::arg_gbl(nullptr, 1,
                                                   core::Access::READ))>);
static_assert(decltype(core::arg_dat(core::Dat{}, 0, core::Map{},
                                     core::Access::READ))::kKind == kI);

constexpr int kDim = 3;
constexpr lidx_t kEdges = 30;
constexpr lidx_t kNodes = 40;

/// Hand-built args of an edge loop over a direct dat, a node dat reached
/// through both columns of an arity-2 map, a gbl READ and a gbl INC.
/// `rargs` lists them as direct, column 0, column 1, gbl READ, gbl INC;
/// `interleaved` as gbl READ, column 0, direct, column 1, gbl INC.
struct DispatchArgs {
  std::vector<double> edge_data, node_data;
  std::vector<lidx_t> map;
  double gbl_read[kDim] = {1, 2, 3};
  double gbl_inc[kDim] = {0, 0, 0};
  std::vector<cd::ResolvedArg> rargs, interleaved;

  DispatchArgs() {
    edge_data.assign(static_cast<std::size_t>(kEdges) * kDim, 0.0);
    node_data.assign(static_cast<std::size_t>(kNodes) * kDim, 0.0);
    for (lidx_t e = 0; e < kEdges; ++e) {
      map.push_back((e * 7) % kNodes);
      map.push_back((e * 11 + 3) % kNodes);
    }
    cd::ResolvedArg d;
    d.base = edge_data.data();
    d.row = kDim;
    cd::ResolvedArg col[2];
    for (int c = 0; c < 2; ++c) {
      col[c].base = node_data.data();
      col[c].row = kDim;
      col[c].col = map.data() + c;
      col[c].arity = 2;
    }
    cd::ResolvedArg g[2];
    for (int j = 0; j < 2; ++j) {
      g[j].base = j == 0 ? gbl_read : gbl_inc;
      g[j].row = kDim;
      g[j].is_gbl = true;
    }
    rargs = {d, col[0], col[1], g[0], g[1]};
    interleaved = {g[0], col[0], d, col[1], g[1]};
  }
};

/// The region bodies par_loop would build for DispatchArgs::rargs /
/// ::interleaved.
template <typename K>
cd::LoopBodies edge_loop_bodies(K k, const DispatchArgs& f, bool validate,
                                const char* name = "loop") {
  return cd::make_loop_bodies<kD, kI, kI, kG, kG>(k, f.rargs, validate,
                                                  name);
}
template <typename K>
cd::LoopBodies interleaved_bodies(K k, const DispatchArgs& f) {
  return cd::make_loop_bodies<kG, kI, kD, kI, kG>(k, f.interleaved, true,
                                                  "loop");
}

/// Records every component address the kernel is handed, per call.
struct AddressRecorder {
  std::vector<std::vector<const double*>>* calls;

  template <typename... A>
  void operator()(A&&... args) const {
    static_assert((std::is_same_v<std::decay_t<A>, double*> && ...),
                  "region bodies hand kernels double* rows");
    std::vector<const double*> row;
    auto add = [&row](const double* a) {
      for (int c = 0; c < kDim; ++c) row.push_back(&a[c]);
    };
    (add(args), ...);
    calls->push_back(std::move(row));
  }
};

/// What the run-time resolve_arg computes for each iteration of `order`.
std::vector<std::vector<const double*>> expected_addresses(
    const std::vector<cd::ResolvedArg>& rargs,
    const std::vector<lidx_t>& order) {
  std::vector<std::vector<const double*>> out;
  for (lidx_t i : order) {
    std::vector<const double*> row;
    for (const cd::ResolvedArg& a : rargs) {
      const double* r = cd::resolve_arg(a, i, false);
      for (int c = 0; c < kDim; ++c) row.push_back(&r[c]);
    }
    out.push_back(std::move(row));
  }
  return out;
}

const std::vector<lidx_t> kListOrder = {5, 2, 17, 29, 0, 11};

std::vector<lidx_t> range_order(lidx_t begin, lidx_t end) {
  std::vector<lidx_t> out;
  for (lidx_t i = begin; i < end; ++i) out.push_back(i);
  return out;
}

TEST(Dispatch, RecordBodiesMatchResolveArg) {
  // The interleaved order puts a gbl READ first, a direct arg between two
  // indirect ones and a gbl INC last: each position must get its own
  // kind's addressing, not its neighbour's.
  const DispatchArgs f;
  for (const bool interleaved : {false, true}) {
    const std::vector<cd::ResolvedArg>& args =
        interleaved ? f.interleaved : f.rargs;
    std::vector<std::vector<const double*>> calls;
    const AddressRecorder k{&calls};
    const cd::LoopBodies b =
        interleaved ? interleaved_bodies(k, f) : edge_loop_bodies(k, f, true);
    b.range(3, 21);
    EXPECT_EQ(calls, expected_addresses(args, range_order(3, 21)))
        << "interleaved=" << interleaved;
    calls.clear();
    b.list(kListOrder.data(), kListOrder.size());
    EXPECT_EQ(calls, expected_addresses(args, kListOrder))
        << "interleaved=" << interleaved;
  }
}

TEST(Dispatch, BodiesHandRowsAtResolveArgAddresses) {
  const DispatchArgs f;
  std::vector<std::vector<const double*>> calls;
  const cd::LoopBodies b = edge_loop_bodies(AddressRecorder{&calls}, f, true);
  b.list(kListOrder.data(), kListOrder.size());
  // Spot-check the row arithmetic behind those addresses.
  EXPECT_EQ(calls[0][0], f.edge_data.data() + 5 * kDim);
  EXPECT_EQ(calls[0][kDim], f.node_data.data() + f.map[10] * kDim);
  EXPECT_EQ(calls[0][2 * kDim], f.node_data.data() + f.map[11] * kDim);
  EXPECT_EQ(calls[0][3 * kDim], f.gbl_read);
  EXPECT_EQ(calls[0][4 * kDim + 2], f.gbl_inc + 2);
}

/// Runs `body` expecting the out-of-region Error naming "bad_loop".
template <typename F>
void expect_names_loop(F body) {
  try {
    body();
    ADD_FAILURE() << "no error raised";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'bad_loop'"), std::string::npos)
        << e.what();
  }
}

TEST(Dispatch, ValidationNamesTheLoopOnBothPaths) {
  // Both region bodies: the range walk and the gathered list.
  DispatchArgs f;
  f.map[2 * 4 + 1] = kInvalidLocal;  // edge 4, second column
  std::vector<std::vector<const double*>> calls;
  const cd::LoopBodies b =
      edge_loop_bodies(AddressRecorder{&calls}, f, true, "bad_loop");
  expect_names_loop([&] { b.range(0, kEdges); });
  EXPECT_EQ(calls.size(), 4u);  // edges 0-3 ran, edge 4 raised
  const lidx_t idx[] = {7, 4};
  expect_names_loop([&] { b.list(idx, 2); });
  // Without validation the hole is not checked (the production
  // default): iterations that avoid it run normally.
  const cd::LoopBodies quiet =
      edge_loop_bodies(AddressRecorder{&calls}, f, false, "bad_loop");
  EXPECT_NO_THROW(quiet.range(0, 4));
}

// -- Steady-state plan reuse: zero rebuilds, zero staging allocations. --

core::WorldConfig hotpath_config(int nranks, bool enable_ca) {
  core::WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  if (enable_ca) cfg.chains.enable("synthetic");
  return cfg;
}

TEST(PlanReuse, ChainEpochsAreAllocationFreeAfterWarmup) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  core::World w(std::move(prob.mg.mesh), hotpath_config(6, true));
  auto epochs = [&](int n) {
    w.run([&](core::Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      for (int t = 0; t < n; ++t)
        apps::mgcfd::run_synthetic_chain(rt, h, 3);
    });
  };
  epochs(16);  // warm-up: builds the analysis and both stale-mask
               // exchanges, then lets staging capacities circulate
               // between neighbour pools until every rank's pool covers
               // its send sizes (zero-copy sends hand buffers away, so
               // capacities converge over a few epochs, not instantly)
  w.clear_metrics();
  epochs(4);  // steady state
  const core::LoopMetrics m = w.chain_metrics().at("synthetic");
  EXPECT_EQ(m.calls, 4);  // cross-rank merge keeps per-rank call count
  EXPECT_EQ(m.plan_builds, 0) << "steady-state chain rebuilt its plan";
  EXPECT_EQ(m.staging_allocs, 0)
      << "steady-state chain pack/unpack allocated";
  EXPECT_GT(m.msgs, 0);  // the exchange still actually happens
}

TEST(PlanReuse, Op2LoopsAreAllocationFreeAfterWarmup) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  core::World w(std::move(prob.mg.mesh), hotpath_config(5, false));
  auto epochs = [&](int n) {
    w.run([&](core::Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      for (int t = 0; t < n; ++t)
        apps::mgcfd::run_synthetic_chain(rt, h, 3);
    });
  };
  epochs(2);
  w.clear_metrics();
  epochs(3);
  for (const auto& [name, m] : w.loop_metrics()) {
    EXPECT_EQ(m.plan_builds, 0) << name;
    EXPECT_EQ(m.staging_allocs, 0) << name;
  }
}

TEST(PlanReuse, BatchedDispatchUsesOneRegionPerPhase) {
  // With batching on, a direct loop over N owned elements must issue O(1)
  // region calls, not O(N).
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  core::World w(std::move(prob.mg.mesh), hotpath_config(4, false));
  w.run([&](core::Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    apps::mgcfd::run_synthetic_chain(rt, h, 1);
  });
  for (const auto& [name, m] : w.loop_metrics()) {
    // core + boundary (+ exec halo for indirect-write loops) per rank:
    // at most 3 regions per call per rank. dispatch_regions sums over
    // the 4 ranks; calls is the per-rank count (cross-rank max).
    EXPECT_LE(m.dispatch_regions, 3 * 4 * m.calls) << name;
    EXPECT_GE(m.dispatch_regions, m.calls) << name;
  }
}

}  // namespace
}  // namespace op2ca
