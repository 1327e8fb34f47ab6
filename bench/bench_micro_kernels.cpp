// Microbenchmarks (google-benchmark): per-iteration kernel costs (the g
// of Eqs 1-3), halo pack/unpack throughput (the c of Eq 3), the simulated
// transport's point-to-point round-trip, and the hot-path comparison
// harness (run after the google benchmarks by the custom main) that
// measures batched region dispatch against the per-element dispatch it
// replaced and the cached GroupedPlan pack+send against the
// allocate-and-copy style, writing BENCH_hotpath.json. Further custom
// sections write BENCH_locality.json and BENCH_tiling.json (temporal
// chain tiling A/B).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "op2ca/apps/hydra/hydra_kernels.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/comm/comm.hpp"
#include "op2ca/comm/transport.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/mesh/hex3d.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/mesh/reorder.hpp"
#include "op2ca/partition/partition.hpp"
#include "op2ca/util/buffer_pool.hpp"
#include "op2ca/util/rng.hpp"
#include "op2ca/util/timer.hpp"

namespace {

using namespace op2ca;

void BM_MgcfdFluxKernel(benchmark::State& state) {
  Rng rng(1);
  double q1[5], q2[5], ewt[3], r1[5] = {0}, r2[5] = {0};
  for (auto& v : q1) v = rng.next_range(0.5, 1.5);
  for (auto& v : q2) v = rng.next_range(0.5, 1.5);
  for (auto& v : ewt) v = rng.next_range(-0.5, 0.5);
  q1[4] = q2[4] = 2.5;
  for (auto _ : state) {
    apps::mgcfd::kernels::compute_flux_edge(q1, q2, ewt, r1, r2);
    benchmark::DoNotOptimize(r1);
    benchmark::DoNotOptimize(r2);
  }
}
BENCHMARK(BM_MgcfdFluxKernel);

void BM_SyntheticUpdateKernel(benchmark::State& state) {
  double res1[2] = {0}, res2[2] = {0}, p1[2] = {1, 2}, p2[2] = {3, 4};
  for (auto _ : state) {
    apps::mgcfd::kernels::synth_update(res1, res2, p1, p2);
    benchmark::DoNotOptimize(res1);
  }
}
BENCHMARK(BM_SyntheticUpdateKernel);

void BM_SyntheticFluxKernel(benchmark::State& state) {
  double f1[2] = {0}, f2[2] = {0}, r1[2] = {1, 2}, r2[2] = {3, 4},
         ewt[4] = {0.1, 0.2, 0.3, 0.4};
  for (auto _ : state) {
    apps::mgcfd::kernels::synth_edge_flux(f1, f2, r1, r2, ewt);
    benchmark::DoNotOptimize(f1);
  }
}
BENCHMARK(BM_SyntheticFluxKernel);

void BM_HydraVfluxKernel(benchmark::State& state) {
  Rng rng(2);
  double qp1[6], qp2[6], xp1[6], xp2[6], ql1[6], ql2[6];
  double mu1[6], mu2[6], rg1[6], rg2[6], r1[6] = {0}, r2[6] = {0};
  for (auto* arr : {qp1, qp2, xp1, xp2, ql1, ql2, mu1, mu2, rg1, rg2})
    for (int k = 0; k < 6; ++k) arr[k] = rng.next_range(0.5, 1.5);
  for (auto _ : state) {
    apps::hydra::kernels::vflux_edge(qp1, qp2, xp1, xp2, ql1, ql2, mu1,
                                     mu2, rg1, rg2, r1, r2);
    benchmark::DoNotOptimize(r1);
  }
}
BENCHMARK(BM_HydraVfluxKernel);

void BM_PackRows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> data(n * 6, 1.0);
  LIdxVec idx(n);
  for (std::size_t i = 0; i < n; ++i)
    idx[i] = static_cast<lidx_t>((i * 7) % n);
  for (auto _ : state) {
    op2ca::ByteBuf buf;
    halo::pack_rows(data.data(), 6, idx, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 6 * 8);
}
BENCHMARK(BM_PackRows)->Arg(256)->Arg(4096)->Arg(65536);

void BM_TransportPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  sim::Transport transport(2);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    sim::Comm c(transport, 1);
    while (!stop.load()) {
      sim::Message msg;
      if (!transport.try_match(1, 0, 0, &msg)) {
        std::this_thread::yield();
        continue;
      }
      c.isend(0, 1, msg.payload);
    }
  });
  sim::Comm c(transport, 0);
  op2ca::ByteBuf payload(bytes, std::byte{1});
  for (auto _ : state) {
    c.isend(1, 0, payload);
    op2ca::ByteBuf back;
    sim::Request r = c.irecv(1, 1, &back);
    c.wait(r);
    benchmark::DoNotOptimize(back);
  }
  stop.store(true);
  // Flush a final message in case the echo thread is blocked; it polls,
  // so it exits on the flag.
  echo.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes) * 2);
}
BENCHMARK(BM_TransportPingPong)->Arg(64)->Arg(8192);

// ---------------------------------------------------------------------
// Hot-path comparison harness: timed A/B runs written to
// BENCH_hotpath.json (machine-readable; paths in ns/element and GB/s).
// ---------------------------------------------------------------------

/// Repeats `fn` until ~0.2 s elapse (after one warm-up call) and returns
/// seconds per call.
double time_per_call(const std::function<void()>& fn) {
  fn();  // warm-up
  int reps = 0;
  WallTimer t;
  do {
    fn();
    ++reps;
  } while (t.elapsed() < 0.2);
  return t.elapsed() / reps;
}

/// Repetitions behind each CI-gated figure: the gate reads the median of
/// this many interleaved A/B repetitions, so one noisy repetition on a
/// shared runner cannot flip it; the JSON keeps min and max beside it.
constexpr int kGateReps = 5;

/// Median, min and max of a figure's repetitions (kGateReps is odd).
struct Spread {
  double median = 0, min = 0, max = 0;
};

Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v.front(), v.back()};
}

/// `"key": median, "key_min": min, "key_max": max` for a JSON object.
std::string json_spread(const std::string& key, const Spread& s) {
  std::ostringstream os;
  os.precision(5);
  os << '"' << key << "\": " << s.median << ", \"" << key
     << "_min\": " << s.min << ", \"" << key << "_max\": " << s.max;
  return os.str();
}

/// Region body vs hand-written loop, medians of kGateReps interleaved
/// repetitions (one of each per repetition).
struct DispatchResult {
  double per_element_ns = 0;  ///< seed-style std::function per element.
  double batched_ns = 0;      ///< the region body par_loop stores.
  double raw_ns = 0;          ///< hand-written loop, same kernel + arrays.
  /// The dispatch tax: how much slower the region body runs than the
  /// hand-written loop (1 = none), per repetition.
  Spread batched_over_raw;
  double speedup() const { return per_element_ns / batched_ns; }
};

/// Times the three dispatch forms of one loop: the per-element form
/// once, the region body and the hand-written loop interleaved.
DispatchResult time_dispatch(double elems,
                             const std::function<void()>& per_element,
                             const std::function<void()>& batched,
                             const std::function<void()>& raw) {
  DispatchResult r;
  r.per_element_ns = 1e9 / elems * time_per_call(per_element);
  std::vector<double> batched_ns, raw_ns, ratio;
  for (int rep = 0; rep < kGateReps; ++rep) {
    batched_ns.push_back(1e9 / elems * time_per_call(batched));
    raw_ns.push_back(1e9 / elems * time_per_call(raw));
    ratio.push_back(batched_ns.back() / raw_ns.back());
  }
  r.batched_ns = spread(batched_ns).median;
  r.raw_ns = spread(raw_ns).median;
  r.batched_over_raw = spread(ratio);
  return r;
}

/// Direct loop: two dim-2 direct args, the cheapest realistic kernel, so
/// the measurement isolates dispatch overhead.
DispatchResult bench_direct_dispatch() {
  namespace cd = core::detail;
  constexpr lidx_t kN = 1 << 17;
  std::vector<double> a(static_cast<std::size_t>(kN) * 2, 1.0);
  std::vector<double> b(static_cast<std::size_t>(kN) * 2, 2.0);
  const auto kernel = [](double* x, const double* y) {
    x[0] += 0.5 * y[0];
    x[1] += 0.25 * y[1];
  };
  std::vector<cd::ResolvedArg> rargs(2);
  rargs[0].base = a.data();
  rargs[0].row = 2;
  rargs[1].base = b.data();
  rargs[1].row = 2;

  // Seed-style: one type-erased call per element, args resolved from the
  // vector inside every call.
  std::function<void(lidx_t)> element = [kernel, rargs](lidx_t i) {
    kernel(cd::resolve_arg(rargs[0], i, false),
           cd::resolve_arg(rargs[1], i, false));
  };
  // Batched: the range body par_loop stores for this loop of two direct
  // args.
  constexpr auto kD = core::Arg::Kind::DatDirect;
  const std::function<void(lidx_t, lidx_t)> region =
      cd::make_loop_bodies<kD, kD>(kernel, rargs, false, "bench").range;

  return time_dispatch(
      kN, [&] { for (lidx_t i = 0; i < kN; ++i) element(i); },
      [&] { region(0, kN); },
      [&] {
        for (std::size_t i = 0; i < static_cast<std::size_t>(kN); ++i)
          kernel(a.data() + 2 * i, b.data() + 2 * i);
      });
}

/// Indirect loop: the synthetic update pattern (two INC + two READ args
/// through an arity-2 map).
DispatchResult bench_indirect_dispatch() {
  namespace cd = core::detail;
  constexpr lidx_t kEdges = 1 << 17;
  constexpr lidx_t kNodes = 1 << 16;
  Rng rng(3);
  std::vector<double> res(static_cast<std::size_t>(kNodes) * 2, 0.0);
  std::vector<double> pres(static_cast<std::size_t>(kNodes) * 2, 1.0);
  std::vector<lidx_t> map(static_cast<std::size_t>(kEdges) * 2);
  for (auto& t : map)
    t = static_cast<lidx_t>(rng.next_int(0, kNodes - 1));

  const auto kernel = apps::mgcfd::kernels::synth_update;
  std::vector<cd::ResolvedArg> rargs(4);
  for (int j = 0; j < 4; ++j) {
    rargs[static_cast<std::size_t>(j)].base =
        j < 2 ? res.data() : pres.data();
    rargs[static_cast<std::size_t>(j)].col = map.data() + j % 2;
    rargs[static_cast<std::size_t>(j)].arity = 2;
    rargs[static_cast<std::size_t>(j)].row = 2;
  }

  std::function<void(lidx_t)> element = [kernel, rargs](lidx_t i) {
    kernel(cd::resolve_arg(rargs[0], i, false),
           cd::resolve_arg(rargs[1], i, false),
           cd::resolve_arg(rargs[2], i, false),
           cd::resolve_arg(rargs[3], i, false));
  };
  constexpr auto kI = core::Arg::Kind::DatIndirect;
  const std::function<void(lidx_t, lidx_t)> region =
      cd::make_loop_bodies<kI, kI, kI, kI>(kernel, rargs, false, "bench")
          .range;

  return time_dispatch(
      kEdges, [&] { for (lidx_t i = 0; i < kEdges; ++i) element(i); },
      [&] { region(0, kEdges); },
      [&] {
        for (std::size_t e = 0; e < static_cast<std::size_t>(kEdges); ++e) {
          const auto n0 = static_cast<std::size_t>(map[2 * e]);
          const auto n1 = static_cast<std::size_t>(map[2 * e + 1]);
          kernel(res.data() + 2 * n0, res.data() + 2 * n1,
                 pres.data() + 2 * n0, pres.data() + 2 * n1);
        }
      });
}

struct GroupedResult {
  double seed_pack_send_gbps = 0;  ///< alloc + pack + copying isend.
  double plan_pack_send_gbps = 0;  ///< pooled buffer + plan pack + move.
  double ref_unpack_gbps = 0;
  double plan_unpack_gbps = 0;
  double pack_send_speedup() const {
    return plan_pack_send_gbps / seed_pack_send_gbps;
  }
};

/// Grouped exchange over a real quad2d halo plan: rank 0 packs and sends
/// its grouped message to every neighbour; the neighbour side drains the
/// mailbox (and, on the pooled path, returns the buffer, emulating the
/// steady-state recycling loop).
GroupedResult bench_grouped_pack() {
  mesh::Quad2D q = mesh::make_quad2d(96, 96);
  const partition::Partition part = partition::partition_mesh(
      q.mesh, 4, partition::Kind::RIB, q.nodes);
  halo::HaloPlanOptions opts;
  opts.depth = 2;
  const halo::HaloPlan plan = build_halo_plan(q.mesh, part, opts);
  const halo::RankPlan& rp = plan.ranks[0];

  const auto& lay = plan.layout(0, q.nodes);
  const auto& cl = plan.layout(0, q.cells);
  std::vector<double> nodal(static_cast<std::size_t>(lay.total) * 5, 1.5);
  std::vector<double> cell(static_cast<std::size_t>(cl.total) * 2, -2.5);
  std::vector<halo::DatSyncSpec> specs = {
      {q.nodes, 5, 2, nodal.data()}, {q.cells, 2, 1, cell.data()}};
  const halo::GroupedPlan gp = halo::build_grouped_plan(rp, specs);

  std::int64_t bytes_per_round = 0;
  for (const auto& side : gp.sides)
    bytes_per_round += static_cast<std::int64_t>(side.send_bytes);
  if (bytes_per_round == 0) return {};

  sim::Transport transport(4);
  sim::Comm c0(transport, 0);
  GroupedResult r;

  // Seed style: fresh allocation per message, payload copied into the
  // mailbox from a span.
  const double seed_s = time_per_call([&] {
    std::vector<sim::Request> reqs;
    for (const auto& side : gp.sides) {
      if (side.send_bytes == 0) continue;
      op2ca::ByteBuf buf = halo::pack_grouped(rp, side.q, specs);
      reqs.push_back(
          c0.isend(side.q, 1, std::span<const std::byte>(buf)));
    }
    for (auto& req : reqs) c0.wait(req);
    for (const auto& side : gp.sides) {  // drain
      if (side.send_bytes == 0) continue;
      sim::Message msg;
      while (!transport.try_match(side.q, 0, 1, &msg)) {}
    }
  });
  r.seed_pack_send_gbps = static_cast<double>(bytes_per_round) / seed_s / 1e9;

  // Plan + pool + zero-copy: steady state allocates nothing; the drain
  // releases each payload back into the pool like the symmetric exchange
  // would.
  BufferPool pool;
  const double plan_s = time_per_call([&] {
    std::vector<sim::Request> reqs;
    for (const auto& side : gp.sides) {
      if (side.send_bytes == 0) continue;
      op2ca::ByteBuf buf = pool.take(side.send_bytes);
      halo::pack_grouped(side, specs, buf.data());
      reqs.push_back(c0.isend(side.q, 2, std::move(buf)));
    }
    for (auto& req : reqs) c0.wait(req);
    for (const auto& side : gp.sides) {
      if (side.send_bytes == 0) continue;
      sim::Message msg;
      while (!transport.try_match(side.q, 0, 2, &msg)) {}
      pool.release(std::move(msg.payload));
    }
  });
  r.plan_pack_send_gbps = static_cast<double>(bytes_per_round) / plan_s / 1e9;

  // Unpack: reference map-walk vs plan scatter, same payloads.
  std::vector<std::pair<const halo::GroupedPlan::Side*,
                        op2ca::ByteBuf>> payloads;
  std::int64_t recv_bytes = 0;
  for (const auto& side : gp.sides) {
    if (side.recv_bytes == 0) continue;
    // The inbound payload from q is what q exports to us; its contents
    // don't matter for throughput, only its size.
    payloads.emplace_back(&side, op2ca::ByteBuf(side.recv_bytes));
    recv_bytes += static_cast<std::int64_t>(side.recv_bytes);
  }
  const double ref_s = time_per_call([&] {
    for (const auto& [side, payload] : payloads)
      halo::unpack_grouped(rp, side->q, specs, payload);
  });
  const double plan_unpack_s = time_per_call([&] {
    for (const auto& [side, payload] : payloads)
      halo::unpack_grouped(*side, specs, payload);
  });
  r.ref_unpack_gbps = static_cast<double>(recv_bytes) / ref_s / 1e9;
  r.plan_unpack_gbps =
      static_cast<double>(recv_bytes) / plan_unpack_s / 1e9;
  return r;
}

// ---------------------------------------------------------------------
// Locality A/B harness: the indirect synthetic-update sweep over a
// scrambled hex3d mesh, run through the full World executor as
// scrambled (partition order) and renumbered by mesh::renumber (RCM /
// SFC), at pool widths 1 and 4, written to BENCH_locality.json. Pooled
// sweeps colour 256-element blocks of the local numbering, so the
// scrambled 4-thread row runs blocks over a numbering without locality.
// hex3d comes out of the generator in lexicographic order, so the
// baseline scrambles it first — the arbitrary mesh-file order the
// reordering literature starts from. The reuse proxies (gather_span /
// reuse_gap, see mesh/reorder.hpp) of the localized edge->node map are
// recorded per ordering so the JSON ties each speedup to a measured
// locality change.
// Each sweep_ns and speedup is the median of kGateReps repetitions that
// each time every ordering at one width, with min and max beside it.
// ---------------------------------------------------------------------

struct LocalityWidth {
  int threads = 1;
  Spread sweep_ns;  ///< per edge, full executor path.
  Spread speedup;   ///< vs partition order at the same width.
};

struct LocalityOrder {
  const char* name = "";
  double gather_span = 0;
  double reuse_gap = 0;
  std::vector<LocalityWidth> widths;
};

struct LocalityResult {
  gidx_t nodes = 0, edges = 0;
  std::vector<LocalityOrder> orders;
  double best_speedup = 0;  ///< best median speedup.
};

/// A World running one sweep configuration through the full executor.
std::unique_ptr<core::World> sweep_world(const mesh::MeshDef& m,
                                         int threads) {
  core::WorldConfig cfg;
  cfg.nranks = 1;
  cfg.halo_depth = 1;
  cfg.threads_per_rank = threads;
  return std::make_unique<core::World>(m, cfg);
}

/// Per-edge time of one timed indirect INC sweep in `w`, over the dats
/// `<prefix>_res` (INC) and `<prefix>_pres` (READ) through e2n.
double sweep_ns(core::World& w, const std::string& prefix) {
  const auto num_edges =
      static_cast<double>(w.mesh().set(*w.mesh().find_set("edges")).size);
  double ns = 0;
  w.run([&](core::Runtime& rt) {
    const core::Set edges = rt.set("edges");
    const core::Dat res = rt.dat(prefix + "_res");
    const core::Dat pres = rt.dat(prefix + "_pres");
    const core::Map map = rt.map("e2n");
    ns = 1e9 / num_edges * time_per_call([&] {
           rt.par_loop(prefix + "_update", edges,
                       apps::mgcfd::kernels::synth_update,
                       core::arg_dat(res, 0, map, core::Access::INC),
                       core::arg_dat(res, 1, map, core::Access::INC),
                       core::arg_dat(pres, 0, map, core::Access::READ),
                       core::arg_dat(pres, 1, map, core::Access::READ));
         });
  });
  return ns;
}

LocalityResult bench_locality() {
  // ~1.3M nodes / ~3.9M edges: the gathered node streams (res + pres,
  // 4 doubles per node = ~40 MB) dwarf L1/L2, so the scrambled baseline
  // is gather-bound and ordering quality is what the timer sees.
  mesh::Hex3D h = mesh::make_hex3d(108, 108, 108);
  const auto nodes = h.nodes;
  h.mesh.add_dat("loc_res", nodes, 2);
  {
    const gidx_t n = h.mesh.set(nodes).size;
    std::vector<double> pres(static_cast<std::size_t>(n) * 2);
    Rng rng(6);
    for (auto& v : pres) v = rng.next_range(0.5, 1.5);
    h.mesh.add_dat("loc_pres", nodes, 2, std::move(pres));
  }
  LocalityResult r;
  r.nodes = h.mesh.set(h.nodes).size;
  r.edges = h.mesh.set(h.edges).size;
  // meshes[0] is the scrambled baseline, the rest renumber it.
  std::vector<mesh::MeshDef> meshes;
  meshes.push_back(mesh::scramble_mesh(h.mesh, 99));
  h.mesh = {};
  r.orders.push_back({"none", 0, 0, {}});
  const std::pair<const char*, mesh::ReorderKind> cases[] = {
      {"rcm", mesh::ReorderKind::RCM},
      {"sfc", mesh::ReorderKind::SFC},
  };
  for (const auto& [name, kind] : cases) {
    meshes.push_back(mesh::renumber(meshes.front(), kind));
    r.orders.push_back({name, 0, 0, {}});
  }
  // One width at a time, every ordering's World alive: each repetition
  // times the baseline and every renumbered ordering, so drift on a
  // shared host hits both sides of each speedup alike.
  for (const int threads : {1, 4}) {
    std::vector<std::unique_ptr<core::World>> worlds;
    for (std::size_t o = 0; o < meshes.size(); ++o) {
      worlds.push_back(sweep_world(meshes[o], threads));
      if (threads > 1) continue;
      // The localized map's reuse proxies (width-independent).
      const mesh::MeshDef& m = worlds.back()->mesh();
      const halo::RankPlan& rp = worlds.back()->plan().ranks[0];
      const halo::LocalMap& lm =
          rp.maps[static_cast<std::size_t>(*m.find_map("e2n"))];
      const mesh::OrderingQuality oq = mesh::ordering_quality(
          lm.targets.data(), lm.arity,
          rp.sets[static_cast<std::size_t>(*m.find_set("edges"))].num_owned,
          rp.sets[static_cast<std::size_t>(*m.find_set("nodes"))].total);
      r.orders[o].gather_span = oq.gather_span;
      r.orders[o].reuse_gap = oq.reuse_gap;
    }
    std::vector<std::vector<double>> ns_reps(worlds.size()),
        speedup_reps(worlds.size());
    for (int rep = 0; rep < kGateReps; ++rep) {
      for (std::size_t o = 0; o < worlds.size(); ++o)
        ns_reps[o].push_back(sweep_ns(*worlds[o], "loc"));
      for (std::size_t o = 0; o < worlds.size(); ++o)
        speedup_reps[o].push_back(ns_reps[0].back() / ns_reps[o].back());
    }
    for (std::size_t o = 0; o < worlds.size(); ++o) {
      LocalityWidth w;
      w.threads = threads;
      w.sweep_ns = spread(ns_reps[o]);
      w.speedup = spread(speedup_reps[o]);
      if (o > 0) r.best_speedup = std::max(r.best_speedup, w.speedup.median);
      r.orders[o].widths.push_back(w);
    }
  }
  return r;
}

void write_locality_json(const char* path) {
  const LocalityResult r = bench_locality();
  std::ofstream os(path);
  os.precision(5);
  os << "{\n"
     << "  \"mesh\": {\"nodes\": " << r.nodes << ", \"edges\": " << r.edges
     << "},\n"
     << "  \"orders\": [\n";
  for (std::size_t i = 0; i < r.orders.size(); ++i) {
    const LocalityOrder& o = r.orders[i];
    os << "    {\"order\": \"" << o.name
       << "\", \"gather_span\": " << o.gather_span
       << ", \"reuse_gap\": " << o.reuse_gap << ", \"widths\": [";
    for (std::size_t j = 0; j < o.widths.size(); ++j) {
      const LocalityWidth& w = o.widths[j];
      os << (j == 0 ? "" : ", ") << "{\"threads\": " << w.threads << ", "
         << json_spread("sweep_ns", w.sweep_ns) << ", "
         << json_spread("speedup", w.speedup) << "}";
    }
    os << "]}" << (i + 1 < r.orders.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"best_speedup\": " << r.best_speedup << "\n"
     << "}\n";
  std::printf("locality: best reordered speedup %.2fx (median of %d) over "
              "partition order -> %s\n",
              r.best_speedup, kGateReps, path);
  for (const LocalityOrder& o : r.orders) {
    std::printf(
        "  %-4s gather_span %.1f reuse_gap %.1f | 1t %.2f ns/edge "
        "(%.2fx, min %.2fx, max %.2fx) | 4t %.2f ns/edge (%.2fx, min "
        "%.2fx, max %.2fx)\n",
        o.name, o.gather_span, o.reuse_gap, o.widths[0].sweep_ns.median,
        o.widths[0].speedup.median, o.widths[0].speedup.min,
        o.widths[0].speedup.max, o.widths[1].sweep_ns.median,
        o.widths[1].speedup.median, o.widths[1].speedup.min,
        o.widths[1].speedup.max);
  }
}

// ---------------------------------------------------------------------
// Colour-sweep scaling harness (BENCH_hotpath.json "colour_sweep"): the
// indirect-INC update over a scrambled hex3d mesh through the full World
// executor. Serial baseline = scrambled partition order, width 1. The
// width rows run the mesh renumbered by RCM at 2 and 4 threads, so
// `speedup` is what renumbering and threading buy together over the
// scrambled serial baseline — the number CI gates on (>= 2x at 4 threads
// on multi-core runners; on a single-core host it is carried by the
// renumbering). `same_order_speedup` divides the RCM mesh at one thread
// by each width row, so it isolates threading; it is recorded, not
// gated. Both are medians over kGateReps repetitions that each time both
// baselines and every width.
// ---------------------------------------------------------------------

struct ColourSweepWidth {
  int threads = 1;
  double sweep_ns = 0;        ///< RCM, per edge (median).
  Spread speedup;             ///< vs the scrambled serial baseline.
  Spread same_order_speedup;  ///< vs the RCM mesh at one thread.
};

struct ColourSweepResult {
  gidx_t nodes = 0, edges = 0;
  double serial_ns = 0;      ///< scrambled, one thread (median).
  double rcm_serial_ns = 0;  ///< RCM, one thread (median).
  std::vector<ColourSweepWidth> widths;
  double best_speedup = 0;  ///< best median speedup.
};

ColourSweepResult bench_colour_sweep() {
  // Same sizing rationale as the locality harness: the gathered node
  // streams dwarf the LLC, so the scrambled serial baseline is
  // gather-bound and both knobs under test (ordering, threading) are
  // what the timer sees.
  mesh::Hex3D h = mesh::make_hex3d(108, 108, 108);
  const auto nodes = h.nodes;
  h.mesh.add_dat("sweep_res", nodes, 2);
  {
    const gidx_t n = h.mesh.set(nodes).size;
    std::vector<double> pres(static_cast<std::size_t>(n) * 2);
    Rng rng(8);
    for (auto& v : pres) v = rng.next_range(0.5, 1.5);
    h.mesh.add_dat("sweep_pres", nodes, 2, std::move(pres));
  }
  const mesh::MeshDef scrambled = mesh::scramble_mesh(h.mesh, 99);

  ColourSweepResult r;
  r.nodes = h.mesh.set(h.nodes).size;
  r.edges = h.mesh.set(h.edges).size;
  const std::vector<int> widths = {2, 4};
  const auto serial = sweep_world(scrambled, 1);
  const mesh::MeshDef rcm = mesh::renumber(scrambled, mesh::ReorderKind::RCM);
  const auto rcm_serial = sweep_world(rcm, 1);
  std::vector<std::unique_ptr<core::World>> worlds;
  for (const int threads : widths)
    worlds.push_back(sweep_world(rcm, threads));
  // Each repetition times both baselines and then every width, so drift
  // on a shared host hits both sides of each speedup alike.
  std::vector<double> serial_reps, rcm_serial_reps;
  std::vector<std::vector<double>> ns_reps(widths.size()),
      speedup_reps(widths.size()), same_order_reps(widths.size());
  for (int rep = 0; rep < kGateReps; ++rep) {
    serial_reps.push_back(sweep_ns(*serial, "sweep"));
    rcm_serial_reps.push_back(sweep_ns(*rcm_serial, "sweep"));
    for (std::size_t i = 0; i < widths.size(); ++i) {
      ns_reps[i].push_back(sweep_ns(*worlds[i], "sweep"));
      speedup_reps[i].push_back(serial_reps.back() / ns_reps[i].back());
      same_order_reps[i].push_back(rcm_serial_reps.back() /
                                   ns_reps[i].back());
    }
  }
  r.serial_ns = spread(serial_reps).median;
  r.rcm_serial_ns = spread(rcm_serial_reps).median;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    ColourSweepWidth w;
    w.threads = widths[i];
    w.sweep_ns = spread(ns_reps[i]).median;
    w.speedup = spread(speedup_reps[i]);
    w.same_order_speedup = spread(same_order_reps[i]);
    r.best_speedup = std::max(r.best_speedup, w.speedup.median);
    r.widths.push_back(w);
  }
  return r;
}

void write_hotpath_json(const char* path) {
  const DispatchResult direct = bench_direct_dispatch();
  const DispatchResult indirect = bench_indirect_dispatch();
  const GroupedResult grouped = bench_grouped_pack();
  const ColourSweepResult cs = bench_colour_sweep();

  std::ofstream os(path);
  os.precision(5);
  os << "{\n"
     << "  \"dispatch\": {\n"
     << "    \"direct\": {\"per_element_ns\": " << direct.per_element_ns
     << ", \"batched_ns\": " << direct.batched_ns
     << ", \"raw_ns\": " << direct.raw_ns
     << ", \"speedup\": " << direct.speedup() << ", "
     << json_spread("batched_over_raw", direct.batched_over_raw) << "},\n"
     << "    \"indirect\": {\"per_element_ns\": " << indirect.per_element_ns
     << ", \"batched_ns\": " << indirect.batched_ns
     << ", \"raw_ns\": " << indirect.raw_ns
     << ", \"speedup\": " << indirect.speedup() << ", "
     << json_spread("batched_over_raw", indirect.batched_over_raw) << "}\n"
     << "  },\n"
     << "  \"grouped\": {\n"
     << "    \"pack_send\": {\"seed_style_gbps\": "
     << grouped.seed_pack_send_gbps
     << ", \"plan_pooled_gbps\": " << grouped.plan_pack_send_gbps
     << ", \"speedup\": " << grouped.pack_send_speedup() << "},\n"
     << "    \"unpack\": {\"reference_gbps\": " << grouped.ref_unpack_gbps
     << ", \"plan_gbps\": " << grouped.plan_unpack_gbps
     << ", \"speedup\": "
     << grouped.plan_unpack_gbps / grouped.ref_unpack_gbps << "}\n"
     << "  },\n"
     << "  \"colour_sweep\": {\n"
     << "    \"mesh\": {\"nodes\": " << cs.nodes
     << ", \"edges\": " << cs.edges << "},\n"
     << "    \"serial_ns\": " << cs.serial_ns
     << ", \"rcm_serial_ns\": " << cs.rcm_serial_ns
     << ",\n    \"widths\": [";
  for (std::size_t i = 0; i < cs.widths.size(); ++i) {
    const auto& w = cs.widths[i];
    os << (i == 0 ? "" : ", ") << "{\"threads\": " << w.threads
       << ", \"sweep_ns\": " << w.sweep_ns << ", "
       << json_spread("speedup", w.speedup) << ", "
       << json_spread("same_order_speedup", w.same_order_speedup) << "}";
  }
  os << "],\n"
     << "    \"best_speedup\": " << cs.best_speedup << "\n"
     << "  }\n"
     << "}\n";
  std::printf(
      "hotpath: direct dispatch %.2fx, indirect dispatch %.2fx, "
      "pack+send %.2fx, unpack %.2fx -> %s\n",
      direct.speedup(), indirect.speedup(), grouped.pack_send_speedup(),
      grouped.plan_unpack_gbps / grouped.ref_unpack_gbps, path);
  std::printf("  indirect dispatch tax: median %.2fx (min %.2fx, max %.2fx "
              "over %d reps)\n",
              indirect.batched_over_raw.median, indirect.batched_over_raw.min,
              indirect.batched_over_raw.max, kGateReps);
  for (const ColourSweepWidth& w : cs.widths)
    std::printf(
        "  RCM colour sweep @%dt: %.2f ns/edge, median %.2fx (min %.2fx, "
        "max %.2fx) vs scrambled serial (%.2f ns), same order %.2fx (min "
        "%.2fx, max %.2fx) vs RCM serial (%.2f ns)\n",
        w.threads, w.sweep_ns, w.speedup.median, w.speedup.min,
        w.speedup.max, cs.serial_ns, w.same_order_speedup.median,
        w.same_order_speedup.min, w.same_order_speedup.max,
        cs.rcm_serial_ns);
}

// ---------------------------------------------------------------------
// Temporal tiling A/B harness (BENCH_tiling.json): a Jacobi-style chain
// of two mutually-dependent indirect edge loops (fwd writes b from a,
// bwd writes a from b — every timestep re-dirties what the next one
// reads, so untiled execution pays a full exchange epoch per
// invocation) over a scrambled hex3d mesh, run back-to-back for a fixed
// number of timesteps at tile = 1, 2, 4, 8. A real per-post wire
// latency is injected through sim::Transport::set_post_delay so
// exchange epochs cost genuine wall time (the sim fabric's memcpy wire
// is otherwise nearly free — the regime where tiling is pointless).
// The gated numbers: tile=4 must cut exchange-epoch count >= 3x and
// wall time >= 1.3x vs tile=1 (the median over kGateReps repetitions
// that each time every tile size); the sweep's redundant_elems column is
// the measured message-reduction vs redundant-compute crossover ledger
// for EXPERIMENTS.md.
// ---------------------------------------------------------------------

/// Antisymmetric edge relaxation: out gains at both endpoints from the
/// difference of in at the opposite endpoints, scaled by the edge weight.
struct TileRelax {
  template <typename O1, typename O2, typename I1, typename I2,
            typename W>
  void operator()(O1&& o1, O2&& o2, I1&& i1, I2&& i2, W&& w) const {
    const double f = 1e-3 * (1.0 + 0.1 * w[0]);
    o1[0] += f * (i2[0] - i1[0]);
    o2[0] += f * (i1[0] - i2[0]);
  }
};
inline constexpr TileRelax tile_relax{};

mesh::MeshDef build_tiling_mesh() {
  mesh::Hex3D h = mesh::make_hex3d(16, 16, 16);
  const gidx_t n = h.mesh.set(h.nodes).size;
  const gidx_t e = h.mesh.set(h.edges).size;
  Rng rng(17);
  for (const char* name : {"tile_a", "tile_b"}) {
    std::vector<double> init(static_cast<std::size_t>(n));
    for (auto& v : init) v = rng.next_range(0.5, 1.5);
    h.mesh.add_dat(name, h.nodes, 1, std::move(init));
  }
  std::vector<double> wt(static_cast<std::size_t>(e));
  for (auto& v : wt) v = rng.next_range(-0.5, 0.5);
  h.mesh.add_dat("tile_ewt", h.edges, 1, std::move(wt));
  return mesh::scramble_mesh(h.mesh, 99);
}

/// One timestep: the fwd/bwd relaxation pair bracketed as a chain.
void run_tiling_chain(core::Runtime& rt) {
  const core::Set edges = rt.set("edges");
  const core::Map map = rt.map("e2n");
  rt.chain_begin("tile_chain");
  rt.par_loop("tile_fwd", edges, tile_relax,
              core::arg_dat(rt.dat("tile_b"), 0, map, core::Access::INC),
              core::arg_dat(rt.dat("tile_b"), 1, map, core::Access::INC),
              core::arg_dat(rt.dat("tile_a"), 0, map, core::Access::READ),
              core::arg_dat(rt.dat("tile_a"), 1, map, core::Access::READ),
              core::arg_dat(rt.dat("tile_ewt"), core::Access::READ));
  rt.par_loop("tile_bwd", edges, tile_relax,
              core::arg_dat(rt.dat("tile_a"), 0, map, core::Access::INC),
              core::arg_dat(rt.dat("tile_a"), 1, map, core::Access::INC),
              core::arg_dat(rt.dat("tile_b"), 0, map, core::Access::READ),
              core::arg_dat(rt.dat("tile_b"), 1, map, core::Access::READ),
              core::arg_dat(rt.dat("tile_ewt"), core::Access::READ));
  rt.chain_end();
}

struct TilingCase {
  int tile = 1;
  double wall_s = 0;          ///< timed timestep loop, rank 0 (median).
  std::int64_t epochs = 0;    ///< fused chain executions (metric calls).
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
  std::int64_t msgs_saved = 0;
  std::int64_t redundant_elems = 0;
};

/// A World running the chain at `tile`, warmed up: one full tile builds
/// the fused plan, exec lists and exchange caches, so timed runs measure
/// steady state.
std::unique_ptr<core::World> tiling_world(const mesh::MeshDef& m, int tile) {
  core::WorldConfig cfg;
  cfg.nranks = 4;
  cfg.halo_depth = 2;
  cfg.chains.enable("tile_chain", 0, 0, tile);
  auto w = std::make_unique<core::World>(m, cfg);
  // Inject a 500us per-post wire latency: exchange epochs then dominate
  // wall the way a real network would, and the A/B isolates what fusing
  // k epochs into one actually buys.
  if (auto* t = dynamic_cast<sim::Transport*>(&w->transport()))
    for (rank_t r = 0; r < cfg.nranks; ++r) t->set_post_delay(r, 500e-6);
  w->run([&](core::Runtime& rt) {
    for (int i = 0; i < tile; ++i) run_tiling_chain(rt);
  });
  return w;
}

/// One timed run of `steps` timesteps; fills every field but wall_s.
double time_tiling(core::World& w, int steps, TilingCase* out) {
  w.clear_metrics();
  double wall_s = 0;
  w.run([&](core::Runtime& rt) {
    WallTimer timer;
    for (int i = 0; i < steps; ++i) run_tiling_chain(rt);
    rt.flush();  // drain a trailing partial tile inside the clock
    if (rt.rank() == 0) wall_s = timer.elapsed();
  });
  const auto cm = w.chain_metrics();
  const core::LoopMetrics& lm = cm.at("tile_chain");
  out->epochs = lm.calls;
  out->msgs = lm.msgs;
  out->bytes = lm.bytes;
  out->msgs_saved = lm.msgs_saved;
  out->redundant_elems = lm.redundant_elems;
  return wall_s;
}

void write_tiling_json(const char* path) {
  const mesh::MeshDef m = build_tiling_mesh();
  constexpr int kSteps = 32;
  const std::vector<int> tiles = {1, 2, 4, 8};
  std::vector<TilingCase> cases(tiles.size());
  std::vector<std::unique_ptr<core::World>> worlds;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    cases[i].tile = tiles[i];
    worlds.push_back(tiling_world(m, tiles[i]));
  }
  // Each repetition times every tile size in turn; tiles[0] is tile=1
  // and tiles[2] tile=4, the gated pair.
  std::vector<std::vector<double>> wall_reps(tiles.size());
  std::vector<double> speedup_reps;
  for (int rep = 0; rep < kGateReps; ++rep) {
    for (std::size_t i = 0; i < tiles.size(); ++i)
      wall_reps[i].push_back(time_tiling(*worlds[i], kSteps, &cases[i]));
    speedup_reps.push_back(wall_reps[0].back() / wall_reps[2].back());
  }
  for (std::size_t i = 0; i < tiles.size(); ++i)
    cases[i].wall_s = spread(wall_reps[i]).median;
  const TilingCase& t1 = cases[0];
  const TilingCase& t4 = cases[2];
  const double epoch_reduction =
      static_cast<double>(t1.epochs) / static_cast<double>(t4.epochs);
  const Spread wall_speedup = spread(speedup_reps);

  std::ofstream os(path);
  os.precision(5);
  os << "{\n  \"mesh\": \"hex3d 16^3 scrambled, 4 ranks, " << kSteps
     << " timesteps, 500us/post injected wire latency\",\n"
     << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const TilingCase& c = cases[i];
    os << "    {\"tile\": " << c.tile << ", \"wall_s\": " << c.wall_s
       << ", \"epochs\": " << c.epochs << ", \"msgs\": " << c.msgs
       << ", \"bytes\": " << c.bytes
       << ", \"msgs_saved\": " << c.msgs_saved
       << ", \"redundant_elems\": " << c.redundant_elems << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"epoch_reduction\": " << epoch_reduction << ",\n"
     << "  " << json_spread("wall_speedup", wall_speedup) << "\n}\n";
  std::printf(
      "tiling: tile=4 cuts exchange epochs %.2fx (%lld -> %lld) and wall "
      "median %.2fx (min %.2fx, max %.2fx) vs tile=1 on the scrambled "
      "hex3d chain -> %s\n",
      epoch_reduction, static_cast<long long>(t1.epochs),
      static_cast<long long>(t4.epochs), wall_speedup.median,
      wall_speedup.min, wall_speedup.max, path);
}

}  // namespace

int main(int argc, char** argv) try {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_hotpath_json("BENCH_hotpath.json");
  write_locality_json("BENCH_locality.json");
  write_tiling_json("BENCH_tiling.json");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_micro_kernels: " << e.what() << '\n';
  return 1;
}
