// Pins what the epoch executor did and computed, so a change to the
// executor can be checked against the numbers of the code it replaces.
//
// Each row runs a World twice to warm its caches, clears the metrics and
// runs once more. It then hashes every integer field of every
// loop_metrics() and chain_metrics() entry, and, separately, the bits of
// every dat's fetch_dat(). dispatch_regions, chunks, plan_builds and
// staging_allocs are left out: they count how the work was dispatched and
// cached, not what was executed or sent.
//
// Rows: the MG-CFD V-cycle plus the synthetic chain, run as per-loop OP2,
// CA, lazy and tile=2, and one Hydra RK step with the hydra-rk chain
// selection (period, vflux, iflux and jacob under CA; weight and gradl
// disabled, so they take the per-loop path); each at 3 and 4 ranks with
// 1 and 2 threads per rank.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/core/runtime.hpp"

namespace op2ca::core {
namespace {

struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

std::uint64_t hash_metrics(const World& w) {
  Fnv f;
  for (const auto& entries : {w.loop_metrics(), w.chain_metrics()}) {
    f.u64(entries.size());
    for (const auto& [name, m] : entries) {
      f.u64(name.size());
      f.bytes(name.data(), name.size());
      for (const std::int64_t v :
           {m.calls, m.core_iters, m.halo_iters, m.msgs, m.bytes,
            m.max_msg_bytes, m.max_rank_bytes,
            std::int64_t{m.max_neighbors}, std::int64_t{m.max_colours},
            std::int64_t{m.layout_code}, m.halo_elems, m.numa_bytes,
            m.node_bytes, m.net_bytes, m.tile, m.redundant_elems,
            m.msgs_saved})
        f.u64(static_cast<std::uint64_t>(v));
    }
  }
  return f.h;
}

std::uint64_t hash_dats(const World& w) {
  Fnv f;
  for (mesh::dat_id d = 0; d < w.mesh().num_dats(); ++d) {
    const std::vector<double> v = w.fetch_dat(d);
    f.u64(v.size());
    f.bytes(v.data(), v.size() * sizeof(double));
  }
  return f.h;
}

/// The synthetic chain without its leading perturbation loop: it directly
/// follows a run_synthetic_chain invocation, so a tile=2 world fuses the
/// two invocations into one epoch.
void synthetic_chain_body(Runtime& rt, const apps::mgcfd::Handles& h,
                          int nchains) {
  namespace k = apps::mgcfd::kernels;
  rt.chain_begin("synthetic");
  for (int c = 0; c < nchains; ++c) {
    rt.par_loop("synth_update", h.edges0, k::synth_update,
                arg_dat(h.sres, 0, h.e2n0, Access::INC),
                arg_dat(h.sres, 1, h.e2n0, Access::INC),
                arg_dat(h.spres, 0, h.e2n0, Access::READ),
                arg_dat(h.spres, 1, h.e2n0, Access::READ));
    rt.par_loop("synth_edge_flux", h.edges0, k::synth_edge_flux,
                arg_dat(h.sflux, 0, h.e2n0, Access::INC),
                arg_dat(h.sflux, 1, h.e2n0, Access::INC),
                arg_dat(h.sres, 0, h.e2n0, Access::READ),
                arg_dat(h.sres, 1, h.e2n0, Access::READ),
                arg_dat(h.sewt, Access::READ));
  }
  rt.chain_end();
}

enum class Mode { Op2, Ca, Lazy, Tile2, HydraRk };

struct Row {
  std::string name;
  std::uint64_t metrics, dats;
};

Row run_row(Mode mode, const char* label, int nranks, int threads) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.threads_per_rank = threads;
  cfg.halo_depth = 2;
  std::uint64_t metrics = 0, dats = 0;
  const auto metered = [&](World& w, const std::function<void(Runtime&)>& step,
                           const std::function<void(Runtime&)>& prelude) {
    w.run([&](Runtime& rt) {
      prelude(rt);
      step(rt);
    });
    w.run(step);
    w.clear_metrics();
    w.run(step);
    metrics = hash_metrics(w);
    dats = hash_dats(w);
  };

  if (mode == Mode::HydraRk) {
    apps::hydra::Problem prob = apps::hydra::build_problem(2500);
    const apps::hydra::Problem ids = prob;
    cfg.partitioner = partition::Kind::RIB;
    cfg.chains.enable("period", 6, 2);
    cfg.chains.enable("vflux", 2, 1);
    cfg.chains.enable("iflux", 2, 1);
    cfg.chains.enable("jacob", 3, 1);
    World w(std::move(prob.an.mesh), cfg);
    metered(
        w,
        [&](Runtime& rt) {
          apps::hydra::run_rk_iteration(rt,
                                        apps::hydra::resolve_handles(rt, ids));
        },
        [&](Runtime& rt) {
          apps::hydra::run_setup(rt, apps::hydra::resolve_handles(rt, ids));
        });
  } else {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 2);
    cfg.partitioner = partition::Kind::KWay;
    if (mode == Mode::Ca || mode == Mode::Tile2)
      cfg.chains.enable("synthetic", 6, 2);
    if (mode == Mode::Tile2) cfg.tile = 2;
    cfg.lazy = mode == Mode::Lazy;
    World w(std::move(prob.mg.mesh), cfg);
    metered(
        w,
        [&](Runtime& rt) {
          const auto h = apps::mgcfd::resolve_handles(rt, prob);
          apps::mgcfd::solver_iteration(rt, h);
          apps::mgcfd::run_synthetic_chain(rt, h, 3);
          synthetic_chain_body(rt, h, 3);
        },
        [](Runtime&) {});
  }
  return {std::string(label) + "/r" + std::to_string(nranks) + "/t" +
              std::to_string(threads),
          metrics, dats};
}

// Taken from the two-executor code (separate per-loop and chain
// executors) that the epoch executor replaced.
const Row kPinned[] = {
    {"mgcfd-op2/r3/t1", 0x8194f85cdd1be3b7ull, 0x5f81b80383bf2e17ull},
    {"mgcfd-op2/r3/t2", 0xf167c045057e4a5full, 0x1f9d9abf23668d69ull},
    {"mgcfd-op2/r4/t1", 0xa193584c6015decdull, 0xa67e4ce4be05e902ull},
    {"mgcfd-op2/r4/t2", 0x4b5697875e443c2dull, 0xbd49f7d712213081ull},
    {"mgcfd-ca/r3/t1", 0xc42549b0eac3c800ull, 0x28a285eca65405ebull},
    {"mgcfd-ca/r3/t2", 0xa5caf49e41b6070cull, 0x3a9f8e410cad85a1ull},
    {"mgcfd-ca/r4/t1", 0xeb92b494df2037adull, 0xf26105130d1b7af4ull},
    {"mgcfd-ca/r4/t2", 0xab73d0d54276bd9dull, 0x67285b5a988b3111ull},
    {"mgcfd-lazy/r3/t1", 0xcf2df758e22a2096ull, 0x5f81b80383bf2e17ull},
    {"mgcfd-lazy/r3/t2", 0xe818badb47ac4776ull, 0x1f9d9abf23668d69ull},
    {"mgcfd-lazy/r4/t1", 0x655c133f66558171ull, 0x8bb9659d4b9a3807ull},
    {"mgcfd-lazy/r4/t2", 0x039033c294b35bbdull, 0xe97d57e7b9b89ca4ull},
    {"mgcfd-tile2/r3/t1", 0xc156375d7b917d45ull, 0xb21dfe39bd88179full},
    {"mgcfd-tile2/r3/t2", 0xa11871a6993fd425ull, 0x25c80ee36a6b3d11ull},
    {"mgcfd-tile2/r4/t1", 0x4002b6e1962959acull, 0x7d3ce63aebebf452ull},
    {"mgcfd-tile2/r4/t2", 0x469c8764c4e2241dull, 0xf74dd06df06d5c06ull},
    {"hydra-rk/r3/t1", 0x3bcd432cacffa2e2ull, 0x765a7f9ab15401b4ull},
    {"hydra-rk/r3/t2", 0x3a912dcad10f5808ull, 0xe13bae5d0a782f69ull},
    {"hydra-rk/r4/t1", 0xe5cdb90f35328737ull, 0xafebabdd6928c93cull},
    {"hydra-rk/r4/t2", 0x5985270090f6ae10ull, 0x789dc2974ce98c34ull},
};

TEST(EpochPin, CountersAndResultsPinned) {
  const std::pair<Mode, const char*> modes[] = {
      {Mode::Op2, "mgcfd-op2"},   {Mode::Ca, "mgcfd-ca"},
      {Mode::Lazy, "mgcfd-lazy"}, {Mode::Tile2, "mgcfd-tile2"},
      {Mode::HydraRk, "hydra-rk"},
  };
  std::vector<Row> rows;
  for (const auto& [mode, label] : modes)
    for (const int nranks : {3, 4})
      for (const int threads : {1, 2})
        rows.push_back(run_row(mode, label, nranks, threads));

  // Builds that may contract multiply-adds into FMAs (-march=native on an
  // FMA host) round differently, so only the counters are pinned there.
#if defined(__FMA__)
  constexpr bool kPinDats = false;
#else
  constexpr bool kPinDats = true;
#endif
  bool same = rows.size() == std::size(kPinned);
  for (std::size_t i = 0; same && i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].name, kPinned[i].name);
    EXPECT_EQ(rows[i].metrics, kPinned[i].metrics) << rows[i].name;
    if (kPinDats) {
      EXPECT_EQ(rows[i].dats, kPinned[i].dats) << rows[i].name;
    }
    same = rows[i].name == kPinned[i].name &&
           rows[i].metrics == kPinned[i].metrics &&
           (!kPinDats || rows[i].dats == kPinned[i].dats);
  }
  if (!same) {
    ADD_FAILURE() << "executor output differs from kPinned; actual table:";
    for (const Row& r : rows)
      std::printf("    {\"%s\", 0x%016llxull, 0x%016llxull},\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.metrics),
                  static_cast<unsigned long long>(r.dats));
  }
}

}  // namespace
}  // namespace op2ca::core
