// Pins what the epoch executor did and computed, so a change to the
// executor can be checked against the numbers of the code it replaces.
//
// Each row runs a World twice to warm its caches, clears the metrics and
// runs once more. It then hashes every integer field of every
// loop_metrics() and chain_metrics() entry, in LoopMetrics::for_each_field
// order, and, separately, the bits of every dat's fetch_dat().
// dispatch_regions, chunks, plan_builds and staging_allocs are left out:
// they count how the work was dispatched and cached, not what was
// executed or sent.
//
// Rows: the MG-CFD V-cycle plus the synthetic chain, run as per-loop OP2,
// CA, lazy and tile=2; one Hydra RK step with the hydra-rk chain
// selection (period, vflux, iflux and jacob under CA; weight and gradl
// disabled, so they take the per-loop path); and a program that
// interleaves every kind of deferred work (mixed_step), run eager and
// lazy. Each at 3 and 4 ranks with 1 and 2 threads per rank.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
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
      LoopMetrics::for_each_field(
          [&](const char* field_name, auto field, LoopMetrics::Merge) {
            if constexpr (std::is_same_v<decltype(field),
                                         std::int64_t LoopMetrics::*>) {
              const std::string_view n = field_name;
              if (n != "dispatch_regions" && n != "plan_builds" &&
                  n != "staging_allocs" && n != "chunks")
                f.u64(static_cast<std::uint64_t>(m.*field));
            }
          });
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

/// The synthetic chain without its leading perturbation loop, bracketed
/// as `chain`: it directly follows a run_synthetic_chain invocation, so a
/// tile=2 world fuses the two invocations into one epoch.
void synthetic_chain_body(Runtime& rt, const apps::mgcfd::Handles& h,
                          const char* chain, int nchains) {
  namespace k = apps::mgcfd::kernels;
  rt.chain_begin(chain);
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

/// One step that interleaves every kind of deferred work: six invocations
/// of the tile=4 chain "tiled" (a full tile, then a partial one cut by the
/// loose loops after it), a loose update/flux pair, the disabled chain
/// "off", a barrier, the untiled "synthetic" chain with its loose
/// perturbation loop, and three more "tiled" invocations that the end of
/// the run drains as a partial tile.
void mixed_step(Runtime& rt, const apps::mgcfd::Handles& h) {
  namespace k = apps::mgcfd::kernels;
  rt.par_loop("synth_perturb", h.nodes0, k::synth_perturb,
              arg_dat(h.spres, Access::RW));
  for (int i = 0; i < 6; ++i) synthetic_chain_body(rt, h, "tiled", 1);
  rt.par_loop("loose_update", h.edges0, k::synth_update,
              arg_dat(h.sres, 0, h.e2n0, Access::INC),
              arg_dat(h.sres, 1, h.e2n0, Access::INC),
              arg_dat(h.spres, 0, h.e2n0, Access::READ),
              arg_dat(h.spres, 1, h.e2n0, Access::READ));
  rt.par_loop("loose_flux", h.edges0, k::synth_edge_flux,
              arg_dat(h.sflux, 0, h.e2n0, Access::INC),
              arg_dat(h.sflux, 1, h.e2n0, Access::INC),
              arg_dat(h.sres, 0, h.e2n0, Access::READ),
              arg_dat(h.sres, 1, h.e2n0, Access::READ),
              arg_dat(h.sewt, Access::READ));
  synthetic_chain_body(rt, h, "off", 1);
  rt.barrier();
  apps::mgcfd::run_synthetic_chain(rt, h, 2);
  for (int i = 0; i < 3; ++i) synthetic_chain_body(rt, h, "tiled", 1);
}

enum class Mode { Op2, Ca, Lazy, Tile2, HydraRk, Mixed, MixedLazy };

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
  } else if (mode == Mode::Mixed || mode == Mode::MixedLazy) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 2);
    cfg.partitioner = partition::Kind::KWay;
    cfg.chains.enable("tiled", 2, 0, 4);
    cfg.chains.disable("off");
    cfg.chains.enable("synthetic", 4, 2);
    cfg.lazy = mode == Mode::MixedLazy;
    World w(std::move(prob.mg.mesh), cfg);
    metered(
        w,
        [&](Runtime& rt) {
          mixed_step(rt, apps::mgcfd::resolve_handles(rt, prob));
        },
        [](Runtime&) {});
  } else {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 2);
    cfg.partitioner = partition::Kind::KWay;
    if (mode == Mode::Ca || mode == Mode::Tile2)
      cfg.chains.enable("synthetic", 6, 2, mode == Mode::Tile2 ? 2 : 1);
    cfg.lazy = mode == Mode::Lazy;
    World w(std::move(prob.mg.mesh), cfg);
    metered(
        w,
        [&](Runtime& rt) {
          const auto h = apps::mgcfd::resolve_handles(rt, prob);
          apps::mgcfd::solver_iteration(rt, h);
          apps::mgcfd::run_synthetic_chain(rt, h, 3);
          synthetic_chain_body(rt, h, "synthetic", 3);
        },
        [](Runtime&) {});
  }
  return {std::string(label) + "/r" + std::to_string(nranks) + "/t" +
              std::to_string(threads),
          metrics, dats};
}

// The /t1 rows' dats column was taken from the two-executor code
// (separate per-loop and chain executors) that the epoch executor
// replaced; their metrics column at 84959f3, the last commit with
// per-tier byte counters, hashed without them. The /t2 rows were taken
// at 5370d09 with WorldConfig::colour_block = 256, the blocked sweep that
// became the one pooled form. The mixed rows were taken at 0cc7c53, where
// chain capture, lazy loops and temporal tiles still kept three queues.
const Row kPinned[] = {
    {"mgcfd-op2/r3/t1", 0x3eb2f88fc0410b51ull, 0x5f81b80383bf2e17ull},
    {"mgcfd-op2/r3/t2", 0xbc0d1b87ddf203b5ull, 0x993d076bce6c45f8ull},
    {"mgcfd-op2/r4/t1", 0x6fae1d2d9bb0eb7bull, 0xa67e4ce4be05e902ull},
    {"mgcfd-op2/r4/t2", 0xd98aad03a7c26e95ull, 0xa67e4ce4be05e902ull},
    {"mgcfd-ca/r3/t1", 0xdf76d428b9916c57ull, 0x28a285eca65405ebull},
    {"mgcfd-ca/r3/t2", 0xc0d0f1670133d783ull, 0xe20eb82d8cbbb5beull},
    {"mgcfd-ca/r4/t1", 0x2449e469f5a6ebb1ull, 0xf26105130d1b7af4ull},
    {"mgcfd-ca/r4/t2", 0x28cd37d4c1ed8aa3ull, 0x5f9bf30a3efa1506ull},
    {"mgcfd-lazy/r3/t1", 0x8775045525d33317ull, 0x5f81b80383bf2e17ull},
    {"mgcfd-lazy/r3/t2", 0xca38abfc1a37c210ull, 0x993d076bce6c45f8ull},
    {"mgcfd-lazy/r4/t1", 0xdf6a62eefde22f82ull, 0x8bb9659d4b9a3807ull},
    {"mgcfd-lazy/r4/t2", 0xa966dd4fbbc510f8ull, 0x8bb9659d4b9a3807ull},
    {"mgcfd-tile2/r3/t1", 0x38b7c1ecb7f69314ull, 0xb21dfe39bd88179full},
    {"mgcfd-tile2/r3/t2", 0x36af329a5742cf4eull, 0x786a7a7097e26b83ull},
    {"mgcfd-tile2/r4/t1", 0x0556d34cadaf624aull, 0x7d3ce63aebebf452ull},
    {"mgcfd-tile2/r4/t2", 0xa803d6c2b71dc542ull, 0xa8f384a8f09699dcull},
    {"hydra-rk/r3/t1", 0x36e1ac80dffb2700ull, 0x765a7f9ab15401b4ull},
    {"hydra-rk/r3/t2", 0xffb4d9b3d9f845c3ull, 0xe68595aa6e8f2277ull},
    {"hydra-rk/r4/t1", 0x57884dab29296c69ull, 0xafebabdd6928c93cull},
    {"hydra-rk/r4/t2", 0x57d875e68a3362bdull, 0xb7b5431dfc4accb6ull},
    {"mixed-eager/r3/t1", 0xf0c42aa00bca119bull, 0x6c7773a338847482ull},
    {"mixed-eager/r3/t2", 0xd1ce931f168bf238ull, 0x3ddfc1e639cf39c4ull},
    {"mixed-eager/r4/t1", 0x9a852f65c138af32ull, 0x88275c17fcce53f3ull},
    {"mixed-eager/r4/t2", 0xee19b29b048d138cull, 0x97a6bf227c9217c0ull},
    {"mixed-lazy/r3/t1", 0x69f71a01f9b66c2bull, 0x0b388250d7a79884ull},
    {"mixed-lazy/r3/t2", 0xc47ba394606ac51dull, 0x172f87d0462a47e6ull},
    {"mixed-lazy/r4/t1", 0x48139b190b321cbfull, 0x8107400fca9a6dabull},
    {"mixed-lazy/r4/t2", 0x091bd5d5084846a7ull, 0x3cbd71e89ba2a5b8ull},
};

TEST(EpochPin, CountersAndResultsPinned) {
  const std::pair<Mode, const char*> modes[] = {
      {Mode::Op2, "mgcfd-op2"},   {Mode::Ca, "mgcfd-ca"},
      {Mode::Lazy, "mgcfd-lazy"}, {Mode::Tile2, "mgcfd-tile2"},
      {Mode::HydraRk, "hydra-rk"}, {Mode::Mixed, "mixed-eager"},
      {Mode::MixedLazy, "mixed-lazy"},
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
