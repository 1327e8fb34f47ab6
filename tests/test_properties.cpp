// Property-based sweeps (parameterised gtest): across rank counts,
// partitioners, chain lengths and halo depths, CA execution must equal
// sequential execution; random loop sequences with random chain
// bracketing must keep dirty-bit bookkeeping coherent.
#include <gtest/gtest.h>

#include <sstream>

#include <tuple>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/util/rng.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

using testutil::expect_allclose;

// ---------------------------------------------------------------------
// Sweep 1: synthetic chain equivalence over the configuration space.
// ---------------------------------------------------------------------

using SynthParam = std::tuple<int, partition::Kind, int, int>;
//                           ranks, partitioner, nchains, depth

class SynthSweep : public ::testing::TestWithParam<SynthParam> {};

TEST_P(SynthSweep, CaEqualsSerial) {
  const auto [nranks, kind, nchains, depth] = GetParam();

  auto run = [&](int ranks, bool ca) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(900, 1);
    WorldConfig cfg;
    cfg.nranks = ranks;
    cfg.partitioner = kind;
    cfg.halo_depth = depth;
    cfg.validate = true;
    if (ca) cfg.chains.enable("synthetic");
    const mesh::dat_id sres = prob.sres, sflux = prob.sflux;
    World w(std::move(prob.mg.mesh), cfg);
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      apps::mgcfd::run_synthetic_chain(rt, h, nchains);
    });
    return std::make_pair(w.fetch_dat(sres), w.fetch_dat(sflux));
  };

  const auto [sres_ref, sflux_ref] = run(1, false);
  const auto [sres_ca, sflux_ca] = run(nranks, true);
  expect_allclose(sres_ref, sres_ca);
  expect_allclose(sflux_ref, sflux_ca);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SynthSweep,
    ::testing::Combine(
        ::testing::Values(2, 3, 7),
        ::testing::Values(partition::Kind::Block, partition::Kind::RIB,
                          partition::Kind::KWay),
        ::testing::Values(1, 3), ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<SynthParam>& info) {
      std::ostringstream name;
      name << "r" << std::get<0>(info.param)
           << partition::kind_name(std::get<1>(info.param)) << "c"
           << std::get<2>(info.param) << "d" << std::get<3>(info.param);
      return name.str();
    });

// ---------------------------------------------------------------------
// Sweep 2: halo-plan invariants over meshes, rank counts and depths.
// ---------------------------------------------------------------------

using HaloParam = std::tuple<int, int>;  // ranks, depth

class HaloSweep : public ::testing::TestWithParam<HaloParam> {};

TEST_P(HaloSweep, InvariantsHoldOnMultigridMesh) {
  const auto [nranks, depth] = GetParam();
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1500, 2);
  const mesh::MeshDef& m = prob.mg.mesh;
  const partition::Partition part = partition::partition_mesh(
      m, nranks, partition::Kind::KWay, prob.mg.levels[0].nodes);
  halo::HaloPlanOptions opts;
  opts.depth = depth;
  const halo::HaloPlan plan = halo::build_halo_plan(m, part, opts);

  for (rank_t r = 0; r < nranks; ++r) {
    const halo::RankPlan& rp = plan.ranks[static_cast<size_t>(r)];
    for (mesh::set_id s = 0; s < m.num_sets(); ++s) {
      const halo::SetLayout& lay = rp.sets[static_cast<size_t>(s)];
      // Monotone segment bounds.
      for (size_t k = 1; k < lay.exec_end.size(); ++k)
        ASSERT_GE(lay.exec_end[k], lay.exec_end[k - 1]);
      ASSERT_EQ(lay.nonexec_end.back(), lay.total);

      // Every executed element's map rows resolve locally.
      for (mesh::map_id mid = 0; mid < m.num_maps(); ++mid) {
        const mesh::MapDef& mp = m.map(mid);
        if (mp.from != s) continue;
        const halo::LocalMap& lm = rp.maps[static_cast<size_t>(mid)];
        for (lidx_t f = 0; f < lay.exec_end.back(); ++f)
          for (int k = 0; k < mp.arity; ++k)
            ASSERT_NE(lm.targets[static_cast<size_t>(f) *
                                     static_cast<size_t>(mp.arity) +
                                 static_cast<size_t>(k)],
                      kInvalidLocal);
      }

      // Import lists match export lists element-wise.
      const halo::NeighborLists& nl = rp.lists[static_cast<size_t>(s)];
      for (const auto& [q, layers] : nl.imp_exec) {
        const auto& exp =
            plan.ranks[static_cast<size_t>(q)].lists[static_cast<size_t>(s)]
                .exp_exec.at(r);
        for (size_t k = 0; k < layers.size(); ++k)
          ASSERT_EQ(layers[k].size(), exp[k].size());
      }
      for (const auto& [q, layers] : nl.imp_nonexec) {
        const auto& exp =
            plan.ranks[static_cast<size_t>(q)].lists[static_cast<size_t>(s)]
                .exp_nonexec.at(r);
        for (size_t k = 0; k < layers.size(); ++k)
          ASSERT_EQ(layers[k].size(), exp[k].size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HaloSweep,
                         ::testing::Combine(::testing::Values(2, 5, 9),
                                            ::testing::Values(1, 2, 3)),
                         [](const ::testing::TestParamInfo<HaloParam>& i) {
                           std::ostringstream name;
                           name << "r" << std::get<0>(i.param) << "d"
                                << std::get<1>(i.param);
                           return name.str();
                         });

// ---------------------------------------------------------------------
// Sweep 3: random loop sequences with random chain bracketing.
// ---------------------------------------------------------------------

/// Issues a pseudo-random program of loops over the synthetic dats,
/// optionally wrapping random contiguous groups into CA chains. The
/// program is a function of `seed` only, so serial and parallel runs
/// execute identical sequences.
void run_random_program(Runtime& rt, const apps::mgcfd::Handles& h,
                        std::uint64_t seed, bool use_chains) {
  namespace k = apps::mgcfd::kernels;
  Rng rng(seed);
  int chain_counter = 0;
  const int groups = 4;
  for (int grp = 0; grp < groups; ++grp) {
    const int len = static_cast<int>(rng.next_int(1, 4));
    // Consume the RNG unconditionally so the chained and unchained
    // variants issue identical loop sequences.
    const bool coin = rng.next_bool(0.7);
    const bool chain = use_chains && coin;
    if (chain)
      rt.chain_begin("rand" + std::to_string(chain_counter++));
    for (int i = 0; i < len; ++i) {
      // Groups that MAY be chained (coin == true) avoid the direct node
      // write: a chain cannot regenerate directly-written node values on
      // the halo (nodes have no exec layers), and the inspector rejects
      // such chains by design.
      switch (rng.next_int(0, coin ? 1 : 2)) {
        case 0:
          rt.par_loop("p_update", h.edges0, k::synth_update,
                      arg_dat(h.sres, 0, h.e2n0, Access::INC),
                      arg_dat(h.sres, 1, h.e2n0, Access::INC),
                      arg_dat(h.spres, 0, h.e2n0, Access::READ),
                      arg_dat(h.spres, 1, h.e2n0, Access::READ));
          break;
        case 1:
          rt.par_loop("p_flux", h.edges0, k::synth_edge_flux,
                      arg_dat(h.sflux, 0, h.e2n0, Access::INC),
                      arg_dat(h.sflux, 1, h.e2n0, Access::INC),
                      arg_dat(h.sres, 0, h.e2n0, Access::READ),
                      arg_dat(h.sres, 1, h.e2n0, Access::READ),
                      arg_dat(h.sewt, Access::READ));
          break;
        case 2:
          rt.par_loop("p_perturb", h.nodes0, k::synth_perturb,
                      arg_dat(h.spres, Access::RW));
          break;
      }
    }
    if (chain) rt.chain_end();
  }
}

class RandomProgram : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgram, ChainedEqualsSequential) {
  const std::uint64_t seed = GetParam();
  auto run = [&](int nranks, bool chains) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(800, 1);
    WorldConfig cfg;
    cfg.nranks = nranks;
    cfg.partitioner = partition::Kind::KWay;
    cfg.halo_depth = 4;  // generous: random chains can stack extensions
    cfg.validate = true;
    cfg.chains.set_default(chains);
    const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                       spres = prob.spres;
    World w(std::move(prob.mg.mesh), cfg);
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      run_random_program(rt, h, seed, chains);
    });
    return std::make_tuple(w.fetch_dat(sres), w.fetch_dat(sflux),
                           w.fetch_dat(spres));
  };
  const auto ref = run(1, false);
  const auto ca = run(5, true);
  expect_allclose(std::get<0>(ref), std::get<0>(ca));
  expect_allclose(std::get<1>(ref), std::get<1>(ca));
  expect_allclose(std::get<2>(ref), std::get<2>(ca));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace op2ca::core
