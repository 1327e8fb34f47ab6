// lazy — automatic communication avoidance without annotations.
//
// The paper's future work proposes automating chain selection through
// lazy evaluation. This example runs the same loop sequence three ways:
//   1. eager per-loop OP2 execution,
//   2. explicit chain_begin/chain_end bracketing,
//   3. WorldConfig::lazy — no annotations at all: loops queue and flush
//      at synchronisation points as automatically-formed chains,
// and shows all three produce identical results while (2) and (3) send
// the same reduced message counts.
//
//   ./lazy [--nodes=15000] [--ranks=6] [--steps=4] [--pairs=6]
#include <cmath>
#include <exception>
#include <iostream>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/util/options.hpp"

using namespace op2ca;
using core::Access;
using core::arg_dat;

namespace {

enum class Mode { Eager, Explicit, Lazy };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Eager: return "eager OP2";
    case Mode::Explicit: return "explicit chain";
    case Mode::Lazy: return "lazy (automatic)";
  }
  return "?";
}

struct Outcome {
  std::vector<double> sflux;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
};

Outcome run(Mode mode, gidx_t nodes, int ranks, int steps, int pairs) {
  namespace k = apps::mgcfd::kernels;
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(nodes, 1);
  const mesh::dat_id sflux = prob.sflux;

  core::WorldConfig cfg;
  cfg.nranks = ranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  cfg.lazy = mode == Mode::Lazy;
  if (mode == Mode::Explicit) cfg.chains.enable("synthetic");
  core::World w(std::move(prob.mg.mesh), cfg);

  w.run([&](core::Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < steps; ++t) {
      if (mode == Mode::Explicit) {
        apps::mgcfd::run_synthetic_chain(rt, h, pairs);
        continue;
      }
      // Plain loop sequence, no chain annotations.
      rt.par_loop("perturb", h.nodes0, k::synth_perturb,
                  arg_dat(h.spres, Access::RW));
      for (int c = 0; c < pairs; ++c) {
        rt.par_loop("update", h.edges0, k::synth_update,
                    arg_dat(h.sres, 0, h.e2n0, Access::INC),
                    arg_dat(h.sres, 1, h.e2n0, Access::INC),
                    arg_dat(h.spres, 0, h.e2n0, Access::READ),
                    arg_dat(h.spres, 1, h.e2n0, Access::READ));
        rt.par_loop("edge_flux", h.edges0, k::synth_edge_flux,
                    arg_dat(h.sflux, 0, h.e2n0, Access::INC),
                    arg_dat(h.sflux, 1, h.e2n0, Access::INC),
                    arg_dat(h.sres, 0, h.e2n0, Access::READ),
                    arg_dat(h.sres, 1, h.e2n0, Access::READ),
                    arg_dat(h.sewt, Access::READ));
      }
      rt.barrier();  // lazy mode flushes here
    }
  });

  Outcome out;
  out.sflux = w.fetch_dat(sflux);
  for (const auto& [name, m] : w.loop_metrics()) {
    out.msgs += m.msgs;
    out.bytes += m.bytes;
  }
  for (const auto& [name, m] : w.chain_metrics()) {
    out.msgs += m.msgs;
    out.bytes += m.bytes;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"nodes", "ranks", "steps", "pairs"});
  const gidx_t nodes = opt.get_int("nodes", 15000);
  const int ranks = static_cast<int>(opt.get_int("ranks", 6));
  const int steps = static_cast<int>(opt.get_int("steps", 4));
  const int pairs = static_cast<int>(opt.get_int("pairs", 6));

  std::cout << "lazy-evaluation demo: " << 2 * pairs
            << "-loop sequence x " << steps << " steps on " << ranks
            << " ranks\n\n";

  Outcome ref;
  for (const Mode mode : {Mode::Eager, Mode::Explicit, Mode::Lazy}) {
    const Outcome out = run(mode, nodes, ranks, steps, pairs);
    std::cout << "  " << mode_name(mode) << ": messages=" << out.msgs
              << " bytes=" << out.bytes << '\n';
    if (mode == Mode::Eager) {
      ref = out;
      continue;
    }
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.sflux.size(); ++i)
      worst = std::max(worst, std::abs(ref.sflux[i] - out.sflux[i]));
    std::cout << "    max deviation from eager result: " << worst << '\n';
    if (worst > 1e-9) {
      std::cout << "MISMATCH\n";
      return 1;
    }
  }
  std::cout << "\nall three modes agree; lazy mode discovered the chains "
               "without any annotation\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "lazy: " << e.what() << '\n';
  return 1;
}
