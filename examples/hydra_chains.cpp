// hydra_chains — the Hydra analogue with the six loop-chains of the
// paper's Tables 3-4, driven from a chain configuration file exactly as
// Section 3.4 describes: the file selects which chains run with the CA
// back-end; everything else executes as standard OP2 loops.
//
//   ./hydra_chains [--nodes=30000] [--ranks=8] [--iters=5]
//                  [--config=chains.cfg]
//
// Without --config, a built-in configuration enabling period, vflux,
// iflux and jacob (the profitable chains of Fig 12/13) is used. Exits 1
// when any dat holds a non-finite value after the run.
#include <cmath>
#include <exception>
#include <iostream>
#include <sstream>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/util/options.hpp"
#include "op2ca/util/timer.hpp"

using namespace op2ca;

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"nodes", "ranks", "iters", "config"});
  const gidx_t nodes = opt.get_int("nodes", 30000);
  const int ranks = static_cast<int>(opt.get_int("ranks", 8));
  const int iters = static_cast<int>(opt.get_int("iters", 5));
  const std::string config_path = opt.get_string("config", "");

  core::ChainConfig chains;
  if (!config_path.empty()) {
    chains = core::ChainConfig::load(config_path);
    std::cout << "chain config: " << config_path << '\n';
  } else {
    // The paper's profitable selection (Section 4.2): CA for the chains
    // that win, plain OP2 for weight and gradl.
    std::istringstream builtin(R"(
chain weight  loops=5 enabled=0
chain period  loops=6 depth=2
chain gradl   loops=2 enabled=0
chain vflux   loops=2 depth=1
chain iflux   loops=2 depth=1
chain jacob   loops=3 depth=1
)");
    chains = core::ChainConfig::parse(builtin);
    std::cout << "chain config: built-in (period/vflux/iflux/jacob CA)\n";
  }

  apps::hydra::Problem prob = apps::hydra::build_problem(nodes);
  core::WorldConfig cfg;
  cfg.nranks = ranks;
  cfg.partitioner = partition::Kind::RIB;  // Hydra's default
  cfg.halo_depth = 2;
  cfg.chains = chains;
  core::World w(std::move(prob.an.mesh), cfg);

  WallTimer timer;
  w.run([&](core::Runtime& rt) {
    const apps::hydra::Handles h = apps::hydra::resolve_handles(rt, prob);
    apps::hydra::run_setup(rt, h);
    for (int i = 0; i < iters; ++i) apps::hydra::run_iteration(rt, h);
  });

  std::cout << "Hydra analogue: ~" << nodes << " nodes, " << ranks
            << " ranks, " << iters << " main iterations ("
            << timer.elapsed() << " s wall)\n\n";
  std::cout << "per-chain metrics (CA chains send one grouped message "
               "per neighbour per execution):\n";
  for (const auto& [name, m] : w.chain_metrics()) {
    std::cout << "  " << name << (chains.enabled(name) ? " [CA] " : " [OP2]")
              << " calls=" << m.calls << " msgs=" << m.msgs
              << " bytes=" << m.bytes << " core=" << m.core_iters
              << " halo=" << m.halo_iters << '\n';
  }
  for (mesh::dat_id d = 0; d < w.mesh().num_dats(); ++d)
    for (const double v : w.fetch_dat(d))
      if (!std::isfinite(v)) {
        std::cout << "dat '" << w.mesh().dat(d).name << "' not finite\n";
        return 1;
      }
  std::cout << "every dat finite after " << iters << " iterations\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "hydra_chains: " << e.what() << '\n';
  return 1;
}
