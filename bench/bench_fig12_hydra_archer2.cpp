// Figure 12 — Hydra loop-chain runtimes on ARCHER2 (8M and 24M meshes):
// cumulative time of each chain over 20 main-loop iterations, OP2 vs
// CA, on 4..128 nodes. Hydra's default recursive-inertial-bisection
// partitioner is used, as in the paper.
#include "bench_hydra_common.hpp"

using namespace op2ca;

int main(int argc, char** argv) try {
  const Options opt(argc, argv, bench::fig_option_names());
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);
  const model::Machine mach = cfg.apply_to(model::archer2());
  constexpr int kIterations = 20;  // paper: 20 main-loop iterations

  for (const std::string mesh : {"8M", "24M"}) {
    bench::HydraBench b(cfg, mesh);
    Table t("Fig 12 — Hydra chain runtimes [ms] over 20 iterations, " +
            mesh + " mesh (scale 1/" + std::to_string(cfg.scale) +
            "), ARCHER2");
    t.set_header(
        {"chain", "#Nodes", "ranks", "OP2 [ms]", "CA [ms]", "Gain%"});
    t.set_precision(4);
    for (int nodes : {4, 16, 64, 128}) {
      for (const std::string& chain : apps::hydra::chain_names()) {
        const bench::ChainPrediction p = b.predict(mach, nodes, chain);
        t.add_row({chain, static_cast<std::int64_t>(nodes),
                   static_cast<std::int64_t>(b.ranks_for(mach, nodes)),
                   p.t_op2 * kIterations * 1e3,
                   p.t_ca * kIterations * 1e3, p.gain_pct});
      }
    }
    bench::emit(cfg, t);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_fig12_hydra_archer2: " << e.what() << '\n';
  return 1;
}
