// Figure 13 — Hydra loop-chain runtimes on the Cirrus GPU cluster (8M
// and 24M meshes): cumulative chain time over 20 iterations, OP2 vs CA,
// on 1-16 nodes x 4 V100 ranks. GPU ranks are not scaled down (they are
// already few); only the mesh is.
#include "bench_hydra_common.hpp"

using namespace op2ca;

namespace {

model::Machine unscaled_cirrus(std::int64_t scale) {
  model::Machine m = model::cirrus_gpu();
  m.ranks_per_node = static_cast<int>(m.ranks_per_node * scale);
  return m;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt(argc, argv, bench::fig_option_names());
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);
  const model::Machine mach = cfg.apply_to(unscaled_cirrus(cfg.scale));
  constexpr int kIterations = 20;

  for (const std::string mesh : {"8M", "24M"}) {
    bench::HydraBench b(cfg, mesh);
    Table t("Fig 13 — Hydra chain runtimes [ms] over 20 iterations, " +
            mesh + " mesh (scale 1/" + std::to_string(cfg.scale) +
            "), Cirrus GPU cluster" +
            (cfg.tile > 1 ? ", CA tiled x" + std::to_string(cfg.tile)
                          : ""));
    t.set_header({"chain", "#Nodes", "GPU ranks", "OP2 [ms]", "CA [ms]",
                  "Gain%"});
    t.set_precision(4);
    for (int nodes : {1, 2, 4, 8, 16}) {
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
  std::cerr << "bench_fig13_hydra_cirrus: " << e.what() << '\n';
  return 1;
}
