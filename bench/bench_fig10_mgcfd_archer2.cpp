// Figure 10 — MG-CFD CA performance with the 8M and 24M meshes on
// ARCHER2 (CPU cluster): per-timestep runtime of the synthetic
// loop-chain, OP2 vs CA, over node counts {1..64} and loop counts
// {2, 4, 8, 16, 32}. Times come from Eqs (2)/(3) with calibrated kernel
// costs over the measured partition/halo quantities.
#include "bench_mgcfd_common.hpp"

using namespace op2ca;

int main(int argc, char** argv) try {
  const Options opt(argc, argv, bench::fig_option_names());
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);
  const model::Machine mach = cfg.apply_to(model::archer2());

  for (const std::string mesh : {"8M", "24M"}) {
    bench::MgcfdBench b(cfg, mesh);
    Table t("Fig 10 — MG-CFD runtime per timestep [ms], " + mesh +
            " mesh (scale 1/" + std::to_string(cfg.scale) + "), ARCHER2");
    t.set_header({"#Nodes", "ranks", "#Loops", "OP2 [ms]", "CA [ms]",
                  "Gain%"});
    t.set_precision(4);
    for (int nodes : {1, 2, 4, 8, 16, 32, 64}) {
      for (int loops : {2, 4, 8, 16, 32}) {
        const bench::ChainPrediction p =
            b.predict(mach, nodes, loops / 2);
        t.add_row({static_cast<std::int64_t>(nodes),
                   static_cast<std::int64_t>(b.ranks_for(mach, nodes)),
                   static_cast<std::int64_t>(loops), p.t_op2 * 1e3,
                   p.t_ca * 1e3, p.gain_pct});
      }
    }
    bench::emit(cfg, t);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_fig10_mgcfd_archer2: " << e.what() << '\n';
  return 1;
}
