// Table 5 — Hydra loop-chains on ARCHER2, 8M mesh: model components,
// communication reduction %, computation increase % and the predicted
// chain gain %, for node counts {4, 16, 64}.
#include "bench_hydra_common.hpp"

using namespace op2ca;

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"scale", "csv", "calibrate", "tile"});
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);
  const model::Machine mach = model::archer2();

  bench::HydraBench b(cfg, "8M");
  Table t("Table 5 — Hydra loop-chains, 8M mesh (scale 1/" +
          std::to_string(cfg.scale) + "), ARCHER2 model components");
  t.set_header({"LC(#Loops)", "#Nodes", "OP2 sum(2dpm1)", "OP2 sum(Sc)",
                "OP2 sum(S1)", "CA pm_r", "CA sum(Sc)", "CA sum(Sh)",
                "LC Gain%", "CommReduc%", "CompInc%"});
  t.set_precision(2);

  for (int nodes : {4, 16, 64}) {
    for (const std::string& chain : apps::hydra::chain_names()) {
      const std::size_t nloops = b.specs().at(chain).loops.size();
      const bench::ChainPrediction p = b.predict(mach, nodes, chain);
      const model::ChainComponents& c = p.components;
      t.add_row({chain + "(" + std::to_string(nloops) + ")",
                 static_cast<std::int64_t>(nodes), c.op2_comm_bytes,
                 c.op2_core, c.op2_halo, c.ca_comm_bytes, c.ca_core,
                 c.ca_halo, p.gain_pct, c.comm_reduction_pct(),
                 c.comp_increase_pct()});
    }
  }
  bench::emit(cfg, t);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_table5_hydra_components: " << e.what() << '\n';
  return 1;
}
