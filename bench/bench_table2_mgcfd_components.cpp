// Table 2 — MG-CFD on ARCHER2: model components of the synthetic
// loop-chain and the CA-vs-OP2 performance gain.
//
// For meshes {8M, 24M} (scaled), node counts {4, 16, 64} and loop counts
// {2, 8, 32} (nchains = loops/2), prints:
//   OP2:  sum(2dpm^1) | sum(S^c) | sum(S^1)
//   CA:   p m^r       | sum(S^c) | sum(S^h)
//   Gain% from Eqs (2) vs (3) with calibrated kernel costs.
#include "bench_mgcfd_common.hpp"

using namespace op2ca;

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"scale", "csv", "calibrate", "tile"});
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);
  const model::Machine mach = model::archer2();

  for (const std::string mesh : {"8M", "24M"}) {
    bench::MgcfdBench b(cfg, mesh);
    Table t("Table 2 — MG-CFD model components, " + mesh +
            " mesh (scale 1/" + std::to_string(cfg.scale) + "), ARCHER2");
    t.set_header({"#Nodes", "#Loops", "OP2 sum(2dpm1)", "OP2 sum(Sc)",
                  "OP2 sum(S1)", "CA pm_r", "CA sum(Sc)", "CA sum(Sh)",
                  "Gain%"});
    t.set_precision(2);
    for (int nodes : {4, 16, 64}) {
      for (int loops : {2, 8, 32}) {
        const bench::ChainPrediction p =
            b.predict(mach, nodes, loops / 2);
        const model::ChainComponents& c = p.components;
        t.add_row({static_cast<std::int64_t>(nodes),
                   static_cast<std::int64_t>(loops), c.op2_comm_bytes,
                   c.op2_core, c.op2_halo, c.ca_comm_bytes, c.ca_core,
                   c.ca_halo, p.gain_pct});
      }
    }
    bench::emit(cfg, t);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_table2_mgcfd_components: " << e.what() << '\n';
  return 1;
}
