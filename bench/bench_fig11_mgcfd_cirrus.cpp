// Figure 11 — MG-CFD CA performance on the Cirrus GPU cluster: the same
// synthetic-chain sweep as Fig 10, on 1-16 nodes x 4 V100 ranks, with
// the GPU machine model (Section 3.3: staged host<->device copies fold
// into the effective latency Lambda; per-rank compute runs at GPU
// throughput).
//
// Cirrus rank counts are small (4-64), so they are NOT scaled down; only
// the mesh is. Per-rank partitions are 1/scale of the paper's, which
// shifts the compute/comm balance the same way for OP2 and CA (see
// EXPERIMENTS.md).
//
// Pass --device to replace the preset's hand-tuned extra-latency lump
// with the derived Machine::DeviceTier Lambda (pipelined transfers by
// default; --device-mode=staged models the fully-exposed PCIe regime).
#include "bench_mgcfd_common.hpp"

using namespace op2ca;

namespace {

/// A Cirrus machine whose ranks/node is pre-multiplied by the bench
/// scale so bench::scaled_ranks yields the unscaled GPU count.
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

  for (const std::string mesh : {"8M", "24M"}) {
    bench::MgcfdBench b(cfg, mesh);
    Table t("Fig 11 — MG-CFD runtime per timestep [ms], " + mesh +
            " mesh (scale 1/" + std::to_string(cfg.scale) +
            "), Cirrus GPU cluster" +
            (cfg.tile > 1 ? ", CA tiled x" + std::to_string(cfg.tile)
                          : ""));
    t.set_header({"#Nodes", "GPU ranks", "#Loops", "OP2 [ms]", "CA [ms]",
                  "Gain%"});
    t.set_precision(4);
    for (int nodes : {1, 2, 4, 8, 16}) {
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
  std::cerr << "bench_fig11_mgcfd_cirrus: " << e.what() << '\n';
  return 1;
}
