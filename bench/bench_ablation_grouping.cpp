// Ablation — message grouping and the GPU transfer pipeline.
//
// Part 1: real execution (simulated ranks) of the MG-CFD synthetic
// chain, baseline vs CA, measuring actual message counts, bytes and the
// largest message — the mechanism behind every table/figure gain.
//
// Part 2: the Section-3.3 GPU pipeline choice: staged host-relay
// transfers overlapping with compute vs GPUDirect-style transfers that
// serialize with kernels (the behaviour the paper observed).
#include "bench_mgcfd_common.hpp"
#include "op2ca/model/pipeline.hpp"

using namespace op2ca;

namespace {

void grouping_table(const bench::BenchConfig& cfg) {
  Table t("Ablation — grouped vs per-loop messages (real execution)");
  t.set_header({"#Loops", "mode", "msgs", "bytes", "max msg [B]",
                "core iters", "halo iters", "pack%", "core%", "wait%",
                "halo%"});
  for (int loops : {2, 8, 32}) {
    for (const bool ca : {false, true}) {
      apps::mgcfd::Problem prob = apps::mgcfd::build_problem(30000, 1);
      core::WorldConfig wc;
      wc.nranks = 16;
      wc.partitioner = partition::Kind::KWay;
      wc.halo_depth = 2;
      if (ca) wc.chains.enable("synthetic");
      core::World w(std::move(prob.mg.mesh), wc);
      auto timestep = [&] {
        w.run([&](core::Runtime& rt) {
          apps::mgcfd::run_synthetic_chain(
              rt, apps::mgcfd::resolve_handles(rt, prob), loops / 2);
        });
      };
      // Two timesteps; meter the steady-state second one. Metrics are
      // cleared between runs: clear_metrics is not callable inside run.
      timestep();
      w.clear_metrics();
      timestep();
      const core::LoopMetrics m = w.chain_metrics().at("synthetic");
      const double wall = std::max(m.wall_seconds, 1e-12);
      t.add_row({static_cast<std::int64_t>(loops),
                 std::string(ca ? "CA" : "OP2"), m.msgs, m.bytes,
                 m.max_msg_bytes, m.core_iters, m.halo_iters,
                 100.0 * m.pack_seconds / wall,
                 100.0 * m.core_seconds / wall,
                 100.0 * m.wait_seconds / wall,
                 100.0 * m.halo_seconds / wall});
    }
  }
  bench::emit(cfg, t);
}

void pipeline_table(const bench::BenchConfig& cfg) {
  Table t("Ablation — staged pipeline vs GPUDirect-style transfers");
  t.set_header({"neighbours", "msg [KiB]", "compute [us]", "staged [us]",
                "gpudirect [us]", "staged wins"});
  t.set_precision(2);
  const model::Machine cirrus = model::cirrus_gpu();
  for (int neighbors : {4, 8, 16}) {
    for (std::int64_t kib : {16, 256}) {
      for (double compute_us : {0.0, 200.0, 2000.0}) {
        model::PipelineConfig pc;
        pc.pcie = cirrus.device.pcie;
        pc.net = cirrus.net;
        pc.compute_s = compute_us * 1e-6;
        std::vector<model::Transfer> transfers(
            static_cast<std::size_t>(neighbors),
            model::Transfer{kib * 1024});
        const double staged =
            model::staged_pipeline_makespan(pc, transfers);
        const double direct = model::gpudirect_makespan(pc, transfers);
        t.add_row({static_cast<std::int64_t>(neighbors), kib, compute_us,
                   staged * 1e6, direct * 1e6,
                   std::string(staged <= direct ? "yes" : "no")});
      }
    }
  }
  bench::emit(cfg, t);
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"csv"});
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);
  grouping_table(cfg);
  pipeline_table(cfg);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_ablation_grouping: " << e.what() << '\n';
  return 1;
}
