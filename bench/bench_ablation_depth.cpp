// Ablation — halo depth. Builds the multi-layer halo plan at depths
// 1..4 and reports how the import region (exec + nonexec elements) and
// the redundant-iteration volume grow per added layer: the memory and
// compute price of deeper communication avoidance.
#include "bench_mgcfd_common.hpp"
#include "op2ca/halo/grouped.hpp"

using namespace op2ca;

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"scale", "csv"});
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);

  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(
      bench::scaled_mesh("8M", cfg.scale * 4), 1);
  const mesh::MeshDef& m = prob.mg.mesh;
  const mesh::set_id nodes = *m.find_set("nodes_l0");
  const mesh::set_id edges = *m.find_set("edges_l0");

  Table t("Ablation — halo depth vs import volume (8M/" +
          std::to_string(cfg.scale * 4) + ", 64 ranks, kway)");
  t.set_header({"depth", "exec elems (max rank)", "nonexec elems",
                "import/owned %", "grouped msg [B] (2 dats)"});
  t.set_precision(2);

  const partition::Partition part = partition::partition_mesh(
      m, 64, partition::Kind::KWay, nodes);
  for (int depth = 1; depth <= 4; ++depth) {
    const halo::HaloPlan plan = bench::plan_for(m, part, depth);
    std::int64_t max_exec = 0, max_nonexec = 0;
    double max_ratio = 0;
    std::int64_t max_msg = 0;
    for (rank_t r = 0; r < 64; ++r) {
      std::int64_t exec = 0, nonexec = 0, owned = 0;
      for (mesh::set_id s = 0; s < m.num_sets(); ++s) {
        const halo::SetLayout& lay = plan.layout(r, s);
        owned += lay.num_owned;
        exec += lay.exec_end.back() - lay.num_owned;
        nonexec += lay.total - lay.exec_end.back();
      }
      max_exec = std::max(max_exec, exec);
      max_nonexec = std::max(max_nonexec, nonexec);
      if (owned > 0)
        max_ratio = std::max(
            max_ratio, 100.0 * static_cast<double>(exec + nonexec) /
                           static_cast<double>(owned));

      // Grouped message for the synthetic chain's two sync dats at this
      // depth (sres on nodes, spres on nodes — dim 2 each).
      const halo::RankPlan& rp = plan.ranks[static_cast<std::size_t>(r)];
      halo::DatSyncSpec spec[2];
      for (auto& ds : spec) {
        ds.set = nodes;
        ds.dim = 2;
        ds.depth = depth;
        ds.data = nullptr;  // sizes only
      }
      for (const auto& [q, bytes] :
           halo::grouped_message_bytes(rp, {spec, 2}))
        max_msg = std::max(max_msg, bytes);
    }
    (void)edges;
    t.add_row({static_cast<std::int64_t>(depth), max_exec, max_nonexec,
               max_ratio, max_msg});
  }
  bench::emit(cfg, t);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_ablation_depth: " << e.what() << '\n';
  return 1;
}
