// Table 3 — OP2-Hydra loop-chains with multiple halo layers: weight,
// period and gradl. Prints, per constituent loop, the iteration set, the
// access modes of the halo-relevant dats, the per-dat halo extensions
// HE_D (Alg 3) and the effective per-loop extension HE_l.
//
// Reproduction notes: all rows match the paper except weight's
// centreline, where the printed Alg 3 yields 1 vs the paper's 2 (see
// EXPERIMENTS.md).
#include "bench_hydra_common.hpp"

using namespace op2ca;

namespace {

std::string mode_of(const core::LoopSpec& loop, mesh::dat_id d) {
  const auto merged = core::merge_loop_accesses(loop);
  const auto it = merged.find(d);
  if (it == merged.end()) return "-";
  return core::access_name(it->second.mode);
}

void print_chain(const bench::BenchConfig& cfg, const mesh::MeshDef& m,
                 const core::ChainSpec& spec,
                 const std::vector<std::pair<std::string, mesh::dat_id>>&
                     tracked) {
  const core::ChainAnalysis an = core::inspect_chain(m, spec);
  Table t("Table 3 — loop-chain: " + spec.name +
          " (loop count = " + std::to_string(spec.loops.size()) + ")");
  std::vector<std::string> header{"Parallel loop", "Iter. set"};
  for (const auto& [name, d] : tracked) {
    header.push_back("mode_" + name);
    header.push_back("HE_" + name);
  }
  header.push_back("HE_l");
  t.set_header(header);

  for (std::size_t l = 0; l < spec.loops.size(); ++l) {
    const core::LoopSpec& loop = spec.loops[l];
    std::vector<Cell> row{loop.name, m.set(loop.set).name};
    for (const auto& [name, d] : tracked) {
      row.emplace_back(mode_of(loop, d));
      const auto it = an.he_per_dat[l].find(d);
      row.emplace_back(static_cast<std::int64_t>(
          it == an.he_per_dat[l].end() ? 1 : it->second));
    }
    row.emplace_back(static_cast<std::int64_t>(an.he_alg3[l]));
    t.add_row(std::move(row));
  }
  bench::emit(cfg, t);
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"csv"});
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);

  // The inspection is mesh-size independent; a small problem suffices.
  apps::hydra::Problem prob = apps::hydra::build_problem(20000);
  const auto specs = apps::hydra::chain_specs(prob);
  const mesh::MeshDef& m = prob.an.mesh;

  print_chain(cfg, m, specs.at("weight"), {{"qo", prob.qo}});
  print_chain(cfg, m, specs.at("period"),
              {{"qo", prob.qo}, {"vol", prob.vol}});
  print_chain(cfg, m, specs.at("gradl"),
              {{"qp", prob.qp}, {"ql", prob.ql}});
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_table3_hydra_multilayer: " << e.what() << '\n';
  return 1;
}
