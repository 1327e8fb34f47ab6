// Table 4 — OP2-Hydra loop-chains with a single halo level (HE_l = 1):
// vflux, iflux and jacob. Prints, per loop, the iteration set, the dats
// the chain exchanges (the inspector's sync set restricted to dats the
// loop accesses) and the effective halo extension.
#include "bench_hydra_common.hpp"

using namespace op2ca;

namespace {

void print_chain(const bench::BenchConfig& cfg, const mesh::MeshDef& m,
                 const core::ChainSpec& spec) {
  const core::ChainAnalysis an = core::inspect_chain(m, spec);
  std::set<mesh::dat_id> synced;
  for (const core::DatSync& s : an.syncs) synced.insert(s.dat);

  Table t("Table 4 — loop-chain: " + spec.name +
          " (loop count = " + std::to_string(spec.loops.size()) + ")");
  t.set_header(
      {"Parallel loop", "Iteration set", "Halo exchanged datasets",
       "HE_l"});
  for (std::size_t l = 0; l < spec.loops.size(); ++l) {
    const core::LoopSpec& loop = spec.loops[l];
    std::string exchanged;
    for (const auto& [dat, mode] : core::merge_loop_accesses(loop)) {
      if (synced.count(dat) == 0) continue;
      if (!core::reads_value(mode.mode)) continue;
      if (!exchanged.empty()) exchanged += ", ";
      exchanged += m.dat(dat).name;
    }
    t.add_row({loop.name, m.set(loop.set).name,
               exchanged.empty() ? std::string(1, '-') : exchanged,
               static_cast<std::int64_t>(an.he_alg3[l])});
  }
  bench::emit(cfg, t);
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"csv"});
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);

  apps::hydra::Problem prob = apps::hydra::build_problem(20000);
  const auto specs = apps::hydra::chain_specs(prob);
  print_chain(cfg, prob.an.mesh, specs.at("vflux"));
  print_chain(cfg, prob.an.mesh, specs.at("iflux"));
  print_chain(cfg, prob.an.mesh, specs.at("jacob"));
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_table4_hydra_singlelayer: " << e.what() << '\n';
  return 1;
}
