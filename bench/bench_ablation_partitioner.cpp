// Ablation — partitioner choice. The paper uses ParMETIS k-way for
// MG-CFD ("to obtain the best partitions per process, i.e. smallest MPI
// halos and least number of neighbours") and Hydra's default recursive
// inertial bisection. This bench quantifies why: partition quality
// (imbalance, edge cut, neighbour counts p) and its effect on the
// predicted OP2/CA chain times.
#include "bench_hydra_common.hpp"
#include "op2ca/partition/quality.hpp"

using namespace op2ca;

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"scale", "csv"});
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);
  const model::Machine mach = model::archer2();

  apps::hydra::Problem prob = apps::hydra::build_problem(
      bench::scaled_mesh("8M", cfg.scale * 4));
  const core::Recording program = apps::hydra::record_program(prob);
  const core::ChainSpec period = program.chains_by_name().at("period");
  const std::set<mesh::dat_id> stale =
      model::steady_state_stale(period, program.loose_written());
  const std::map<std::string, double> host_g = bench::default_costs(program);

  Table t("Ablation — partitioner effect on halos and chain times (8M/" +
          std::to_string(cfg.scale * 4) + ", 64 ranks)");
  t.set_header({"partitioner", "imbalance", "edge cut", "max neighbours",
                "period OP2 [ms]", "period CA [ms]", "gain%"});
  t.set_precision(3);

  const int nranks = 64;
  for (partition::Kind kind :
       {partition::Kind::Block, partition::Kind::RIB,
        partition::Kind::KWay}) {
    const partition::Partition part =
        partition::partition_mesh(prob.an.mesh, nranks, kind,
                                  prob.an.nodes);
    const partition::Quality q =
        partition::evaluate_partition(prob.an.mesh, part, prob.an.nodes);
    const halo::HaloPlan plan = bench::plan_for(prob.an.mesh, part, 2);
    const bench::ChainPrediction p = bench::predict_chain(
        mach, prob.an.mesh, plan, period, stale, host_g);
    t.add_row({std::string(partition::kind_name(kind)), q.imbalance,
               q.edge_cut, static_cast<std::int64_t>(q.max_neighbors),
               p.t_op2 * 1e3, p.t_ca * 1e3, p.gain_pct});
  }
  bench::emit(cfg, t);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_ablation_partitioner: " << e.what() << '\n';
  return 1;
}
