// Analytic model tests: Eqs (1)-(3) arithmetic, machine presets and
// their pinned predictions, component extraction consistency with the
// executors, the model's qualitative predictions (CA wins grow with
// scale and loop count), the wire calibration loader, and the
// staged-vs-GPUDirect transfer pipeline makespans.
#include <gtest/gtest.h>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/model/calibrate.hpp"
#include "op2ca/model/components.hpp"
#include <set>

#include "op2ca/model/machine.hpp"
#include "op2ca/model/perf_model.hpp"
#include "op2ca/model/pipeline.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::model {
namespace {

TEST(Machines, PresetsAreSane) {
  const Machine a = archer2();
  EXPECT_EQ(a.ranks_per_node, 128);
  EXPECT_GT(a.net.bandwidth_Bps, 1e9);

  const Machine c = cirrus_gpu();
  EXPECT_EQ(c.ranks_per_node, 4);
  // Staged copies inflate the GPU effective latency (Lambda > L).
  EXPECT_GT(c.effective_latency(), a.effective_latency());
  // One GPU rank outruns one CPU core.
  EXPECT_LT(c.compute_scale, a.compute_scale);
}

TEST(Machines, WireMessageAndPackTime) {
  Wire w;
  w.latency_s = 1e-6;
  w.bandwidth_Bps = 1e9;
  EXPECT_DOUBLE_EQ(w.message_time(1000), 1e-6 + 1e-6);
  EXPECT_GT(w.pack_time(1 << 20), 0.0);
}

TEST(PerfModel, Equation1Arithmetic) {
  Machine m = archer2();
  m.net.latency_s = 1e-6;
  m.net.bandwidth_Bps = 1e9;

  LoopTerms t;
  t.g = 1e-8;
  t.core_iters = 1000;  // compute = 1e-5 s
  t.halo_iters = 100;   // post-wait compute = 1e-6 s
  t.d = 2;
  t.p = 3;
  t.m1 = 1000;  // per-message time = 1e-6 + 1e-6 = 2e-6 s
  t.msgs_per_neighbor = 2 * t.d;  // both halo classes populated
  // comm = 2*2*3*2e-6 = 2.4e-5 > compute 1e-5 => comm-bound.
  EXPECT_NEAR(t_op2_loop(m, t), 2.4e-5 + 1e-6, 1e-12);

  t.core_iters = 10000;  // compute = 1e-4 > comm => compute-bound.
  EXPECT_NEAR(t_op2_loop(m, t), 1e-4 + 1e-6, 1e-12);
}

TEST(PerfModel, Equation3UsesGroupedMessage) {
  Machine m = archer2();
  m.net.latency_s = 1e-6;
  m.net.bandwidth_Bps = 1e9;
  m.net.pack_bandwidth_Bps = 1e10;

  ChainTerms c;
  LoopTerms l;
  l.g = 1e-8;
  l.core_iters = 100;
  l.halo_iters = 50;
  c.loops = {l, l};
  c.p = 4;
  c.m_r = 5000;
  // c is the receiver-side unpack of the grouped buffer (the only
  // staging cost the baseline does not also pay).
  const double pack = 5000 / 1e10;
  const double comm = 4 * (1e-6 + 5000 / 1e9 + pack);
  const double core = 2 * 1e-8 * 100;
  const double halo = 2 * 1e-8 * 50;
  EXPECT_NEAR(t_ca_chain(m, c), std::max(core, comm) + halo, 1e-12);
}

TEST(PerfModel, PresetPredictionsPinned) {
  // Eqs (1), (3) and the tiled Eq (3) on both presets over fixed
  // comm-bound terms, with the message below and above kStripeMinBytes:
  // ARCHER2's two rails price every term of the large row, and the
  // small row stays under the threshold even tiled (4 x 12000 B). The
  // doubles were printed by the model before its machine description
  // shrank to the values these equations read; they pin every preset
  // number the figures use.
  struct Row {
    std::int64_t m;
    double op2, ca, tiled4;
  };
  const auto check = [](const Machine& mach, const Row& row) {
    LoopTerms a;
    a.g = 2e-8;
    a.core_iters = 100;
    a.halo_iters = 400;
    a.d = 3;
    a.p = 6;
    a.m1 = row.m;
    a.msgs_per_neighbor = 6;
    LoopTerms b = a;
    b.g = 3e-8;
    b.core_iters = 80;
    b.halo_iters = 900;
    ChainTerms c;
    c.loops = {a, b};
    c.p = 6;
    c.m_r = row.m;
    EXPECT_EQ(t_op2_loop(mach, a), row.op2) << row.m;
    EXPECT_EQ(t_ca_chain(mach, c), row.ca) << row.m;
    EXPECT_EQ(t_ca_chain_tiled(mach, c, 4), row.tiled4) << row.m;
  };
  check(archer2(), {12000, 0.00011455999999999999, 5.481714285714285e-05,
                    9.8317142857142837e-05});
  check(archer2(), {200000, 0.00036799999999999995, 0.00012928571428571427,
                    0.00017278571428571427});
  check(cirrus_gpu(), {12000, 0.0012055294117647058, 0.00023746823529411764,
                       0.00014821823529411764});
  check(cirrus_gpu(), {200000, 0.002200823529411765, 0.00044847058823529415,
                       0.00035922058823529407});
}

TEST(PerfModel, GainPercent) {
  EXPECT_DOUBLE_EQ(gain_percent(2.0, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(gain_percent(1.0, 2.0), -100.0);
  EXPECT_DOUBLE_EQ(gain_percent(0.0, 1.0), 0.0);
}

class SyntheticComponents : public ::testing::Test {
protected:
  ChainComponents extract(int nranks, int nchains, int depth = 2) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(4000, 1);
    const core::ChainSpec spec =
        apps::mgcfd::synthetic_chain_spec(prob, nchains);
    const core::ChainAnalysis an = inspect_chain(prob.mg.mesh, spec);
    const partition::Partition part = partition::partition_mesh(
        prob.mg.mesh, nranks, partition::Kind::KWay,
        *prob.mg.mesh.find_set("nodes_l0"));
    halo::HaloPlanOptions opts;
    opts.depth = depth;
    opts.build_local_maps = true;  // the extractor runs the sparse-tiling slice
    const halo::HaloPlan plan =
        halo::build_halo_plan(prob.mg.mesh, part, opts);
    // Steady state: spres is perturbed outside the chain each timestep.
    const std::set<mesh::dat_id> stale =
        steady_state_stale(spec, {prob.spres});
    return extract_components(prob.mg.mesh, plan, spec, an, &stale);
  }
};

TEST_F(SyntheticComponents, Op2CommGrowsWithLoopCountCaDoesNot) {
  // Table 2's central observation: baseline bytes scale with the loop
  // count, the grouped message stays constant.
  const ChainComponents c2 = extract(8, 1);
  const ChainComponents c8 = extract(8, 4);
  EXPECT_GT(c8.op2_comm_bytes, 2 * c2.op2_comm_bytes);
  EXPECT_EQ(c8.ca_comm_bytes, c2.ca_comm_bytes);
}

TEST_F(SyntheticComponents, CaCoreSmallerHaloBigger) {
  const ChainComponents c = extract(8, 4);
  EXPECT_LT(c.ca_core, c.op2_core);
  EXPECT_GT(c.ca_halo, c.op2_halo);
  EXPECT_GT(c.comp_increase_pct(), 0.0);
  EXPECT_GT(c.comm_reduction_pct(), 0.0);
}

TEST_F(SyntheticComponents, ModelPredictsCaWinAtScaleForLongChains) {
  // With many small partitions and a long chain, the model must favour
  // CA (the Fig 10 trend); at tiny rank counts with short chains it
  // favours the baseline.
  const Machine mach = archer2();
  auto predict = [&](int nranks, int nchains) {
    ChainComponents c = extract(nranks, nchains);
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(4000, 1);
    const core::ChainSpec spec =
        apps::mgcfd::synthetic_chain_spec(prob, nchains);
    std::map<std::string, double> g{{"synth_update", 2e-8},
                                    {"synth_edge_flux", 4e-8}};
    apply_kernel_costs(spec, g, mach.compute_scale, &c);
    return std::make_pair(t_op2_chain(mach, c.op2_terms),
                          t_ca_chain(mach, c.ca_terms));
  };
  const auto [op2_big, ca_big] = predict(48, 16);
  EXPECT_LT(ca_big, op2_big);
}

TEST_F(SyntheticComponents, ComponentsMatchExecutorMetrics) {
  // The extractor's iteration counts must equal what the real executors
  // report (same plan, same analysis, steady-state staleness).
  const int nranks = 6, nchains = 3;
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(4000, 1);
  const core::ChainSpec spec =
      apps::mgcfd::synthetic_chain_spec(prob, nchains);
  const core::ChainAnalysis an = inspect_chain(prob.mg.mesh, spec);
  const std::set<mesh::dat_id> stale =
      steady_state_stale(spec, {prob.spres});

  core::WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  cfg.chains.enable("synthetic");
  core::World w(std::move(prob.mg.mesh), cfg);
  const ChainComponents comps =
      extract_components(w.mesh(), w.plan(), spec, an, &stale);

  // Two timesteps: the second chain execution runs at steady state
  // (sres dirty from the first), matching the extractor's assumption.
  w.run([&](core::Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    apps::mgcfd::run_synthetic_chain(rt, h, nchains);
    apps::mgcfd::run_synthetic_chain(rt, h, nchains);
  });
  const auto metrics = w.chain_metrics().at("synthetic");
  // Executor sums over ranks and the two calls; extractor takes
  // per-rank per-call maxima — totals must bracket.
  EXPECT_LE(comps.ca_core, metrics.core_iters);
  EXPECT_GE(comps.ca_core * nranks * 2, metrics.core_iters);
  EXPECT_LE(comps.ca_halo, metrics.halo_iters);
  EXPECT_GE(comps.ca_halo * nranks * 2, metrics.halo_iters);
  // Grouped message: the largest single message the executor sent must
  // equal the extractor's m^r.
  EXPECT_EQ(comps.ca_terms.m_r, metrics.max_msg_bytes);
}

TEST(HydraComponents, Table5Signs) {
  // Qualitative Table 5 reproduction: jacob groups messages with zero
  // computation increase; vflux has ~zero byte reduction; gradl
  // increases communication (negative reduction, the deeper qp/ql
  // packing of Eq 4) and computation.
  apps::hydra::Problem prob = apps::hydra::build_problem(6000);
  const auto specs = apps::hydra::chain_specs(prob);
  const partition::Partition part = partition::partition_mesh(
      prob.an.mesh, 16, partition::Kind::RIB, prob.an.nodes);
  halo::HaloPlanOptions opts;
  opts.depth = 2;
  opts.build_local_maps = true;
  const halo::HaloPlan plan =
      halo::build_halo_plan(prob.an.mesh, part, opts);

  // Steady state: the rk_update loop re-dirties the state dats between
  // iterations. The benches take this set from the recorded program.
  const std::set<mesh::dat_id> rk_written{
      prob.qo, prob.qp, prob.ql, prob.qrg, prob.qmu,
      prob.vol, prob.xp, prob.jacp, prob.jaca, prob.jacb};
  EXPECT_EQ(apps::hydra::record_program(prob).loose_written(), rk_written);
  auto extract = [&](const char* name) {
    const core::ChainSpec& spec = specs.at(name);
    const auto stale = steady_state_stale(spec, rk_written);
    return extract_components(prob.an.mesh, plan, spec,
                              inspect_chain(prob.an.mesh, spec), &stale);
  };

  // "No computation increase" rows: the CA side may come out slightly
  // BELOW the baseline because the chain-filtered sparse-tiling slice
  // skips exec-halo iterations the app-global OP2 halo executes
  // needlessly (elements reachable only via maps the chain never uses).
  const ChainComponents jacob = extract("jacob");
  EXPECT_NEAR(jacob.comm_reduction_pct(), 0.0, 10.0);
  EXPECT_LE(jacob.comp_increase_pct(), 0.5);
  EXPECT_GE(jacob.comp_increase_pct(), -30.0);

  const ChainComponents vflux = extract("vflux");
  EXPECT_NEAR(vflux.comm_reduction_pct(), 0.0, 10.0);
  EXPECT_LE(vflux.comp_increase_pct(), 0.5);
  EXPECT_GE(vflux.comp_increase_pct(), -30.0);

  const ChainComponents gradl = extract("gradl");
  EXPECT_LT(gradl.comm_reduction_pct(), 0.0);
  EXPECT_GT(gradl.comp_increase_pct(), 0.0);

  // The multi-layer chains shrink CA cores and grow halo work.
  const ChainComponents period = extract("period");
  EXPECT_LE(period.ca_core, period.op2_core);
  EXPECT_GT(period.ca_halo, period.op2_halo);
}

TEST_F(SyntheticComponents, GpuGainsExceedCpuGains) {
  // Section 4.1.3 / 4.2.2: CA gains on the GPU cluster exceed the CPU
  // cluster's at the same configuration (per-rank compute is ~60x
  // faster, so every configuration is communication-bound and the
  // message-count reduction dominates).
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(4000, 1);
  const core::ChainSpec spec =
      apps::mgcfd::synthetic_chain_spec(prob, 8);
  std::map<std::string, double> g{{"synth_update", 2e-8},
                                  {"synth_edge_flux", 4e-8}};
  auto gain_on = [&](const Machine& mach) {
    ChainComponents c = extract(16, 8);
    apply_kernel_costs(spec, g, mach.compute_scale, &c);
    return gain_percent(t_op2_chain(mach, c.op2_terms),
                        t_ca_chain(mach, c.ca_terms));
  };
  const double cpu = gain_on(archer2());
  const double gpu = gain_on(cirrus_gpu());
  EXPECT_GT(gpu, cpu);
  EXPECT_GT(gpu, 0.0);  // GPU gains appear even at modest scale
}

TEST(Calibration, MeasuresPositiveCosts) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(2000, 1);
  const auto g = calibrate_loop_costs(
      std::move(prob.mg.mesh), [&](core::Runtime& rt) {
        const auto h = apps::mgcfd::resolve_handles(rt, prob);
        apps::mgcfd::run_synthetic_chain(rt, h, 2);
      });
  ASSERT_TRUE(g.count("synth_update"));
  ASSERT_TRUE(g.count("synth_edge_flux"));
  EXPECT_GT(g.at("synth_update"), 0.0);
  EXPECT_LT(g.at("synth_update"), 1e-3);  // sub-millisecond per iteration
}

// ---- calibration-file loader (BENCH_calibration.json round-trip) ----

std::string calibration_json(const std::string& lat = "5e-6",
                             const std::string& bw = "10e9",
                             const std::string& rails = "2") {
  return "{\n  \"backend\": \"sim\", \"nranks\": 4, \"iters\": 16,\n"
         "  \"wire\": {\"latency_s\": " +
         lat + ", \"bandwidth_Bps\": " + bw + ", \"rails\": " + rails +
         ", \"stride\": 2, \"pairs\": 2}\n}\n";
}

TEST(WireCalibration, ParsesBenchCalibrateSchema) {
  const Calibration cal = parse_calibration(calibration_json());
  EXPECT_EQ(cal.backend, "sim");
  EXPECT_EQ(cal.nranks, 4);
  EXPECT_DOUBLE_EQ(cal.latency_s, 5e-6);
  EXPECT_DOUBLE_EQ(cal.bandwidth_Bps, 10e9);
  EXPECT_EQ(cal.rails, 2);
}

TEST(WireCalibration, AppliedMachineUsesMeasuredWire) {
  Machine m = archer2();
  apply_calibration(parse_calibration(calibration_json()), &m);
  EXPECT_DOUBLE_EQ(m.net.latency_s, 5e-6);
  EXPECT_DOUBLE_EQ(m.net.bandwidth_Bps, 10e9);
  EXPECT_EQ(m.net.rails, 2);
  // The pack bandwidth is not wire-measured and keeps the preset's value.
  EXPECT_DOUBLE_EQ(m.net.pack_bandwidth_Bps,
                   archer2().net.pack_bandwidth_Bps);
}

TEST(WireCalibration, RejectsMissingWireOrField) {
  EXPECT_THROW(parse_calibration("{\"backend\": \"sim\", \"nranks\": 2}"),
               Error);
  std::string text = calibration_json();
  text.replace(text.find("\"wire\""), 6, "\"wirx\"");
  EXPECT_THROW(parse_calibration(text), Error);
  text = calibration_json();
  text.replace(text.find("\"bandwidth_Bps\""), 15, "\"bandwidth_xxx\"");
  EXPECT_THROW(parse_calibration(text), Error);
}

TEST(WireCalibration, RejectsNonPositiveValues) {
  EXPECT_THROW(parse_calibration(calibration_json("0")), Error);
  EXPECT_THROW(parse_calibration(calibration_json("5e-6", "-1")), Error);
  EXPECT_THROW(parse_calibration(calibration_json("5e-6", "10e9", "0")),
               Error);
  // Too-small world.
  std::string text = calibration_json();
  text.replace(text.find("\"nranks\": 4"), 11, "\"nranks\": 1");
  EXPECT_THROW(parse_calibration(text), Error);
}

TEST(WireCalibration, RejectsFractionalAndOutOfRangeCounts) {
  // rails and nranks are counts: a fractional value is not truncated, an
  // out-of-range one is not cast, and rails stays within kMaxRails. The
  // error names the field.
  const auto expect_error = [](const std::string& text,
                               const std::string& field) {
    try {
      parse_calibration(text);
      ADD_FAILURE() << field << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + field + "\""),
                std::string::npos)
          << e.what();
    }
  };
  for (const char* rails : {"2.5", "1e10", "100"})
    expect_error(calibration_json("5e-6", "10e9", rails), "rails");
  for (const char* nranks : {"4.9", "1e12"}) {
    std::string text = calibration_json();
    text.replace(text.find("\"nranks\": 4"), 11,
                 std::string("\"nranks\": ") + nranks);
    expect_error(text, "nranks");
  }
}

TEST(WireCalibration, LoadReportsUnreadablePath) {
  EXPECT_THROW(load_calibration("/nonexistent/BENCH_calibration.json"),
               Error);
}

TEST(Pipeline, StagedOverlapsComputeGpudirectDoesNot) {
  // The paper's observation: staged copies pipeline with kernels, while
  // the observed GPUDirect behaviour serializes with compute. With ample
  // compute to hide behind, staged wins.
  PipelineConfig cfg;
  cfg.compute_s = 1e-3;  // plenty of kernel work
  std::vector<Transfer> transfers(8, Transfer{64 * 1024});
  const double staged = staged_pipeline_makespan(cfg, transfers);
  const double direct = gpudirect_makespan(cfg, transfers);
  EXPECT_LT(staged, direct);
  // Fully hidden: staged equals the compute time.
  EXPECT_DOUBLE_EQ(staged, cfg.compute_s);
}

TEST(Pipeline, GpudirectWinsWithoutComputeOverlap) {
  // With no compute to hide behind, skipping the PCIe staging is faster.
  PipelineConfig cfg;
  cfg.compute_s = 0.0;
  std::vector<Transfer> transfers(4, Transfer{1 << 20});
  const double staged = staged_pipeline_makespan(cfg, transfers);
  const double direct = gpudirect_makespan(cfg, transfers);
  EXPECT_GT(staged, direct);
}

TEST(Pipeline, MakespanMonotoneInTransferCount) {
  PipelineConfig cfg;
  cfg.compute_s = 0.0;
  std::vector<Transfer> few(2, Transfer{4096});
  std::vector<Transfer> many(9, Transfer{4096});
  EXPECT_LT(staged_pipeline_makespan(cfg, few),
            staged_pipeline_makespan(cfg, many));
}

TEST(Pipeline, EmptyTransfersIsComputeOnly) {
  PipelineConfig cfg;
  cfg.compute_s = 5e-4;
  EXPECT_DOUBLE_EQ(staged_pipeline_makespan(cfg, {}), 5e-4);
  EXPECT_DOUBLE_EQ(gpudirect_makespan(cfg, {}), 5e-4);
}

}  // namespace
}  // namespace op2ca::model
