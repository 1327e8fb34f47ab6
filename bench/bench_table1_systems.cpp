// Table 1 — Systems Specifications.
//
// The paper's Table 1 describes ARCHER2 and Cirrus. This bench prints
// the machine parameterisations the reproduction uses in their place:
// the latency/bandwidth/compute-scale values that drive Eqs (1)-(3),
// alongside the published hardware they stand in for.
#include "bench_common.hpp"

using namespace op2ca;

int main(int argc, char** argv) try {
  const Options opt(argc, argv, {"csv"});
  const bench::BenchConfig cfg = bench::BenchConfig::from_options(opt);

  Table t("Table 1 — System parameterisations (paper: ARCHER2 / Cirrus)");
  t.set_header({"property", "archer2", "cirrus"});
  const model::Machine a = model::archer2();
  const model::Machine c = model::cirrus_gpu();

  t.add_row({std::string("paper system"), std::string("HPE Cray EX"),
             std::string("SGI/HPE 8600 + 4xV100")});
  t.add_row({std::string("paper processor"),
             std::string("2x AMD EPYC 7742 (128 cores)"),
             std::string("2x Xeon 6248 + 4x V100-SXM2-16GB")});
  t.add_row({std::string("paper interconnect"),
             std::string("Slingshot 2x100 Gb/s"),
             std::string("FDR InfiniBand 54.5 Gb/s")});
  t.add_row({std::string("ranks/node"),
             static_cast<std::int64_t>(a.ranks_per_node),
             static_cast<std::int64_t>(c.ranks_per_node)});
  t.add_row({std::string("model latency L [us]"), a.net.latency_s * 1e6,
             c.net.latency_s * 1e6});
  t.add_row({std::string("model GPU staging Lambda extra [us]"),
             a.extra_latency_s * 1e6, c.extra_latency_s * 1e6});
  t.add_row({std::string("model bandwidth B [GB/s]"),
             a.net.bandwidth_Bps / 1e9, c.net.bandwidth_Bps / 1e9});
  t.add_row({std::string("model pack bandwidth [GB/s]"),
             a.net.pack_bandwidth_Bps / 1e9,
             c.net.pack_bandwidth_Bps / 1e9});
  t.add_row({std::string("compute scale vs host core"), a.compute_scale,
             c.compute_scale});
  bench::emit(cfg, t);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_table1_systems: " << e.what() << '\n';
  return 1;
}
