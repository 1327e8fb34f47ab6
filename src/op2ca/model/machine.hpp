// Machine parameterisations for the analytic model (Table 1 of the
// paper): an ARCHER2-like CPU cluster (HPE Cray EX, AMD EPYC 7742,
// Slingshot) and a Cirrus-like V100 GPU cluster (4 GPUs/node, FDR
// InfiniBand, staged host<->device transfers).
//
// A Machine holds exactly the numbers some table or figure reads: the
// wire of Eqs (1)-(3) (latency L, bandwidth B, the pack bandwidth of c,
// and the modelled rail count), the GPU path's staging lump folded into
// Lambda (Section 3.3), the PCIe link of the staged-pipeline makespans,
// the per-iteration compute scale and the ranks per node. The model is
// evaluated on plan-level quantities, never on executed runs, which are
// timed by the wall clock.
//
// Absolute times are not the reproduction target — shapes are — but the
// parameters are chosen from the published system specs so the
// computation/communication balance is realistic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace op2ca::model {

/// Upper bound on the modelled rail count (--rails, calibration).
inline constexpr int kMaxRails = 8;

/// Messages at or above this size spread over the wire's rails in the
/// model (Machine::effective_bandwidth); smaller, latency-bound messages
/// do not. Executed exchanges send every message whole.
inline constexpr std::size_t kStripeMinBytes = std::size_t{64} * 1024;

/// The network wire of Eqs (1)-(3).
struct Wire {
  double latency_s = 2.0e-6;         ///< L: per-message latency.
  double bandwidth_Bps = 12.5e9;     ///< B: per-rail bandwidth.
  double pack_bandwidth_Bps = 20e9;  ///< memcpy bandwidth of (un)packing.
  /// Parallel rails (NICs) a large message spreads over in the model.
  int rails = 1;

  /// Time to move one `bytes`-sized message over one rail.
  double message_time(std::int64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }

  /// Pack or unpack cost for `bytes` of staged halo data (the `c` term of
  /// Eq (3) is the grouped message's unpack).
  double pack_time(std::int64_t bytes) const {
    return static_cast<double>(bytes) / pack_bandwidth_Bps;
  }
};

/// PCIe-generation-3 x16 class transfer parameters: the host<->device
/// link of the staged-pipeline makespans (model/pipeline).
struct PcieModel {
  double latency_s = 8.0e-6;       ///< per-transfer launch + DMA setup.
  double bandwidth_Bps = 12.0e9;   ///< sustained H2D/D2H.
  double transfer_time(std::int64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
};

struct Machine {
  Wire net;  ///< L, B, c and the rail count of Eqs (1)-(3).
  /// Multiplier applied to host-calibrated per-iteration kernel costs to
  /// approximate one target core / one target GPU rank.
  double compute_scale = 1.0;
  int ranks_per_node = 1;
  /// GPU path: the staged PCIe copies and kernel-launch overheads of
  /// each exchange, one lump added to L to give the effective latency
  /// Lambda (Section 3.3). 0 on a CPU cluster.
  double extra_latency_s = 0.0;
  PcieModel pcie;

  double effective_latency() const {
    return net.latency_s + extra_latency_s;
  }
  /// Effective wire bandwidth for one `bytes`-sized message: B times the
  /// rail count once the message reaches kStripeMinBytes. This enters
  /// Eq (1)/(3) on the m/B serialisation term only — rails buy
  /// bandwidth, not latency — and with one rail every prediction is the
  /// flat model's.
  double effective_bandwidth(std::size_t bytes) const {
    const bool multi_rail = net.rails > 1 && bytes >= kStripeMinBytes;
    return net.bandwidth_Bps * (multi_rail ? net.rails : 1);
  }
};

/// HPE Cray EX: 2 x 64-core EPYC 7742/node, Slingshot 2x100 Gb/s.
Machine archer2();
/// SGI/HPE 8600: 4 x V100/node, FDR InfiniBand 54.5 Gb/s.
Machine cirrus_gpu();

/// A parsed BENCH_calibration.json: the wire bench_calibrate measured
/// between two ranks of one backend (sim fabric, mpi-stub, or real MPI
/// under mpirun) — ping-pong latency, large-message bandwidth and the
/// effective rail count of concurrent pairs.
struct Calibration {
  std::string backend;  ///< "sim" | "mpi" | "mpi-stub".
  int nranks = 0;
  double latency_s = 0;
  double bandwidth_Bps = 0;
  int rails = 1;
};

/// Parses the BENCH_calibration.json text: a "wire" object with
/// latency > 0, bandwidth > 0 and whole rails in [1, kMaxRails], and a
/// whole nranks >= 2. Raises with context on any violation.
Calibration parse_calibration(const std::string& json_text);

/// parse_calibration over a file's contents; raises if unreadable.
Calibration load_calibration(const std::string& path);

/// Replaces the machine's wire latency, bandwidth and rails with the
/// measured ones. The pack bandwidth is a property of the runtime's
/// memcpy, not of the wire, and keeps the preset's value.
void apply_calibration(const Calibration& cal, Machine* m);

}  // namespace op2ca::model
