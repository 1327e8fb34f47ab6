// Latency/bandwidth communication cost model (LogGP-flavoured), extended
// with a machine hierarchy.
//
// The analytic model of the paper (Eqs 1-3) charges a halo exchange
// p * (L + m/B [+ c]) where L is network latency, B bandwidth, p the
// neighbour count and c a pack/unpack cost. This struct carries those
// machine parameters; model/machine.cpp provides ARCHER2-like and
// Cirrus-like presets. Executed runs are timed by the wall clock; the
// model is evaluated on plan-level quantities, never on executed runs.
//
// Hierarchy: ranks fold onto a thread < NUMA < node < network machine.
// A message between two ranks crosses the cheapest tier containing both
// (Tier::Numa inside one NUMA domain, Tier::Node across domains of one
// node, Tier::Net across nodes), each tier with its own (latency,
// bandwidth, rail-count) parameters. The legacy flat fields (latency_s /
// bandwidth_Bps) ARE the network tier, so existing presets and tests see
// identical numbers; the topology stays flat (every pair is Tier::Net)
// until ranks_per_node is set. Rails model parallel network links
// (NICs): the analytic model lets a large message use all of them at once
// (Machine::effective_bandwidth, CommBench's rail pattern). Executed
// exchanges send every message whole, as one isend.
#pragma once

#include <cstdint>
#include <string>

#include "op2ca/util/types.hpp"

namespace op2ca::sim {

/// Machine tier a message crosses, cheapest first. (The thread tier —
/// workers of one rank — moves no messages and has no wire parameters.)
enum class Tier { Numa = 0, Node = 1, Net = 2 };
inline constexpr int kNumTiers = 3;

/// Upper bound on a tier's modelled rail count (--rails, calibration).
inline constexpr int kMaxRails = 8;

inline const char* tier_name(Tier t) {
  switch (t) {
    case Tier::Numa: return "numa";
    case Tier::Node: return "node";
    default: return "net";
  }
}

struct Calibration;
struct CostModel;

/// Per-tier wire parameters: latency, per-rail bandwidth, rail count.
struct TierParams {
  double latency_s = 0;
  double bandwidth_Bps = 0;
  int rails = 1;

  /// The measured parameters of tier `t` from a bench_calibrate run
  /// (BENCH_calibration.json) — the measured-machine-model discipline:
  /// cost-model predictions driven by what the wire actually did rather
  /// than the presets' guesses.
  static TierParams from_calibration(const Calibration& cal, Tier t);
};

/// A parsed BENCH_calibration.json: per-tier (latency, bandwidth,
/// effective rails) measured by bench_calibrate's ping-pong and
/// multi-pair streaming sweeps over one backend (sim fabric, mpi-stub,
/// or real MPI under mpirun).
struct Calibration {
  std::string backend;  ///< "sim" | "mpi" | "mpi-stub".
  int nranks = 0;
  TierParams tiers[kNumTiers];  ///< indexed by Tier.

  const TierParams& tier(Tier t) const {
    return tiers[static_cast<int>(t)];
  }
};

/// Parses the BENCH_calibration.json text. Validates the schema the CI
/// gate also enforces: all three tiers present with latency > 0,
/// bandwidth > 0, rails >= 1, and bandwidth monotone non-increasing /
/// latency monotone non-decreasing up the hierarchy (numa -> node ->
/// net). Raises with context on any violation.
Calibration parse_calibration(const std::string& json_text);

/// parse_calibration over a file's contents; raises if unreadable.
Calibration load_calibration(const std::string& path);

/// Folds measured tiers into a cost model: numa/node tiers are replaced
/// wholesale, and the net tier lands in the legacy flat fields
/// (latency_s / bandwidth_Bps / net_rails) that every preset and Eq
/// (1)-(3) term reads. Host-side overheads (per_message_overhead_s,
/// pack_bandwidth_Bps) are not measured by the wire sweeps and keep the
/// model's values.
void apply_calibration(const Calibration& cal, CostModel* cm);

struct CostModel {
  std::string name = "default";

  double latency_s = 2.0e-6;          ///< L: per-message network latency.
  double bandwidth_Bps = 12.5e9;      ///< B: per-rail network bandwidth.
  double pack_bandwidth_Bps = 20e9;   ///< memcpy bandwidth for (un)packing.
  double per_message_overhead_s = 0;  ///< extra host overhead per message.
  /// Parallel network rails (NICs) a large message spreads over in the
  /// model (Machine::effective_bandwidth).
  int net_rails = 1;

  // Topology: ranks [k*ranks_per_numa, ...) share a NUMA domain, ranks
  // [k*ranks_per_node, ...) share a node. 0 = flat (every rank pair
  // crosses the network), which keeps legacy configs bit-identical.
  int ranks_per_numa = 0;
  int ranks_per_node = 0;
  /// Intra-node tiers; meaningful once the topology above is set.
  TierParams numa{5.0e-7, 40e9, 1};
  TierParams node{1.0e-6, 20e9, 1};

  /// Cheapest tier containing both ranks.
  Tier tier_of(rank_t a, rank_t b) const {
    if (ranks_per_node > 0 && a / ranks_per_node == b / ranks_per_node) {
      if (ranks_per_numa > 0 && a / ranks_per_numa == b / ranks_per_numa)
        return Tier::Numa;
      return Tier::Node;
    }
    return Tier::Net;
  }

  double tier_latency(Tier t) const {
    switch (t) {
      case Tier::Numa: return numa.latency_s;
      case Tier::Node: return node.latency_s;
      default: return latency_s;
    }
  }
  double tier_bandwidth(Tier t) const {
    switch (t) {
      case Tier::Numa: return numa.bandwidth_Bps;
      case Tier::Node: return node.bandwidth_Bps;
      default: return bandwidth_Bps;
    }
  }

  /// Time to move one `bytes`-sized message to a neighbour (flat legacy
  /// form: the network tier).
  double message_time(std::int64_t bytes) const {
    return latency_s + per_message_overhead_s +
           static_cast<double>(bytes) / bandwidth_Bps;
  }

  /// Tier-aware single-message time.
  double message_time(std::int64_t bytes, Tier t) const {
    return tier_latency(t) + per_message_overhead_s +
           static_cast<double>(bytes) / tier_bandwidth(t);
  }

  /// Pack or unpack cost for `bytes` of staged halo data (the `c` term of
  /// Eq (3) is pack_time + unpack_time of the grouped message).
  double pack_time(std::int64_t bytes) const {
    return static_cast<double>(bytes) / pack_bandwidth_Bps;
  }
};

}  // namespace op2ca::sim
