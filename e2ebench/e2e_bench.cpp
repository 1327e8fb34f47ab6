// e2e_bench — measured OP2-vs-CA time per timestep on the real
// applications, in one process over the in-process comm fabric.
//
// Each workload builds one input mesh from --seed and runs it in two
// Worlds: every chain disabled (per-loop OP2, Alg 1) and the workload's
// CA chain selection (Alg 2). Steps alternate between the two worlds so
// machine drift hits both alike. After the timed loop every dat of the
// CA world is compared with the OP2 world (direct-only dats bitwise,
// dats reached by an indirect INC to 1e-9 relative, all finite).
//
// Per-layer numbers come from outside the layers only: this driver times
// its own calls into each layer's public functions and reads the
// counters World::loop_metrics()/chain_metrics() expose. No wire delay
// is injected (see README.md).
//
//   e2e_bench --workload=mgcfd-synth --seed=1 --seconds=10 --trace=0
//             [--trace-out=trace.json] [--chains-cfg=hydra_chains.cfg]
//
// Prints a provenance JSON line, then, as the last line, the result:
// {"correct": .., "attempted": .., "failed": .., "metrics": {..}} with the
// end-to-end metrics (--trace=0) or the per-layer metrics (--trace=1).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/core/chain.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/partition/partition.hpp"
#include "op2ca/partition/quality.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/options.hpp"
#include "op2ca/util/timer.hpp"

using namespace op2ca;

namespace {

// ---------------------------------------------------------------------------
// Workloads. Library defaults for every knob except ranks, threads and
// chains; ranks x threads never exceeds the host's cores.

enum class App { MgCfd, Hydra };

struct Workload {
  const char* name;
  App app;
  gidx_t nodes;
  int ranks;
  int threads;
  partition::Kind partitioner;
};

constexpr Workload kWorkloads[] = {
    {"mgcfd-synth", App::MgCfd, 160000, 4, 1, partition::Kind::KWay},
    {"hydra-rk", App::Hydra, 200000, 4, 1, partition::Kind::RIB},
    {"mgcfd-threads", App::MgCfd, 160000, 2, 2, partition::Kind::KWay},
};

constexpr int kMgLevels = 3;
constexpr int kSynthChains = 8;  // update/edge_flux pairs: 16 chained loops
constexpr int kSetupReps = 7;    // CA worlds set up per run; setup_s = median
constexpr int kMaxWarmup = 20;   // a world still building plans after this fails
constexpr int kMinRounds = 6;    // timed rounds, even under a tiny --seconds
constexpr double kIncTol = 1e-9; // the executor-equivalence tolerance

/// One generated input: the application problem (whose MeshDef is the
/// pristine input each World copies), the CA world's chain selection and
/// the chain specs the inspector is timed on.
struct Instance {
  std::optional<apps::mgcfd::Problem> mg;
  std::optional<apps::hydra::Problem> hy;
  core::ChainConfig ca_chains;
  std::vector<core::ChainSpec> ca_specs;
  /// Dats reached by an indirect INC (written by one, or computed from
  /// one): held to kIncTol. Every other dat must match bitwise.
  std::set<std::string> inc_reached;

  const mesh::MeshDef& mesh() const {
    return mg ? mg->mg.mesh : hy->an.mesh;
  }
};

Instance make_instance(const Workload& wl, std::uint64_t seed,
                       const std::string& chains_cfg) {
  Instance in;
  if (wl.app == App::MgCfd) {
    in.mg = apps::mgcfd::build_problem(wl.nodes, kMgLevels, seed);
    in.ca_chains.enable("synthetic", 2 * kSynthChains, 2);
    in.ca_specs.push_back(
        apps::mgcfd::synthetic_chain_spec(*in.mg, kSynthChains));
    // compute_flux_edge and restriction INC into res; time_step and the
    // transfers carry it into q and adt; the synthetic chain INCs sres and
    // sflux. spres, ewt, sewt and coords are direct-only.
    for (int l = 0; l < kMgLevels; ++l)
      for (const char* d : {"q", "adt", "res"})
        in.inc_reached.insert(std::string(d) + "_l" + std::to_string(l));
    in.inc_reached.insert({"sres", "sflux"});
  } else {
    in.hy = apps::hydra::build_problem(wl.nodes, seed);
    in.ca_chains = core::ChainConfig::load(chains_cfg);
    const auto specs = apps::hydra::chain_specs(*in.hy);
    for (const std::string& name : apps::hydra::chain_names())
      if (in.ca_chains.enabled(name)) in.ca_specs.push_back(specs.at(name));
    // sumbwts/edgecon/vflux/iflux INC qo, qp, ql, res and visres; the RK
    // updates fold res/visres into every node state dat, and jacob/period
    // derive pwk and bwk from those. cbv, bwts, ewk and coords are not.
    in.inc_reached = {"qo",   "qp",   "ql",   "xp",   "qmu",
                      "qrg",  "vol",  "res",  "visres", "jacp",
                      "jaca", "jacb", "pwk",  "bwk"};
  }
  return in;
}

/// Once per world, before the first step (Hydra's weight + period setup).
void run_prelude(const Instance& in, core::Runtime& rt) {
  if (in.hy) apps::hydra::run_setup(rt, apps::hydra::resolve_handles(rt, *in.hy));
}

/// One timestep. MG-CFD: one V-cycle plus the synthetic chain; returns
/// the residual RMS. Hydra: one 5-stage RK iteration; returns 0.
double run_step(const Instance& in, core::Runtime& rt) {
  if (in.mg) {
    const auto h = apps::mgcfd::resolve_handles(rt, *in.mg);
    const double rms = apps::mgcfd::solver_iteration(rt, h);
    apps::mgcfd::run_synthetic_chain(rt, h, kSynthChains);
    return rms;
  }
  apps::hydra::run_rk_iteration(rt, apps::hydra::resolve_handles(rt, *in.hy));
  return 0.0;
}

// ---------------------------------------------------------------------------
// Trace spans from the driver's own code, written as Chrome trace-event
// JSON (chrome://tracing, Perfetto). Track 0 is set-up, 1 the OP2 world,
// 2 the CA world.

enum Track { kSetupTrack = 0, kOp2Track = 1, kCaTrack = 2 };

class Tracer {
public:
  bool on = false;

  double now() const { return clock_.elapsed(); }
  void record(std::string name, int track, double t0, double t1) {
    if (on) spans_.push_back({std::move(name), track, t0, t1});
  }
  void write(const std::string& path) const {
    std::ofstream os(path);
    OP2CA_REQUIRE(os.good(), "cannot write trace file " + path);
    os << "{\"traceEvents\": [";
    const char* tracks[] = {"setup", "op2 world", "ca world"};
    for (int t = 0; t < 3; ++t)
      os << (t ? ",\n" : "\n") << "{\"name\": \"thread_name\", \"ph\": \"M\", "
         << "\"pid\": 0, \"tid\": " << t << ", \"args\": {\"name\": \""
         << tracks[t] << "\"}}";
    char buf[64];
    for (const Span& s : spans_) {
      os << ",\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 0, "
         << "\"tid\": " << s.track;
      std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f}",
                    s.t0 * 1e6, (s.t1 - s.t0) * 1e6);
      os << buf;
    }
    os << "\n]}\n";
  }

private:
  struct Span {
    std::string name;
    int track;
    double t0, t1;
  };
  WallTimer clock_;
  std::vector<Span> spans_;
};

/// Runs fn() as one span; returns its wall seconds.
template <typename F>
double timed(Tracer& tr, std::string name, int track, F&& fn) {
  const double t0 = tr.now();
  fn();
  const double t1 = tr.now();
  tr.record(std::move(name), track, t0, t1);
  return t1 - t0;
}

// ---------------------------------------------------------------------------
// One World plus everything the driver measured on it.

struct WorldRun {
  WorldRun(const char* l, int t) : label(l), track(t) {}

  const char* label;  // "op2" / "ca"
  int track;
  std::unique_ptr<core::World> world;
  std::vector<double> rms;           // residual RMS of every step, in order
  std::vector<double> timed_s;       // untraced timed steps
  std::vector<double> traced_s;      // traced timed steps (--trace=1)
  double ctor_s = 0, warmup_s = 0;
  int warmup_steps = 0;
};

/// Counters of everything a world ran since the last clear_metrics():
/// loose loops and CA-disabled chains are metered per loop, CA chains per
/// chain (their loops never reach loop_metrics), so the two never overlap.
core::LoopMetrics totals(const core::World& w) {
  core::LoopMetrics t;
  for (const auto& [name, m] : w.loop_metrics()) t.merge_from(m);
  for (const auto& [name, m] : w.chain_metrics())
    if (w.config().chains.enabled(name)) t.merge_from(m);
  return t;
}

double step(const Instance& in, WorldRun& wr, Tracer& tr,
            const std::string& span) {
  double rms = 0;
  const double s = timed(tr, span, wr.track, [&] {
    wr.world->run([&](core::Runtime& rt) {
      const double r = run_step(in, rt);
      if (rt.rank() == 0) rms = r;
    });
  });
  wr.rms.push_back(rms);
  return s;
}

/// Builds the world and steps it into the steady state: a whole step that
/// builds no exchange plan and whose staging allocations are zero or no
/// fewer than the step before. (The rank-local buffer pools never reach
/// zero allocations when ranks receive fewer buffers than they send, as
/// MG-CFD does at 4 ranks; that residue is a per-step cost, not set-up.)
/// The constructor, prelude and every warm-up step count as set-up.
void set_up(const Instance& in, core::WorldConfig cfg, WorldRun* wr,
            Tracer& tr) {
  wr->world.reset();
  wr->rms.clear();
  mesh::MeshDef input = in.mesh();  // the copy is the input, not set-up
  wr->ctor_s = timed(tr, std::string(wr->label) + " World()", wr->track, [&] {
    wr->world = std::make_unique<core::World>(std::move(input), cfg);
  });
  wr->warmup_s = timed(tr, std::string(wr->label) + " prelude", wr->track,
                       [&] { wr->world->run([&](core::Runtime& rt) {
                         run_prelude(in, rt);
                       }); });
  std::int64_t prev_allocs = -1;
  for (wr->warmup_steps = 1;; ++wr->warmup_steps) {
    OP2CA_REQUIRE(wr->warmup_steps <= kMaxWarmup,
                  std::string(wr->label) + " world not steady after " +
                      std::to_string(kMaxWarmup) + " warm-up steps");
    wr->world->clear_metrics();
    wr->warmup_s += step(in, *wr, tr, "warm-up step");
    const core::LoopMetrics t = totals(*wr->world);
    if (t.plan_builds == 0 &&
        (t.staging_allocs == 0 ||
         (prev_allocs >= 0 && t.staging_allocs >= prev_allocs)))
      break;
    prev_allocs = t.plan_builds == 0 ? t.staging_allocs : -1;
  }
}

// ---------------------------------------------------------------------------
// Correctness checks.

struct Checks {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void expect(const std::string& what, const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    failures.push_back(what + ": " + problem);
  }
};

/// Empty when `got` matches `ref` (bitwise, or to kIncTol relative under
/// `tolerant`) and every value is finite; otherwise the first problem.
std::string compare(const std::vector<double>& ref,
                    const std::vector<double>& got, bool tolerant) {
  if (ref.size() != got.size())
    return "size " + std::to_string(got.size()) + " vs " +
           std::to_string(ref.size());
  const auto at = [&](std::size_t i, const char* what) {
    std::ostringstream why;
    why.precision(17);
    why << what << " at " << i << ": " << got[i] << " vs " << ref[i];
    return why.str();
  };
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!std::isfinite(ref[i]) || !std::isfinite(got[i]))
      return at(i, "non-finite value");
    if (tolerant) {
      const double scale = std::max({1.0, std::abs(ref[i]), std::abs(got[i])});
      if (std::abs(ref[i] - got[i]) / scale > kIncTol)
        return at(i, "relative error above 1e-9");
    } else if (std::bit_cast<std::uint64_t>(ref[i]) !=
               std::bit_cast<std::uint64_t>(got[i])) {
      return at(i, "not bitwise equal");
    }
  }
  return {};
}

/// The check must be able to fail: perturbed copies of a real dat (one
/// ulp on a bitwise dat, 1e-6 on a tolerant one, a NaN) must all be caught.
std::string self_test(const std::vector<double>& exact,
                      const std::vector<double>& tolerant) {
  if (exact.empty() || tolerant.empty()) return "no dat to perturb";
  std::vector<double> e = exact;
  e[e.size() / 2] = std::nextafter(e[e.size() / 2], INFINITY);
  std::vector<double> t = tolerant;
  t[t.size() / 2] += 1e-6 * std::max(1.0, std::abs(t[t.size() / 2]));
  std::vector<double> n = tolerant;
  n.back() = NAN;
  if (compare(exact, e, false).empty()) return "one-ulp change not caught";
  if (compare(tolerant, t, true).empty()) return "1e-6 change not caught";
  if (compare(tolerant, n, true).empty()) return "NaN not caught";
  return {};
}

// ---------------------------------------------------------------------------
// Output helpers.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

class MetricsJson {
public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    os_ << (os_.tellp() > 0 ? ", " : "") << '"' << name
        << "\": {\"value\": " << buf << ", \"unit\": \"" << unit << "\"}";
  }
  std::string str() const {
    std::string out(1, '{');
    out += os_.str();
    out += '}';
    return out;
  }

private:
  std::ostringstream os_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

/// Cores this process may run on (its affinity mask, as nproc reports).
int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t mesh_bytes(const mesh::MeshDef& m) {
  std::int64_t b = 0;
  for (int d = 0; d < m.num_dats(); ++d)
    b += static_cast<std::int64_t>(m.dat(d).data.size() * sizeof(double));
  for (int k = 0; k < m.num_maps(); ++k)
    b += static_cast<std::int64_t>(m.map(k).targets.size() * sizeof(gidx_t));
  return b;
}

/// Per-step layer metrics of one world over its timed steps.
void add_world_layers(MetricsJson* mj, const WorldRun& wr, int nranks) {
  const core::LoopMetrics t = totals(*wr.world);
  std::vector<double> all = wr.timed_s;
  all.insert(all.end(), wr.traced_s.begin(), wr.traced_s.end());
  const double n = static_cast<double>(all.size());
  double wall = 0;
  for (const double s : all) wall += s;
  const std::string x = wr.label;
  const auto per = [n](double v) { return v / n; };
  mj->add(x + ".pack_s", per(t.pack_seconds), "s");
  mj->add(x + ".unpack_s", per(t.unpack_seconds), "s");
  mj->add(x + ".wait_s", per(t.wait_seconds), "s");
  mj->add(x + ".core_s", per(t.core_seconds), "s");
  mj->add(x + ".halo_s", per(t.halo_seconds), "s");
  mj->add(x + ".msgs", per(double(t.msgs)), "count");
  mj->add(x + ".bytes", per(double(t.bytes)), "B");
  mj->add(x + ".max_msg_bytes", double(t.max_msg_bytes), "B");
  mj->add(x + ".core_iters", per(double(t.core_iters)), "count");
  mj->add(x + ".halo_iters", per(double(t.halo_iters)), "count");
  mj->add(x + ".plan_builds", per(double(t.plan_builds)), "count");
  mj->add(x + ".staging_allocs", per(double(t.staging_allocs)), "count");
  mj->add(x + ".dispatch_regions", per(double(t.dispatch_regions)), "count");
  mj->add(x + ".busy_s", per(t.busy_seconds), "s");
  mj->add(x + ".chunks", per(double(t.chunks)), "count");
  mj->add(x + ".max_colours", double(t.max_colours), "count");
  // Rank-summed step wall the runtime's phase timers do not cover.
  mj->add(x + ".unattributed_s",
          per(wall * nranks - t.pack_seconds - t.core_seconds -
              t.wait_seconds - t.unpack_seconds - t.halo_seconds),
          "s");
  mj->add(x + ".step_p90_s", percentile(all, 0.9), "s");
  mj->add(x + ".steps", n, "count");
  mj->add(x + ".trace_overhead_s", median(wr.traced_s) - median(wr.timed_s),
          "s");
  if (x == "ca") {
    const double iters = double(t.core_iters + t.halo_iters);
    mj->add("ca.redundant_elems", per(double(t.redundant_elems)), "count");
    mj->add("ca.useful_frac",
            iters > 0 ? 1.0 - double(t.redundant_elems) / iters : 1.0, "1");
  }
}

/// Traced runs: times the layers the World constructor hides, each called
/// directly with the constructor's own arguments. Called once the worlds
/// exist, so these calls meet the same warm heap the constructors did.
/// Returns partition + halo-plan seconds.
double time_hidden_layers(const Instance& in, const core::WorldConfig& cfg,
                          Tracer& tr, MetricsJson* layers) {
  const mesh::MeshDef& mesh = in.mesh();
  partition::Partition part;
  partition::Quality q;
  halo::HaloPlan plan;
  // Medians of kSetupReps / 2 calls, to compare with the constructor's
  // median over kSetupReps.
  std::vector<double> part_samples, halo_samples;
  for (int rep = 0; rep < kSetupReps / 2; ++rep) {
    part_samples.push_back(timed(tr, "partition_mesh", kSetupTrack, [&] {
      part = partition::partition_mesh(mesh, cfg.nranks, cfg.partitioner, 0);
    }));
    halo_samples.push_back(timed(tr, "build_halo_plan", kSetupTrack, [&] {
      halo::HaloPlanOptions ho;
      ho.depth = cfg.halo_depth;
      plan = halo::build_halo_plan(mesh, part, ho);
    }));
  }
  const double partition_s = median(part_samples);
  const double halo_s = median(halo_samples);
  timed(tr, "evaluate_partition", kSetupTrack,
        [&] { q = partition::evaluate_partition(mesh, part, 0); });
  double inspector_s = 0;
  for (const core::ChainSpec& spec : in.ca_specs)
    inspector_s += timed(tr, "inspect_chain " + spec.name, kSetupTrack,
                         [&] { core::inspect_chain(mesh, spec); });
  std::int64_t imports = 0;
  for (const halo::RankPlan& rp : plan.ranks)
    for (const halo::SetLayout& lay : rp.sets)
      imports += lay.total - lay.num_owned;
  layers->add("partition.s", partition_s, "s");
  layers->add("partition.max_neighbors", q.max_neighbors, "count");
  layers->add("partition.imbalance", q.imbalance, "1");
  layers->add("halo.plan_s", halo_s, "s");
  layers->add("halo.import_elems", double(imports), "count");
  layers->add("inspector.s", inspector_s, "s");
  return partition_s + halo_s;
}

// ---------------------------------------------------------------------------

int run(const Options& opt) {
  const std::string name = opt.get_string("workload", "");
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (name == w.name) wl = &w;
  OP2CA_REQUIRE(wl != nullptr, "unknown --workload '" + name +
                                   "' (mgcfd-synth, hydra-rk, mgcfd-threads)");
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const double seconds = opt.get_double("seconds", 10.0);
  const bool trace = opt.get_int("trace", 0) != 0;
  const std::string trace_out = opt.get_string("trace-out", "");
  const std::string chains_cfg =
      opt.get_string("chains-cfg", "e2ebench/hydra_chains.cfg");

  // Run guard: oversubscription would show up as wait time, and only an
  // optimised build measures anything.
  const int nproc = usable_cores();
  OP2CA_REQUIRE(wl->ranks * wl->threads <= nproc,
                std::string(wl->name) + " needs ranks x threads = " +
                    std::to_string(wl->ranks * wl->threads) +
                    " cores but only " + std::to_string(nproc) +
                    " are available to this process");
  OP2CA_REQUIRE(std::string(E2E_BUILD_TYPE) == "Release",
                "e2e_bench must be a Release build, not '" E2E_BUILD_TYPE "'");
#ifndef NDEBUG
  raise("e2e_bench built without NDEBUG: assertions would be timed");
#endif

  Tracer tr;
  tr.on = trace;
  MetricsJson layers;

  Instance in;
  const double build_s = timed(tr, "build_problem", kSetupTrack, [&] {
    in = make_instance(*wl, seed, chains_cfg);
  });
  const mesh::MeshDef& mesh = in.mesh();
  const std::int64_t mbytes = mesh_bytes(mesh);

  core::WorldConfig op2_cfg;
  op2_cfg.nranks = wl->ranks;
  op2_cfg.threads_per_rank = wl->threads;
  op2_cfg.partitioner = wl->partitioner;
  core::WorldConfig ca_cfg = op2_cfg;
  ca_cfg.chains = in.ca_chains;

  WorldRun op2("op2", kOp2Track);
  WorldRun ca("ca", kCaTrack);
  Checks checks;
  double setup_s = 0;
  double speedup = 0;
  double hidden_s = 0;  // partition + halo plan, timed directly
  std::vector<double> ctor_samples, warm_samples, setup_samples;
  try {
    set_up(in, op2_cfg, &op2, tr);
    set_up(in, ca_cfg, &ca, tr);
    // setup_s: the CA world's constructor plus its warm-up. Besides the
    // measured world, kSetupReps - 1 throwaway CA worlds are set up at
    // even intervals through the timed loop, so the median spans the
    // host's slow and fast phases instead of one moment of them.
    const auto record_setup = [&](const WorldRun& wr) {
      ctor_samples.push_back(wr.ctor_s);
      warm_samples.push_back(wr.warmup_s);
      setup_samples.push_back(wr.ctor_s + wr.warmup_s);
    };
    const auto probe_setup = [&] {
      WorldRun probe("ca", kCaTrack);
      set_up(in, ca_cfg, &probe, tr);
      record_setup(probe);
    };
    record_setup(ca);

    // Both worlds must have run the same steps before they are compared.
    while (op2.rms.size() < ca.rms.size()) step(in, op2, tr, "align step");
    while (ca.rms.size() < op2.rms.size()) step(in, ca, tr, "align step");
    op2.world->clear_metrics();
    ca.world->clear_metrics();

    // Timed rounds: one step per world, alternating which goes first.
    // Traced runs alternate pairs of traced and untraced rounds, so the
    // tracing overhead is measured in the same run and order.
    std::vector<double> ratios;
    WallTimer clock;
    for (int round = 0; round < kMinRounds || clock.elapsed() < seconds;
         ++round) {
      const auto taken = static_cast<double>(setup_samples.size());
      if (taken < kSetupReps &&
          clock.elapsed() >= seconds * taken / kSetupReps) {
        tr.on = trace;
        probe_setup();
      }
      tr.on = trace && (round / 2) % 2 == 0;
      WorldRun* first = round % 2 ? &ca : &op2;
      WorldRun* second = round % 2 ? &op2 : &ca;
      const double a = step(in, *first, tr, "step");
      const double b = step(in, *second, tr, "step");
      (tr.on ? first->traced_s : first->timed_s).push_back(a);
      (tr.on ? second->traced_s : second->timed_s).push_back(b);
      ratios.push_back(round % 2 ? b / a : a / b);  // op2 / ca
    }
    tr.on = trace;
    while (static_cast<int>(setup_samples.size()) < kSetupReps) probe_setup();
    setup_s = median(setup_samples);
    speedup = median(ratios);

    std::vector<std::vector<double>> ref, got;
    const double fetch_s = timed(tr, "fetch_dat (all dats, both worlds)",
                                 kSetupTrack, [&] {
      for (int d = 0; d < mesh.num_dats(); ++d) {
        ref.push_back(op2.world->fetch_dat(d));
        got.push_back(ca.world->fetch_dat(d));
      }
    });
    int exact_dat = -1, tolerant_dat = -1;
    for (int d = 0; d < mesh.num_dats(); ++d) {
      const std::string& dn = mesh.dat(d).name;
      const bool tolerant = in.inc_reached.count(dn) > 0;
      (tolerant ? tolerant_dat : exact_dat) = d;
      checks.expect("dat " + dn, compare(ref[d], got[d], tolerant));
    }
    if (in.mg)
      checks.expect("residual RMS history", compare(op2.rms, ca.rms, true));
    checks.expect("self-test",
                  exact_dat < 0 || tolerant_dat < 0
                      ? "workload has no dat of each kind"
                      : self_test(got[exact_dat], got[tolerant_dat]));
    // Set-up must not leak into the timed steps. Staging allocations are
    // reported, not checked: see set_up.
    for (const WorldRun* wr : {&op2, &ca}) {
      const std::int64_t builds = totals(*wr->world).plan_builds;
      checks.expect(std::string(wr->label) + " steady state",
                    builds == 0 ? ""
                                : std::to_string(builds) +
                                      " plan builds in the timed steps");
    }
    if (trace) {
      hidden_s = time_hidden_layers(in, ca_cfg, tr, &layers);
      layers.add("mesh.build_s", build_s, "s");
      layers.add("mesh.bytes", double(mbytes), "B");
      layers.add("world.ctor_s", median(ctor_samples), "s");
      layers.add("world.rank_state_s", median(ctor_samples) - hidden_s, "s");
      layers.add("world.warmup_s", median(warm_samples), "s");
      layers.add("world.warmup_steps", ca.warmup_steps, "count");
      layers.add("fetch.s", fetch_s, "s");
      add_world_layers(&layers, op2, wl->ranks);
      add_world_layers(&layers, ca, wl->ranks);
    }
  } catch (const std::exception& e) {
    // A thrown run fails every check it would have made.
    const int planned = mesh.num_dats() + (in.mg ? 1 : 0) + 3;
    checks.attempted = std::max(checks.attempted, planned);
    checks.failed = checks.attempted;
    checks.failures.push_back(std::string("run threw: ") + e.what());
  }

  const double failed_frac =
      double(checks.failed) / double(std::max(1, checks.attempted));
  if (trace) {
    layers.add("failed_frac", failed_frac, "1");
    if (!trace_out.empty()) tr.write(trace_out);
  }

  // Provenance and layer sanity, one JSON line ahead of the result.
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::cout << "{\"provenance\": {\"workload\": \"" << wl->name
            << "\", \"seed\": " << seed << ", \"nodes\": " << wl->nodes
            << ", \"ranks\": " << wl->ranks << ", \"threads\": "
            << wl->threads << ", \"nproc\": " << nproc
            << ", \"compiler\": \"" << E2E_COMPILER
            << "\", \"build_type\": \"" E2E_BUILD_TYPE "\", \"l3_bytes\": "
            << l3 << ", \"mesh_bytes\": " << mbytes
            << ", \"timed_steps\": "
            << op2.timed_s.size() + op2.traced_s.size()
            << ", \"warmup_steps\": {\"op2\": " << op2.warmup_steps
            << ", \"ca\": " << ca.warmup_steps << "}";
  if (trace)
    std::cout << ", \"ctor_covers_layers\": "
              << (hidden_s <= median(ctor_samples) ? "true" : "false");
  std::cout << "}, \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i)
    std::cout << (i ? ", " : "") << '"' << json_escape(checks.failures[i])
              << '"';
  std::cout << "]}\n";

  MetricsJson e2e;
  e2e.add("op2_step_s", median(op2.timed_s), "s");
  e2e.add("ca_step_s", median(ca.timed_s), "s");
  e2e.add("ca_speedup", speedup, "x");
  e2e.add("setup_s", setup_s, "s");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::cout << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed << ", \"metrics\": "
            << (trace ? layers.str() : e2e.str()) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt(argc, argv, {"workload", "seed", "seconds", "trace",
                                   "trace-out", "chains-cfg"});
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << '\n';
    return 2;
  }
}
