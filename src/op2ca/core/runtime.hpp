// The op2ca runtime: an OP2-style API over the simulated distributed
// machine, with both the classic per-loop halo-exchange executor (Alg 1)
// and the communication-avoiding loop-chain executor (Alg 2).
//
// Usage mirrors OP2: a global mesh (sets/maps/dats) is declared once in a
// MeshDef; a World partitions it over N simulated ranks, builds the
// multi-layer halo plan, and runs an SPMD function on one thread per
// rank. Inside the SPMD function, `par_loop` executes kernels over sets
// with access descriptors; `chain_begin`/`chain_end` bracket a loop-chain
// that the CA back-end captures, inspects and executes per Alg 2 when the
// chain is enabled in the ChainConfig.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "op2ca/comm/comm.hpp"
#include "op2ca/core/access.hpp"
#include "op2ca/core/chain.hpp"
#include "op2ca/core/chain_config.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/mesh/mesh_def.hpp"
#include "op2ca/partition/partition.hpp"

namespace op2ca::core {

/// Opaque handles into the World's mesh.
struct Set {
  mesh::set_id id = -1;
};
struct Map {
  mesh::map_id id = -1;
};
struct Dat {
  mesh::dat_id id = -1;
};

/// A par_loop argument descriptor (OP2's op_arg_dat / op_arg_gbl), which
/// make_loop_spec translates into a LoopSpec entry and a Runtime resolves
/// into a ResolvedArg. par_loop itself takes the KindArg that arg_dat /
/// arg_gbl return.
struct Arg {
  enum class Kind { DatDirect, DatIndirect, Gbl };
  Kind kind = Kind::DatDirect;
  mesh::dat_id dat = -1;
  int map_idx = 0;         ///< which map target column (indirect only).
  mesh::map_id map = -1;   ///< indirect only.
  Access mode = Access::READ;
  double* gbl = nullptr;   ///< Gbl only; READ or INC (sum-reduced).
  int gbl_dim = 0;
  bool self_combine = false;  ///< see ArgSpec::self_combine.
};

/// An Arg whose kind is also part of its type, so par_loop can build
/// region bodies that address each argument the one way its kind needs
/// (see detail::make_loop_bodies). The arg_dat / arg_gbl builders are
/// the only way par_loop accepts arguments.
template <Arg::Kind K>
struct KindArg : Arg {
  static constexpr Arg::Kind kKind = K;
  KindArg() { kind = K; }
};

/// What par_loop accepts as an argument: a descriptor from arg_dat /
/// arg_gbl. A plain Arg does not qualify, because its kind is only known
/// at run time.
template <typename T>
concept LoopArg = std::same_as<T, KindArg<T::kKind>>;

/// Direct access: the dat element of the current iteration.
KindArg<Arg::Kind::DatDirect> arg_dat(Dat d, Access mode);
/// Indirect access through map column `idx`. `self_combine` (RW only)
/// declares that the kernel reads this dat solely at the element it
/// writes — see ArgSpec::self_combine.
KindArg<Arg::Kind::DatIndirect> arg_dat(Dat d, int idx, Map m, Access mode,
                                        bool self_combine = false);
/// Global argument: READ passes a constant, INC sum-reduces across ranks.
KindArg<Arg::Kind::Gbl> arg_gbl(double* value, int dim, Access mode);

/// Translates one par_loop's arguments into its LoopSpec over `mesh` and
/// validates them: the set exists, a direct dat lives on it, a map starts
/// at it and lands on its dat's set at a column within its arity, and a
/// global INC neither writes through a map (owner-compute would
/// double-count) nor sits inside a chain bracket (`in_chain`): a
/// reduction is a synchronisation point. Runtime::par_loop and
/// SpecRecorder::par_loop both build their specs here.
LoopSpec make_loop_spec(const mesh::MeshDef& mesh, const std::string& name,
                        Set s, const std::vector<Arg>& args, bool in_chain);

/// Set / Map / Dat handles by name over a mesh, as a Runtime and a
/// SpecRecorder hand them to an application. An unknown name raises.
class MeshHandles {
public:
  /// The mesh's topology and dat declarations. A Runtime's mesh is its
  /// World's, which holds no dat values: they live in the ranks
  /// (Runtime::dat_data, World::fetch_dat).
  const mesh::MeshDef& mesh() const { return *mesh_; }

  Set set(const std::string& name) const;
  Map map(const std::string& name) const;
  Dat dat(const std::string& name) const;
  Set set(mesh::set_id id) const { return Set{id}; }
  Dat dat(mesh::dat_id id) const { return Dat{id}; }

protected:
  explicit MeshHandles(const mesh::MeshDef& mesh) : mesh_(&mesh) {}

private:
  const mesh::MeshDef* mesh_;
};

/// Per-loop / per-chain measurements, merged across ranks by the World.
/// for_each_field lists every field once: merge_from, the metrics CSV and
/// the tests walk that list, and the SPMD wire copies the flat struct.
struct LoopMetrics {
  /// How a field folds across ranks and calls: per-rank work sums; a
  /// value every rank shares (calls, tile) or a largest-seen one is a max.
  enum class Merge { Sum, Max };

  std::int64_t calls = 0;
  std::int64_t core_iters = 0;   ///< iterations overlapped with comms.
  std::int64_t halo_iters = 0;   ///< owned-boundary + exec-halo iterations.
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
  std::int64_t max_msg_bytes = 0;    ///< largest single message (max rank).
  std::int64_t max_rank_bytes = 0;   ///< most bytes sent by one rank/call.
  std::int64_t max_neighbors = 0;
  double wall_seconds = 0;           ///< summed across ranks.
  // Phase breakdown (wall, summed across ranks): staging the outgoing
  // halo data, computing cores while messages fly, waiting, unpacking
  // received payloads, and the post-wait boundary/halo compute.
  double pack_seconds = 0;
  double core_seconds = 0;
  double wait_seconds = 0;
  double unpack_seconds = 0;
  double halo_seconds = 0;
  // Hot-path observability: region-body invocations (batched dispatch
  // amortises one type-erased call over many elements), epoch-window and
  // exchange-plan (re)builds, and staging-buffer allocations. In steady
  // state the last two stay at zero — asserted by the plan-reuse tests.
  std::int64_t dispatch_regions = 0;
  std::int64_t plan_builds = 0;
  std::int64_t staging_allocs = 0;
  // Intra-rank threading (threads_per_rank > 1): chunks submitted to the
  // worker pool, the colour count of the widest colour-ordered sweep
  // (max over ranks/calls; 0 = no sweep needed), and the summed
  // per-thread busy time inside pool regions.
  std::int64_t chunks = 0;
  std::int64_t max_colours = 0;
  double busy_seconds = 0;
  // Total halo elements exchanged, so bytes / halo_elems gives the wire
  // bytes moved per exchanged element for EXPERIMENTS.md correlations.
  std::int64_t halo_elems = 0;
  // Temporal tiling (ChainConfig tile=): the largest tile size any epoch
  // of this chain ran at (1 = untiled; 0 for plain loops), the
  // import-exec halo iterations CA epochs executed redundantly
  // (owner-compute recomputation — fused tiles reach deeper, so the
  // tile=1 vs tile=k delta is the redundancy the fusion buys its message
  // savings with), and the messages fusion avoided posting (the tile-1
  // exchange epochs each fused epoch skipped).
  std::int64_t tile = 0;
  std::int64_t redundant_elems = 0;
  std::int64_t msgs_saved = 0;

  /// Calls f(name, &LoopMetrics::field, merge) once per field, in
  /// declaration order. The name is the field's, and its CSV column's.
  template <typename F>
  static constexpr void for_each_field(F&& f) {
    using M = LoopMetrics;
    constexpr Merge kSum = Merge::Sum, kMax = Merge::Max;
    f("calls", &M::calls, kMax);
    f("core_iters", &M::core_iters, kSum);
    f("halo_iters", &M::halo_iters, kSum);
    f("msgs", &M::msgs, kSum);
    f("bytes", &M::bytes, kSum);
    f("max_msg_bytes", &M::max_msg_bytes, kMax);
    f("max_rank_bytes", &M::max_rank_bytes, kMax);
    f("max_neighbors", &M::max_neighbors, kMax);
    f("wall_seconds", &M::wall_seconds, kSum);
    f("pack_seconds", &M::pack_seconds, kSum);
    f("core_seconds", &M::core_seconds, kSum);
    f("wait_seconds", &M::wait_seconds, kSum);
    f("unpack_seconds", &M::unpack_seconds, kSum);
    f("halo_seconds", &M::halo_seconds, kSum);
    f("dispatch_regions", &M::dispatch_regions, kSum);
    f("plan_builds", &M::plan_builds, kSum);
    f("staging_allocs", &M::staging_allocs, kSum);
    f("chunks", &M::chunks, kSum);
    f("max_colours", &M::max_colours, kMax);
    f("busy_seconds", &M::busy_seconds, kSum);
    f("halo_elems", &M::halo_elems, kSum);
    f("tile", &M::tile, kMax);
    f("redundant_elems", &M::redundant_elems, kSum);
    f("msgs_saved", &M::msgs_saved, kSum);
  }

  static constexpr std::size_t num_fields() {
    std::size_t n = 0;
    for_each_field([&n](const char*, auto, Merge) { ++n; });
    return n;
  }

  /// Folds `other` in, field by field, by each field's Merge rule.
  void merge_from(const LoopMetrics& other);
};

// Every field is 8 bytes wide, so a field missing from for_each_field
// fails here.
static_assert(sizeof(LoopMetrics) == 8 * LoopMetrics::num_fields(),
              "every LoopMetrics field must be an 8-byte for_each_field entry");

class World;

namespace detail {
struct RankState;

/// One loop argument, resolved once when the loop is recorded. A dat
/// arg's rows are `row` doubles from `base`: row i for a direct arg, row
/// col[i * arity] for an indirect one, whose `col` is its map's target
/// array already offset by the map index. A gbl arg is `base` itself.
struct ResolvedArg {
  double* base = nullptr;
  const lidx_t* col = nullptr;  ///< null for direct / gbl.
  std::size_t arity = 1;
  std::size_t row = 1;
  bool is_gbl = false;
};

/// A fully-resolved loop ready to execute (or be captured by a chain).
/// The kernel is reachable only through region bodies: one type-erased
/// call covers a whole index range (contiguous fast path) or a gathered
/// index list, so per-element dispatch cost is amortised away and arg
/// resolution is hoisted into the generated batch loop.
struct LoopRecord {
  LoopSpec spec;                    ///< name, set and access descriptors.
  std::vector<ResolvedArg> rargs;   ///< spec.args-parallel.
  std::function<void(lidx_t, lidx_t)> range_body;  ///< [begin, end).
  std::function<void(const lidx_t*, std::size_t)> list_body;
};

[[noreturn]] void raise_out_of_region(const char* loop_name);

/// Resolves one argument at iteration `i` from its run-time fields: the
/// arg's kind is read from `is_gbl` / `col` on every call. The stored
/// region bodies never test kinds per element — par_loop fixes them at
/// compile time (make_loop_bodies) — but they must hand kernels exactly
/// the rows this computes, so it is the reference the dispatch tests
/// compare against.
inline double* resolve_arg(const ResolvedArg& a, lidx_t i, bool validate,
                           const char* loop_name = "") {
  if (a.is_gbl) return a.base;
  lidx_t t = i;
  if (a.col != nullptr) {
    t = a.col[static_cast<std::size_t>(i) * a.arity];
    if (validate && t == kInvalidLocal) raise_out_of_region(loop_name);
  }
  return a.base + static_cast<std::size_t>(t) * a.row;
}

/// Iteration `i`'s row of an arg whose kind `Kd` is fixed at compile
/// time: a gbl arg's base, a direct arg's row `i`, an indirect arg's row
/// at the map target of `i` — the address resolve_arg computes.
template <Arg::Kind Kd>
double* kind_row(const ResolvedArg& a, lidx_t i, bool validate,
                 const char* loop_name) {
  if constexpr (Kd == Arg::Kind::Gbl) {
    return a.base;
  } else if constexpr (Kd == Arg::Kind::DatDirect) {
    return a.base + static_cast<std::size_t>(i) * a.row;
  } else {
    const lidx_t t = a.col[static_cast<std::size_t>(i) * a.arity];
    if (validate && t == kInvalidLocal) raise_out_of_region(loop_name);
    return a.base + static_cast<std::size_t>(t) * a.row;
  }
}

/// Batched dispatch over a contiguous iteration range: argument state is
/// copied into locals once per region, then the kernel runs the whole
/// range inside one type-erased call, receiving one `double*` row per
/// argument at exactly the addresses resolve_arg computes.
template <Arg::Kind... Kinds, typename K, std::size_t... I>
void invoke_kernel_range(const K& k, const std::vector<ResolvedArg>& rargs,
                         lidx_t begin, lidx_t end, bool validate,
                         const char* name, std::index_sequence<I...>) {
  const ResolvedArg a[sizeof...(I)] = {rargs[I]...};
  for (lidx_t i = begin; i < end; ++i)
    k(kind_row<Kinds>(a[I], i, validate, name)...);
}

/// Batched dispatch over a gathered index list (exec-halo iterations).
template <Arg::Kind... Kinds, typename K, std::size_t... I>
void invoke_kernel_list(const K& k, const std::vector<ResolvedArg>& rargs,
                        const lidx_t* idx, std::size_t n, bool validate,
                        const char* name, std::index_sequence<I...>) {
  const ResolvedArg a[sizeof...(I)] = {rargs[I]...};
  for (std::size_t j = 0; j < n; ++j) {
    const lidx_t i = idx[j];
    k(kind_row<Kinds>(a[I], i, validate, name)...);
  }
}

/// The two region bodies of a loop record.
struct LoopBodies {
  std::function<void(lidx_t, lidx_t)> range;
  std::function<void(const lidx_t*, std::size_t)> list;
};

/// Builds a loop's region bodies. `Kinds` are the args' kinds in order,
/// taken from their KindArg types by par_loop, so each arg's addressing
/// is fixed per instantiation.
template <Arg::Kind... Kinds, typename K>
LoopBodies make_loop_bodies(K kf, std::vector<ResolvedArg> ra, bool validate,
                            std::string name) {
  using Seq = std::make_index_sequence<sizeof...(Kinds)>;
  return {[kf, ra, validate, name](lidx_t begin, lidx_t end) {
            invoke_kernel_range<Kinds...>(kf, ra, begin, end, validate,
                                          name.c_str(), Seq{});
          },
          [kf, ra, validate, name](const lidx_t* idx, std::size_t n) {
            invoke_kernel_list<Kinds...>(kf, ra, idx, n, validate,
                                         name.c_str(), Seq{});
          }};
}

/// The SPMD cross-process metrics wire: [u32 name length | name | raw
/// LoopMetrics] per map entry. Every process runs the same binary, so the
/// raw layout matches by construction.
ByteBuf serialize_metrics(const std::map<std::string, LoopMetrics>& m);
/// Merges every entry of a serialize_metrics blob into `*into`.
void merge_serialized_metrics(const ByteBuf& blob,
                              std::map<std::string, LoopMetrics>* into);
}  // namespace detail

/// One rank's view of the World inside the SPMD function.
class Runtime : public MeshHandles {
public:
  rank_t rank() const;
  int nranks() const;

  /// Local (renumbered) data array of a dat on this rank: 64-byte
  /// aligned `dim`-double rows in halo-plan element order. Intended for
  /// initialization and inspection in tests.
  double* dat_data(Dat d);
  const halo::SetLayout& layout(Set s) const;

  /// Executes (or captures, inside a chain) one parallel loop.
  template <typename Kernel, typename... Args>
  void par_loop(const std::string& name, Set s, Kernel&& kernel,
                Args... args) {
    static_assert(sizeof...(Args) > 0, "par_loop needs at least one arg");
    static_assert((LoopArg<Args> && ...),
                  "par_loop arguments must be built with arg_dat / arg_gbl");
    detail::LoopRecord rec = make_record(name, s, {args...});
    detail::LoopBodies bodies = detail::make_loop_bodies<Args::kKind...>(
        std::forward<Kernel>(kernel), rec.rargs, validation_enabled(), name);
    rec.range_body = std::move(bodies.range);
    rec.list_body = std::move(bodies.list);
    submit(std::move(rec));
  }

  /// Brackets a loop-chain. If the chain is enabled in the World's
  /// ChainConfig, loops between begin/end are captured and executed with
  /// the CA back-end (Alg 2); otherwise they run as standard OP2 loops.
  /// chain_begin first runs deferred work that the bracket cannot join:
  /// queued lazy loops and another chain's partial tile. A bracket holds
  /// no synchronisation point: dat_data, barrier, flush and the end of
  /// World::run raise inside one.
  void chain_begin(const std::string& name);
  void chain_end();

  void barrier();

  /// Runs deferred work now: queued lazy loops and a partially filled
  /// temporal tile, which fuses under "<chain>#tile<n>" when it holds
  /// n >= 2 invocations. No-op when nothing is queued.
  void flush();

private:
  friend class World;
  Runtime(World* world, detail::RankState* state);

  detail::LoopRecord make_record(const std::string& name, Set s,
                                 const std::vector<Arg>& args);
  void submit(detail::LoopRecord rec);
  bool validation_enabled() const;

  World* world_;
  detail::RankState* state_;
};

struct WorldConfig {
  int nranks = 4;
  /// Partitions set 0 directly; the other sets derive through maps.
  partition::Kind partitioner = partition::Kind::KWay;
  int halo_depth = 2;
  /// Transport backend: the in-process sim fabric (default) or MPI.
  sim::TransportConfig transport{};
  /// Per-iteration checks that every touched element is locally present.
  bool validate = false;
  /// Debug/equivalence knob: invoke the region bodies one element at a
  /// time, reproducing the per-element dispatch order of the classic
  /// executor exactly. Iteration order is identical either way (regions
  /// run their elements in sequence), so results must match bitwise —
  /// asserted by the executor-equivalence tests.
  bool serial_dispatch = false;
  /// Intra-rank shared-memory parallelism: each rank runs its regions on
  /// a worker pool of this width. 1 (default) keeps the single-threaded
  /// dispatch. With > 1, every loop runs colour-ordered sweeps of
  /// 256-element blocks of the local numbering (core/dispatch,
  /// mesh/colouring); results are deterministic for any width > 1 (no
  /// two blocks of a colour touch the same written element) but
  /// reassociate increment sums relative to width 1. Blocks assume a
  /// numbering with locality: renumber scrambled input with
  /// mesh::renumber before the World. Ignored when serial_dispatch is
  /// set. Loops reducing into globals execute serially regardless.
  int threads_per_rank = 1;
  ChainConfig chains{};
  /// Lazy evaluation (the paper's future-work automation): loose
  /// par_loops are queued instead of executed, and run as automatically
  /// formed CA chains at the next flush: chain_begin, a loose loop
  /// reducing into a global, barrier, dat_data, flush, or the end of
  /// run. Windows that the inspector rejects or that need more halo depth
  /// than available run as per-loop OP2. Caveat: deferred loops hold
  /// pointers to arg_gbl READ buffers, which must stay alive, and are
  /// read, at that flush. Temporal tiling is set per chain (ChainConfig
  /// tile=<k>).
  bool lazy = false;
};

/// The simulated distributed machine: owns the mesh topology, halo plan
/// and per-rank state, and runs SPMD functions over rank threads. Dat
/// values live in the ranks only: the constructor gathers each rank's
/// rows and frees the global arrays.
class World {
public:
  World(mesh::MeshDef mesh, WorldConfig cfg);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs `spmd` once on every rank (one thread per rank). May be called
  /// repeatedly; dat values persist between runs. Exceptions thrown by
  /// any rank are collected and rethrown on the calling thread.
  ///
  /// Process-per-rank SPMD mode: when the transport is the real MPI
  /// backend (launched under mpirun with -DOP2CA_MPI=ON), each MPI
  /// process drives exactly one rank — run executes only the local
  /// rank's SPMD function inline on the calling thread (no rank
  /// threads), and fetch_dat / loop_metrics / chain_metrics /
  /// write_metrics_csv become collective calls that reduce over the
  /// backend so every process sees the same merged result the threaded
  /// World reports. nranks must equal MPI_COMM_WORLD's size (the
  /// MpiBackend constructor errors loudly otherwise).
  void run(const std::function<void(Runtime&)>& spmd);

  /// The one rank this process drives in process-per-rank SPMD mode;
  /// -1 when every rank is in-process (sim fabric, mpi-stub).
  rank_t spmd_rank() const { return spmd_rank_; }

  /// Gathers the owned values of a dat into global element order.
  std::vector<double> fetch_dat(mesh::dat_id d) const;
  /// Overwrites a dat's values everywhere (owned + halo copies refreshed).
  void reset_dat(mesh::dat_id d, const std::vector<double>& global_data);

  /// The mesh the World was built from: its sets, maps and dat
  /// declarations (name, set, dim), but no dat values — every DatDef::data
  /// is empty. Read values with fetch_dat.
  const mesh::MeshDef& mesh() const { return mesh_; }
  const WorldConfig& config() const { return cfg_; }
  const halo::HaloPlan& plan() const { return plan_; }

  /// The transport backend every exchange flows over. For benches and
  /// fault-injection tests (e.g. sim::Transport::set_post_delay wire
  /// latency injection); application code reaches the transport through
  /// each rank's Comm.
  sim::TransportBackend& transport() { return *transport_; }

  /// Metrics merged over ranks, keyed by loop / chain name. These, the
  /// CSV writer and clear_metrics read or reset every rank's maps while
  /// rank threads write them, so calling any of them from inside `run`
  /// raises an Error naming the call.
  std::map<std::string, LoopMetrics> loop_metrics() const;
  std::map<std::string, LoopMetrics> chain_metrics() const;
  void clear_metrics();
  /// Writes every loop and chain metric as CSV (one row per name).
  void write_metrics_csv(std::ostream& os) const;

private:
  friend class Runtime;
  friend struct detail::RankState;

  /// The Comm of the rank this process drives (SPMD mode) — the endpoint
  /// the cross-process reductions in fetch_dat / metrics run over.
  sim::Comm& spmd_comm() const;
  /// Merges this process's local metric maps, then (SPMD mode) the
  /// serialized maps of every peer process, in rank order. `call` names
  /// the public entry point in the error raised inside `run`.
  std::map<std::string, LoopMetrics> merged_metrics(
      bool chains, const char* call) const;
  /// Raises unless no `run` is in progress.
  void require_idle(const char* call) const;

  mesh::MeshDef mesh_;
  WorldConfig cfg_;
  halo::HaloPlan plan_;
  std::unique_ptr<sim::TransportBackend> transport_;
  /// One state per rank in-process; in SPMD mode only ranks_[spmd_rank_]
  /// is non-null (this process owns exactly one rank's data).
  std::vector<std::unique_ptr<detail::RankState>> ranks_;
  rank_t spmd_rank_ = -1;
  /// Set for the duration of `run` (cleared on every exit path).
  std::atomic<bool> running_{false};
};

}  // namespace op2ca::core
