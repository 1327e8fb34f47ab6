// Internal runtime structures shared by the executors. Not part of the
// public API.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "op2ca/core/runtime.hpp"
#include "op2ca/gpu/device_space.hpp"
#include "op2ca/gpu/hierarchy.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/mesh/colouring.hpp"
#include "op2ca/mesh/reorder.hpp"
#include "op2ca/util/buffer_pool.hpp"
#include "op2ca/util/thread_pool.hpp"

namespace op2ca::core::detail {

/// Reserved message tags (user collectives use negative tags; these are
/// distinct positive ranges).
inline constexpr sim::tag_t kChainTag = 512;
inline constexpr sim::tag_t kLoopTagBase = 1024;  // + dat*2 + class.

/// Staging spares a cached exchange reserves per send when it is built
/// (BufferPool::reserve_spares). A send buffer comes back only when its
/// receiver has unpacked it (RankState::recycle_payload), and the sender
/// may pack its next exchanges with that peer before then: the peer's
/// unpack is ordered before its next post, so at most two exchanges'
/// sends per peer are outstanding. Two spare sets keep every pack
/// served from the pool, whichever rank runs ahead.
inline constexpr std::size_t kSparesPerSend = 2;

/// One dat's per-rank storage.
struct RankDat {
  int dim = 0;
  /// Storage descriptor: element order is always the halo-plan order
  /// (owned | exec | nonexec); `layout` says how those elements are
  /// arranged inside `data` (AoS rows by default, SoA planes / AoSoA
  /// blocks when WorldConfig::layout selects them).
  mesh::DatLayout layout;
  /// 64-byte-aligned backing store, layout.alloc_doubles() long.
  util::AlignedDVec data;
  /// Halo layers currently in sync with the owners; 0 = level-1 halo
  /// stale. This generalizes the paper's dirty bit to multi-layer halos.
  int fresh_depth = 0;
};

/// Cached level-1 exchange of one dat for the classic per-loop executor:
/// the (neighbour, class) walk over the export/import list maps flattened
/// into plain segment arrays, so steady-state loops post their messages
/// with no map lookups. Index lists point into the rank's HaloPlan
/// (stable for the World's lifetime).
struct LoopExchange {
  struct Segment {
    rank_t q = -1;
    sim::tag_t tag = 0;
    const LIdxVec* idx = nullptr;  ///< level-1 rows (exec or nonexec).
    std::size_t bytes = 0;
  };
  std::vector<Segment> sends;
  std::vector<Segment> recvs;
  std::vector<ByteBuf> recv_bufs;  ///< slots, recvs-parallel.
  /// Persistent channels (WorldConfig::transport.persistent): negotiated
  /// once when the exchange is built, parallel to sends/recvs. Empty
  /// when persistence is off.
  std::vector<sim::Channel> send_channels;
  std::vector<sim::Channel> recv_channels;
};

/// One persistent grouped exchange of a chain for a fixed set of stale
/// dats: sync specs (data pointers rebound each epoch), the flattened
/// GroupedPlan, and reusable receive slots. Built once per (chain,
/// stale-mask); steady-state epochs touch no maps and allocate nothing.
struct ChainExchange {
  std::vector<mesh::dat_id> dats;          ///< specs-parallel.
  std::vector<halo::DatSyncSpec> specs;
  halo::GroupedPlan plan;
  std::vector<ByteBuf> recv_bufs;  ///< sides-parallel.
  std::vector<sim::Request> requests;             ///< reused capacity.
  /// Persistent channels (WorldConfig::transport.persistent), negotiated
  /// once per (chain, stale-mask) exchange and keyed by the same
  /// structural hash that invalidates the plan. Sides-parallel; empty
  /// when persistence is off.
  std::vector<sim::Channel> send_channels;
  std::vector<sim::Channel> recv_channels;
};

/// Everything the CA executor caches per chain name. `structure` is a
/// hash of the loops' (set, args) shape: a name reused with different
/// loops rebuilds the plan instead of executing a stale analysis.
struct ChainPlan {
  std::uint64_t structure = 0;
  ChainAnalysis analysis;
  bool exec_lists_built = false;
  std::vector<LIdxVec> exec_lists;  ///< per-loop sparse-tiling slice.
  std::map<std::uint64_t, ChainExchange> exchanges;  ///< by stale mask.
};

/// A staging task folded into a loop's task-graph epoch (taskgraph
/// mode): `body` gathers halo rows into a send buffer and posts the
/// isend from whichever worker runs it. `reads` lists the rows the pack
/// reads per dat — the blocks that WRITE any of those rows depend on the
/// pack (it must observe pre-loop values), while every other block runs
/// concurrently with it, which is how packing overlaps core compute.
struct PackTask {
  struct Read {
    mesh::dat_id dat = -1;
    const LIdxVec* rows = nullptr;  ///< target-set row ids.
  };
  std::function<void()> body;
  std::vector<Read> reads;
};

/// The cached dependency structure of one (set, conflict maps) pair in
/// taskgraph mode, living next to the colouring it derives from: the
/// block-conflict adjacency (mesh::block_conflict_graph), lazily-built
/// per-view writer incidence (target row -> writing blocks, walked to
/// wire pack tasks ahead of the blocks that overwrite their rows), and
/// per-(begin, end) compiled subgraphs — dense task ids, successor CSR
/// oriented low colour -> high colour, and in-range indegrees — so
/// steady-state epochs reuse arrays without touching the adjacency.
struct LoopGraph {
  std::vector<mesh::map_id> maps;  ///< conflict maps (view order).
  mesh::BlockGraph graph;
  /// writer_off[v]/writer_blk[v]: CSR of view v's targets -> blocks that
  /// contain an element mapping onto the target. Empty until a pack of a
  /// dat written through view v first needs it.
  std::vector<std::vector<std::int32_t>> writer_off;
  std::vector<std::vector<std::int32_t>> writer_blk;
  struct Compiled {
    lidx_t first_block = 0;
    std::int32_t num_tasks = 0;
    std::vector<std::int32_t> succ_off, succ, indeg;
  };
  std::map<std::pair<lidx_t, lidx_t>, Compiled> ranges;
};

struct RankState {
  World* world = nullptr;
  rank_t rank = -1;
  sim::Comm comm;
  std::vector<RankDat> dats;
  bool serial_dispatch = false;  ///< copy of WorldConfig::serial_dispatch.

  // Chain capture.
  bool capturing = false;
  std::string chain_name;
  std::vector<LoopRecord> chain_loops;

  // Lazy-evaluation queue (WorldConfig::lazy): loops deferred until the
  // next synchronisation point, then flushed as an auto-formed chain.
  std::vector<LoopRecord> lazy_queue;
  int lazy_flushes = 0;

  // Temporal tile accumulator (WorldConfig::tile / ChainConfig tile=):
  // completed chain invocations awaiting fusion — one inner vector per
  // invocation, all of the chain named `tile_chain`, flushed as a single
  // fused epoch when `tile_target` invocations have accumulated or any
  // synchronisation point intervenes. `tile_fallbacks` names the
  // (chain, tile) combinations already warned about, so the loud
  // per-invocation fallback logs once, not every timestep.
  std::vector<std::vector<LoopRecord>> tile_queue;
  std::string tile_chain;
  int tile_target = 1;
  std::set<std::string> tile_fallbacks;

  // Inspector-built plans, cached by chain name (CA executor) and by dat
  // (per-loop executor), plus the staging-buffer pool shared by both.
  std::map<std::string, ChainPlan> chain_plans;
  std::vector<std::unique_ptr<LoopExchange>> loop_exchanges;  ///< per dat.
  BufferPool staging;
  std::vector<sim::Request> loop_requests;  ///< per-loop scratch, reused.
  std::int64_t dispatch_regions = 0;  ///< running region-body call count.

  // Intra-rank threading (WorldConfig::threads_per_rank > 1): the worker
  // pool, the colouring cache — one greedy colouring per (set, conflict
  // maps) combination, living next to the exchange plans — and the
  // per-colour gather scratch reused by threaded run_list calls.
  std::unique_ptr<util::ThreadPool> pool;
  std::map<std::pair<mesh::set_id, std::vector<mesh::map_id>>,
           mesh::Colouring>
      colourings;
  std::vector<LIdxVec> colour_scratch;
  std::int64_t dispatch_chunks = 0;   ///< running pool-chunk count.
  int dispatch_max_colours = 0;       ///< reset per loop by the executors.

  // Task-graph dispatch (WorldConfig::taskgraph): dependency-driven block
  // sweeps replace the per-colour barriers. One LoopGraph per (set,
  // conflict maps), cached next to the colouring it derives from, plus
  // running counters the executors snapshot into LoopMetrics.
  bool taskgraph = false;
  std::map<std::pair<mesh::set_id, std::vector<mesh::map_id>>, LoopGraph>
      loop_graphs;
  std::int64_t dispatch_tasks = 0;   ///< graph task bodies executed.
  std::int64_t dispatch_steals = 0;  ///< cross-deque steals.
  double dispatch_dep_wait = 0;      ///< dependency-starved idle seconds.
  /// Conflict-block granularity for colour-ordered sweeps: > 1 switches
  /// loop_colouring to mesh::block_colouring and run-aware dispatch
  /// (contiguous runs execute through range bodies). 1 when the locality
  /// layer is off — the legacy per-element path, bitwise-identical to
  /// earlier builds.
  lidx_t colour_block = 1;

  // Device-resident execution (WorldConfig::device): the rank's mirror
  // space (null when the device is off) and the hierarchical two-level
  // schedule cache — one HierColouring per (set, conflict maps), the
  // device analogue of `colourings`.
  std::unique_ptr<gpu::DeviceSpace> device;
  std::map<std::pair<mesh::set_id, std::vector<mesh::map_id>>,
           gpu::HierColouring>
      hier_colourings;

  /// Ordering-quality proxies per loop name (mesh::ordering_quality of
  /// the loop's widest indirection, computed once — it is O(iterations)
  /// and belongs to inspection, not the hot path).
  std::map<std::string, mesh::OrderingQuality> loop_qualities;

  // Per-rank metrics, merged by the World after each run.
  std::map<std::string, LoopMetrics> loop_metrics;
  std::map<std::string, LoopMetrics> chain_metrics;

  RankState(World* w, sim::TransportBackend& transport, rank_t r);

  const halo::RankPlan& rank_plan() const;
  const halo::SetLayout& layout(mesh::set_id s) const;
  RankDat& rank_dat(mesh::dat_id d);

  /// Re-gathers a dat's local copy from a global array (owned + halos).
  void refresh_dat_from_global(mesh::dat_id d,
                               const std::vector<double>& global_data);

  /// Hands a consumed receive payload from rank `src` back to the
  /// staging pool of `src` — the pool that sized it — so ranks that send
  /// more than they receive stop allocating every epoch. In SPMD mode the
  /// payload came off the wire and stays in this rank's pool.
  void recycle_payload(rank_t src, ByteBuf buf);
};

/// Executes one loop with the classic OP2 executor (Alg 1). Returns the
/// metrics of this single execution (also accumulated into
/// st.loop_metrics under the loop's name).
LoopMetrics execute_loop_op2(RankState& st, const LoopRecord& rec);

/// Executes a captured chain with the CA executor (Alg 2).
void execute_chain_ca(RankState& st, const std::string& name,
                      std::vector<LoopRecord>& loops);

/// Executes a temporally-fused tile of `tile` chain invocations (their
/// loops concatenated in `loops`) as one CA epoch. `plan_key` keys the
/// ChainPlan / exchange / channel caches (distinct per tile geometry, so
/// a partial flush at a sync point gets its own cached plan and
/// persistent channels renegotiate only when the geometry changes);
/// metrics land under `name` with LoopMetrics::tile = `tile`.
void execute_chain_ca_tiled(RankState& st, const std::string& name,
                            const std::string& plan_key,
                            std::vector<LoopRecord>& loops, int tile);

/// Flushes the tile accumulator: a full or partial tile of >= 2 queued
/// invocations executes fused when the unrolled window is feasible
/// (inspector accepts it, required depth within the halo plan and the
/// chain's depth cap) — otherwise, and for a single queued invocation,
/// each invocation executes with the per-invocation CA path. Infeasible
/// (chain, tile) combinations warn once.
void flush_tiles(RankState& st);

/// Flushes every deferred-execution queue in program order: accumulated
/// chain tiles first (they always predate lazy entries — chain_begin
/// drains the lazy queue before capturing), then the lazy queue.
void flush_deferred(RankState& st);

/// Flushes the lazy queue: >= 2 queued loops become an automatically
/// formed chain executed with CA when the inspector accepts it and the
/// halo plan is deep enough; otherwise (or for a single loop) the queue
/// executes as plain OP2 loops. Chain names are "lazy:<signature>" so
/// repeated program phases reuse cached analyses.
void flush_lazy(RankState& st);

/// Order-insensitive-to-nothing structural hash of a window of loops:
/// covers names, sets and every access descriptor. Keys the analysis
/// caches and the lazy-chain signatures.
std::uint64_t chain_structural_hash(const LoopRecord* loops, std::size_t n);

/// Shared: runs the loop body over the local index range [begin, end).
/// Paths, in precedence order: element-at-a-time (serial_dispatch), the
/// single-region fast path (no pool — bitwise-identical to previous
/// behaviour), contiguous chunks over the pool (no indirect writes), or
/// a colour-ordered parallel sweep (indirect writes; see core/dispatch).
/// Counts region-body invocations in st.dispatch_regions and pool chunks
/// in st.dispatch_chunks.
std::int64_t run_range(RankState& st, const LoopRecord& rec, lidx_t begin,
                       lidx_t end);

/// Shared: runs the loop body over a gathered index list (same paths).
std::int64_t run_list(RankState& st, const LoopRecord& rec,
                      const LIdxVec& idx);

/// Taskgraph-mode run_range with staging folded in: executes [begin, end)
/// as one dependency-graph epoch over the loop's conflict blocks and runs
/// `packs` as extra graph tasks. Each pack is a root; the blocks that
/// write any row a pack reads depend on it (packs observe pre-loop
/// values), so packing overlaps the bulk of core compute instead of
/// serialising ahead of it. Falls back to running the packs first and
/// then the legacy path when the loop cannot use the graph (direct loop,
/// serial_dispatch, global INC, taskgraph off). Returns region-body
/// invocations, like run_range.
std::int64_t run_range_tasks(RankState& st, const LoopRecord& rec,
                             lidx_t begin, lidx_t end,
                             std::span<PackTask> packs);

/// The rank's cached dependency graph for `rec`'s conflict structure
/// (taskgraph mode): the block-conflict DAG over loop_colouring's blocks.
/// Built on first use, cached in RankState::loop_graphs next to the
/// colouring. Exposed for the schedule-stress tests.
LoopGraph& loop_graph(RankState& st, const LoopRecord& rec);

/// The rank's cached colouring for `rec`'s conflict structure (the maps
/// through which the loop writes indirectly, plus an identity view when
/// a written dat is also accessed directly). Built on first use, cached
/// in RankState::colourings. Exposed for the threaded-executor tests.
/// Blocked (st.colour_block > 1, the locality layer) or per-element.
const mesh::Colouring& loop_colouring(RankState& st, const LoopRecord& rec);

/// The rank's cached hierarchical two-level schedule for `rec`'s
/// conflict structure (device mode): outer block colouring plus
/// per-block inner element colouring under the shared-memory clamp.
/// Built on first use, cached in RankState::hier_colourings. Exposed for
/// the device property tests.
const gpu::HierColouring& loop_hier(RankState& st, const LoopRecord& rec);

/// Ordering-quality proxies of the loop's widest indirect argument over
/// the owned range (cached per loop name; zeros for direct loops).
const mesh::OrderingQuality& loop_quality(RankState& st,
                                          const LoopRecord& rec);

/// True when the loop must redundantly execute import-exec halo layers
/// under owner-compute (it writes through a map).
bool loop_executes_exec_halo(const LoopRecord& rec);

/// Snapshot/restore helpers for global INC arguments.
struct GblIncState {
  std::vector<std::pair<double*, std::vector<double>>> snapshots;
};
GblIncState snapshot_gbl_incs(const LoopRecord& rec);
void reduce_gbl_incs(RankState& st, const LoopRecord& rec,
                     const GblIncState& snap);

}  // namespace op2ca::core::detail
