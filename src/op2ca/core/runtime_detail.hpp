// Internal runtime structures shared by the executors. Not part of the
// public API.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "op2ca/core/runtime.hpp"
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
};

/// One cached grouped exchange of a chain for a fixed set of stale
/// dats: sync specs (data pointers rebound each epoch), the flattened
/// GroupedPlan, and reusable receive slots. Built once per (chain,
/// stale-mask); steady-state epochs touch no maps and allocate nothing.
struct ChainExchange {
  std::vector<mesh::dat_id> dats;          ///< specs-parallel.
  std::vector<halo::DatSyncSpec> specs;
  halo::GroupedPlan plan;
  std::vector<ByteBuf> recv_bufs;  ///< sides-parallel.
  std::vector<sim::Request> requests;             ///< reused capacity.
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
  // pool, the colouring cache — one colouring per (set, conflict maps)
  // combination, living next to the exchange plans — and the per-colour
  // gather scratch reused by threaded run_list calls.
  std::unique_ptr<util::ThreadPool> pool;
  std::map<std::pair<mesh::set_id, std::vector<mesh::map_id>>,
           mesh::Colouring>
      colourings;
  std::vector<LIdxVec> colour_scratch;
  std::int64_t dispatch_chunks = 0;   ///< running pool-chunk count.
  int dispatch_max_colours = 0;       ///< reset per loop by the executors.
  /// Conflict-block granularity for colour-ordered sweeps: > 1 switches
  /// loop_colouring to blocked colouring and run-aware dispatch
  /// (contiguous runs execute through range bodies). 1 when the locality
  /// layer is off — the legacy per-element path, bitwise-identical to
  /// earlier builds.
  lidx_t colour_block = 1;

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
/// ChainPlan / exchange caches (distinct per tile geometry, so a partial
/// flush at a sync point gets its own cached plan); metrics land under
/// `name` with LoopMetrics::tile = `tile`.
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

/// The rank's cached colouring for `rec`'s conflict structure (the maps
/// through which the loop writes indirectly, plus an identity view when
/// a written dat is also accessed directly). Built on first use, cached
/// in RankState::colourings. Per-element, or blocked (st.colour_block > 1,
/// the locality layer).
const mesh::Colouring& loop_colouring(RankState& st, const LoopRecord& rec);

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
