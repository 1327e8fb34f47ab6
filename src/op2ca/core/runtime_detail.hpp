// Internal runtime structures shared by chain capture, region dispatch
// and the epoch executor. Not part of the public API.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "op2ca/core/runtime.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/mesh/colouring.hpp"
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

/// A cached halo exchange: the syncs it carries, their specs (pointing at
/// dat storage, which never moves), the flattened GroupedPlan and
/// reusable receive slots. Built once; steady-state epochs touch no maps
/// and allocate nothing.
struct Exchange {
  std::vector<DatSync> syncs;  ///< specs-parallel.
  std::vector<halo::DatSyncSpec> specs;
  halo::GroupedPlan plan;
  std::vector<ByteBuf> recv_bufs;  ///< sides-parallel.
};

/// One dat's per-rank storage.
struct RankDat {
  int dim = 0;
  /// 64-byte-aligned backing store: one `dim`-double row per element, in
  /// halo-plan order (owned | exec | nonexec).
  util::AlignedDVec data;
  /// Halo layers currently in sync with the owners; 0 = level-1 halo
  /// stale. This generalizes the paper's dirty bit to multi-layer halos.
  int fresh_depth = 0;
  /// The dat's one-loop exchange (Alg 1): its level-1 halo, one message
  /// per (halo class, neighbour). Built on first use and shared by every
  /// loop that reads the dat.
  std::optional<Exchange> exchange;
};

/// A communication epoch's cached geometry: the loops that run around one
/// halo exchange. Alg 1 is a one-loop window with per-dat grouping; Alg 2
/// an inspected chain or fused tile with one grouped message per
/// neighbour.
struct Window {
  /// One loop's regions, in the order the epoch runs them.
  struct Loop {
    lidx_t core_end = 0;   ///< core [0, core_end) runs while messages fly.
    lidx_t owned_end = 0;  ///< deferred owned boundary [core_end, owned_end).
    /// Alg 1: the structural exec layer 1, for loops writing through a map.
    std::pair<lidx_t, lidx_t> exec_range{0, 0};
    /// Alg 2: the sliced import-exec iterations (the redundant compute).
    LIdxVec exec_list;
  };
  /// chain_structural_hash of the loops: a key reused with different
  /// loops rebuilds the window instead of running a stale one.
  std::uint64_t structure = 0;
  halo::Grouping grouping = halo::Grouping::PerNeighbour;
  /// A chain's inspection and the spec it inspected. A one-loop window
  /// fills syncs (every dat the loop reads through its halo, at depth 1)
  /// and required_depth (1) only.
  ChainSpec spec;
  ChainAnalysis analysis;
  std::vector<Loop> loops;  ///< empty until the window first runs.
  std::vector<mesh::dat_id> written;  ///< dats whose halos go stale.
  /// PerNeighbour exchanges by stale-sync mask (bit i = analysis.syncs[i]).
  std::map<std::uint64_t, Exchange> exchanges;
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

  // Epoch windows: chains by plan key (chain name, "<name>#tile<k>" or
  // "lazy:<signature>"), single loops by structural hash. Separate maps,
  // so a loop and a chain of the same name never share a window.
  std::map<std::string, Window> chain_windows;
  std::unordered_map<std::uint64_t, Window> loop_windows;
  BufferPool staging;
  std::vector<Exchange*> posted;          ///< per-epoch scratch, reused.
  std::vector<sim::Request> requests;     ///< per-epoch scratch, reused.
  /// The running epoch's metrics: region dispatch adds its region-body
  /// calls, pool chunks and widest colouring here directly.
  LoopMetrics epoch;

  // Intra-rank threading (WorldConfig::threads_per_rank > 1): the worker
  // pool, the block-colouring cache — one colouring per (set, conflict
  // maps) combination, living next to the exchange plans — and the
  // per-colour buckets reused by pooled run_list calls.
  std::unique_ptr<util::ThreadPool> pool;
  std::map<std::pair<mesh::set_id, std::vector<mesh::map_id>>,
           mesh::Colouring>
      colourings;
  std::vector<LIdxVec> colour_scratch;

  // Per-rank metrics, merged by the World after each run.
  std::map<std::string, LoopMetrics> loop_metrics;
  std::map<std::string, LoopMetrics> chain_metrics;

  RankState(World* w, sim::TransportBackend& transport, rank_t r);

  const halo::RankPlan& rank_plan() const;
  const halo::SetLayout& layout(mesh::set_id s) const;
  RankDat& rank_dat(mesh::dat_id d);

  /// Gathers a dat's local copy (owned + halos) from a global array; the
  /// first call sizes the storage.
  void refresh_dat_from_global(mesh::dat_id d,
                               const std::vector<double>& global_data);

  /// Hands a consumed receive payload from rank `src` back to the
  /// staging pool of `src` — the pool that sized it — so ranks that send
  /// more than they receive stop allocating every epoch. In SPMD mode the
  /// payload came off the wire and stays in this rank's pool.
  void recycle_payload(rank_t src, ByteBuf buf);
};

/// Runs one loop as a one-loop epoch (Alg 1). Returns the metrics of this
/// execution, also accumulated into st.loop_metrics under the loop's name.
LoopMetrics run_loop(RankState& st, const LoopRecord& rec);

/// Runs `loops` as one CA epoch (Alg 2): a captured or lazily formed
/// chain, or `tile` fused invocations of one (their loops concatenated).
/// `key` keys the window cache (distinct per tile geometry, so a partial
/// flush at a sync point gets its own window); metrics land in
/// st.chain_metrics under `name` with LoopMetrics::tile = `tile`.
void run_chain(RankState& st, const std::string& name,
               const std::string& key, const std::vector<LoopRecord>& loops,
               int tile);

/// The chain window cached under `key`, inspected again when `loops`
/// differ in structure from the cached one. Its regions are built when it
/// first runs. Raises when the inspector rejects the loops.
Window& chain_window(RankState& st, const std::string& key,
                     const LoopRecord* loops, std::size_t n);

/// Folds one call's metrics into a per-name aggregate (calls counts up).
void add_call(LoopMetrics& agg, const LoopMetrics& m);

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
/// Paths, in precedence order: element-at-a-time (serial_dispatch), one
/// region (no pool, or a gbl INC), or a colour-ordered sweep of whole
/// colour blocks over the pool (see core/dispatch). Counts region-body
/// invocations and pool chunks in st.epoch.
std::int64_t run_range(RankState& st, const LoopRecord& rec, lidx_t begin,
                       lidx_t end);

/// Shared: runs the loop body over a gathered index list (same paths).
std::int64_t run_list(RankState& st, const LoopRecord& rec,
                      const LIdxVec& idx);

}  // namespace op2ca::core::detail
