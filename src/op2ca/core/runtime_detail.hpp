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

/// The run of the deferred window that flushes as one execution: loose
/// lazy loops, segmented greedily into lazy:<signature> chains, or
/// consecutive structure-equal invocations of one chain, fused under
/// "<chain>#tile<n>" when the chain is CA-enabled and n >= 2.
struct DeferredUnit {
  std::optional<std::string> chain;  ///< unset for loose lazy loops.
  std::size_t end = 0;               ///< its loops: Deferred::loops[0, end).
  int invocations = 0;               ///< chain units only.
};

/// Work not yet run, in program order: at most one unit, then the loops
/// of the open bracket, if any, from unit->end on. Work that a unit
/// cannot take runs the unit first, so the unit is always the trailing
/// one: a lazy run, or a tile of a CA-enabled chain with room left.
struct Deferred {
  std::vector<LoopRecord> loops;
  std::optional<DeferredUnit> unit;
  std::optional<std::string> open_chain;  ///< the bracket being captured.
};

struct RankState {
  World* world = nullptr;
  rank_t rank = -1;
  sim::Comm comm;
  std::vector<RankDat> dats;
  bool serial_dispatch = false;  ///< copy of WorldConfig::serial_dispatch.

  /// Chain capture, lazy loops and temporal tiles share this window and
  /// flush_deferred. `tile_fallbacks` names the "<chain>#tile<n>" keys
  /// already warned about, so rank 0 logs the loud per-invocation
  /// fallback once per World, not every timestep.
  Deferred deferred;
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

/// Runs `loops[0, n)` as one CA epoch (Alg 2): a captured or lazily
/// formed chain, or `tile` fused invocations of one (their loops
/// concatenated). `key` keys the window cache (distinct per tile
/// geometry, so a partial flush at a sync point gets its own window);
/// metrics land in st.chain_metrics under `name` with LoopMetrics::tile =
/// `tile`.
void run_chain(RankState& st, const std::string& name,
               const std::string& key, const LoopRecord* loops,
               std::size_t n, int tile);

/// The chain window cached under `key`, inspected again when `loops`
/// differ in structure from the cached one. Its regions are built when it
/// first runs. Raises when the inspector rejects the loops.
Window& chain_window(RankState& st, const std::string& key,
                     const LoopRecord* loops, std::size_t n);

/// Folds one call's metrics into a per-name aggregate (calls counts up).
void add_call(LoopMetrics& agg, const LoopMetrics& m);

/// Runs the unit of st.deferred, if any, and empties it. Loose lazy
/// loops grow greedily into windows that stay CA-feasible (inspector
/// accepts them, required depth within the halo plan); a window of >= 2
/// runs as chain "lazy:<signature>", so repeated program phases reuse
/// cached analyses, and a single loop as a plain OP2 loop. A disabled
/// chain's loops run as OP2 loops, metered under the chain's name. A
/// CA-enabled chain unit of n >= 2 invocations runs fused when that
/// window is feasible (also within the chain's depth cap); otherwise,
/// and for one invocation, each invocation runs as its own CA epoch, and
/// an infeasible fusion warns once. `at` names the synchronisation point
/// in the error raised when a chain bracket is still open.
void flush_deferred(RankState& st, const char* at);

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
