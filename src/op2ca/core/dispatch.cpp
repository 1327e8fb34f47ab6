// Region dispatch: every core/boundary/exec-halo region of the epoch
// executor funnels through run_range / run_list here.
//
// Serial paths are unchanged from the pre-threading runtime: one
// type-erased region body per range/list (or per element under
// serial_dispatch). With a worker pool (threads_per_rank > 1):
//
//  * Loops without indirect writes split regions into contiguous chunks,
//    one per pool thread. Every element writes only its own rows, so any
//    chunking is race-free and bitwise-identical to serial execution.
//  * Loops with indirect writes run colour-ordered sweeps: a colouring of
//    the iteration set (conflict = two elements sharing a target through
//    any written-dat map) is computed once per (set, conflict maps) and
//    cached in RankState next to the exchange plans. It is per-element by
//    default and blocked when WorldConfig::colour_block > 1. Colours
//    execute in ascending order with a pool barrier between them; within
//    a colour no two conflict units (elements, or blocks kept whole on
//    one thread) touch the same written element, so the intra-colour
//    split across threads cannot affect any memory cell. Results are
//    therefore a pure function of the colouring — deterministic at every
//    pool width — though increment sums reassociate relative to the
//    width-1 index order.
//  * Loops reducing into a global (arg_gbl INC) fall back to the serial
//    region: the single accumulation buffer is inherently order- and
//    sharing-sensitive.
#include <algorithm>
#include <span>

#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core::detail {
namespace {

/// The maps through which `rec` writes indirectly (sorted, unique), plus
/// a -1 sentinel for the identity view when one of those written dats is
/// also accessed directly in the same loop.
std::vector<mesh::map_id> conflict_maps(const LoopRecord& rec) {
  std::vector<mesh::map_id> maps;
  bool identity = false;
  for (const ArgSpec& a : rec.spec.args) {
    if (a.dat < 0 || !a.indirect || !writes(a.mode)) continue;
    maps.push_back(a.map);
    for (const ArgSpec& b : rec.spec.args)
      if (b.dat == a.dat && !b.indirect) identity = true;
    // Reads of a written dat through another map conflict too.
    for (const ArgSpec& b : rec.spec.args)
      if (b.dat == a.dat && b.indirect) maps.push_back(b.map);
  }
  std::sort(maps.begin(), maps.end());
  maps.erase(std::unique(maps.begin(), maps.end()), maps.end());
  if (identity) maps.push_back(-1);
  return maps;
}

/// Splits [0, n) into at most `parts` balanced chunks; returns the begin
/// offset of each chunk plus the end sentinel.
std::vector<std::size_t> chunk_offsets(std::size_t n, int parts) {
  const std::size_t p = static_cast<std::size_t>(parts);
  std::vector<std::size_t> off(p + 1, n);
  const std::size_t base = n / p, rem = n % p;
  std::size_t at = 0;
  for (std::size_t t = 0; t < p; ++t) {
    off[t] = at;
    at += base + (t < rem ? 1 : 0);
  }
  off[p] = n;
  return off;
}

/// Contiguous-chunk parallel range: safe only for loops whose writes are
/// all direct. Bitwise-identical to the serial region for any width.
std::int64_t run_range_chunked(RankState& st, const LoopRecord& rec,
                               lidx_t begin, lidx_t end) {
  util::ThreadPool& pool = *st.pool;
  const auto n = static_cast<std::size_t>(end - begin);
  const std::vector<std::size_t> off = chunk_offsets(n, pool.threads());
  pool.run([&](int t) {
    const auto b = begin + static_cast<lidx_t>(off[static_cast<std::size_t>(t)]);
    const auto e = begin + static_cast<lidx_t>(off[static_cast<std::size_t>(t) + 1]);
    if (b < e) rec.range_body(b, e);
  });
  std::int64_t chunks = 0;
  for (int t = 0; t < pool.threads(); ++t)
    chunks += off[static_cast<std::size_t>(t)] <
              off[static_cast<std::size_t>(t) + 1];
  st.epoch.dispatch_regions += chunks;
  st.epoch.chunks += chunks;
  return end - begin;
}

/// Contiguous-chunk parallel list (direct-write loops over gather lists).
std::int64_t run_list_chunked(RankState& st, const LoopRecord& rec,
                              const lidx_t* idx, std::size_t n) {
  util::ThreadPool& pool = *st.pool;
  const std::vector<std::size_t> off = chunk_offsets(n, pool.threads());
  pool.run([&](int t) {
    const std::size_t b = off[static_cast<std::size_t>(t)];
    const std::size_t e = off[static_cast<std::size_t>(t) + 1];
    if (b < e) rec.list_body(idx + b, e - b);
  });
  std::int64_t chunks = 0;
  for (int t = 0; t < pool.threads(); ++t)
    chunks += off[static_cast<std::size_t>(t)] <
              off[static_cast<std::size_t>(t) + 1];
  st.epoch.dispatch_regions += chunks;
  st.epoch.chunks += chunks;
  return static_cast<std::int64_t>(n);
}

/// Minimum consecutive-run length worth promoting from the gathered-list
/// body to a contiguous range body (below this the dispatch bookkeeping
/// outweighs the vectorisation win).
constexpr std::size_t kMinRun = 8;

/// Executes idx[0..n) in ascending order through run-aware bodies:
/// maximal consecutive runs of at least kMinRun become range regions
/// (contiguous loads the compiler vectorises), everything between goes
/// through the gathered-list body in one piece. The iteration order is
/// exactly that of a single list_body call over the slice, so results
/// are bitwise-equal to it.
std::int64_t run_aware_span(const LoopRecord& rec, const lidx_t* idx,
                            std::size_t n) {
  std::int64_t regions = 0;
  std::size_t j = 0;
  while (j < n) {
    std::size_t k = j + 1;
    while (k < n && idx[k] == idx[k - 1] + 1) ++k;
    if (k - j >= kMinRun) {
      rec.range_body(idx[j], idx[j] + static_cast<lidx_t>(k - j));
    } else {
      // Merge short runs into one gathered segment.
      while (k < n) {
        std::size_t k2 = k + 1;
        while (k2 < n && idx[k2] == idx[k2 - 1] + 1) ++k2;
        if (k2 - k >= kMinRun) break;
        k = k2;
      }
      rec.list_body(idx + j, k - j);
    }
    ++regions;
    j = k;
  }
  return regions;
}

/// One colour class (or class subrange), split across the pool. With
/// per-element colouring (block <= 1) conflict-freedom within the class
/// makes any split race-free and width-independent; with blocked
/// colouring the conflict-free unit is the block, so chunk boundaries
/// advance to the next block edge (a block never straddles threads).
/// Each chunk executes run-aware in class order, so results are a pure
/// function of the colouring.
void sweep_class(RankState& st, const LoopRecord& rec, const lidx_t* idx,
                 std::size_t n, lidx_t block) {
  if (n == 0) return;
  if (block <= 1) {
    run_list_chunked(st, rec, idx, n);
    return;
  }
  util::ThreadPool& pool = *st.pool;
  std::vector<std::size_t> off = chunk_offsets(n, pool.threads());
  for (std::size_t t = 1; t + 1 < off.size(); ++t) {
    std::size_t o = std::max(off[t], off[t - 1]);
    while (o > 0 && o < n && idx[o] / block == idx[o - 1] / block) ++o;
    off[t] = o;
  }
  std::vector<std::int64_t> regions(
      static_cast<std::size_t>(pool.threads()), 0);
  pool.run([&](int t) {
    const std::size_t b = off[static_cast<std::size_t>(t)];
    const std::size_t e = off[static_cast<std::size_t>(t) + 1];
    if (b < e)
      regions[static_cast<std::size_t>(t)] =
          run_aware_span(rec, idx + b, e - b);
  });
  for (int t = 0; t < pool.threads(); ++t) {
    st.epoch.dispatch_regions += regions[static_cast<std::size_t>(t)];
    st.epoch.chunks += regions[static_cast<std::size_t>(t)] > 0;
  }
}

/// Builds the ColourMapViews of a conflict-map list (the -1 sentinel
/// becomes an identity view backed by `identity`, which must outlive the
/// returned views).
std::vector<mesh::ColourMapView> conflict_views(
    RankState& st, mesh::set_id set, const std::vector<mesh::map_id>& maps,
    LIdxVec& identity) {
  const halo::SetLayout& lay = st.layout(set);
  const halo::RankPlan& rp = st.rank_plan();
  std::vector<mesh::ColourMapView> views;
  for (mesh::map_id m : maps) {
    mesh::ColourMapView v;
    if (m < 0) {
      identity.resize(static_cast<std::size_t>(lay.total));
      for (lidx_t e = 0; e < lay.total; ++e)
        identity[static_cast<std::size_t>(e)] = e;
      v.targets = identity.data();
      v.arity = 1;
      v.num_elements = lay.total;
      v.num_targets = lay.total;
    } else {
      const halo::LocalMap& lm = rp.maps[static_cast<std::size_t>(m)];
      const mesh::MapDef& md = st.world->mesh().map(m);
      v.targets = lm.targets.data();
      v.arity = lm.arity;
      v.num_elements =
          static_cast<lidx_t>(lm.targets.size() /
                              static_cast<std::size_t>(lm.arity));
      v.num_targets = rp.sets[static_cast<std::size_t>(md.to)].total;
    }
    views.push_back(v);
  }
  return views;
}

/// The part of colour class `cls` inside [begin, end), in class order.
/// Classes ascend, so the slice is found by binary search.
std::span<const lidx_t> class_slice(const LIdxVec& cls, lidx_t begin,
                                    lidx_t end) {
  const auto lo = std::lower_bound(cls.begin(), cls.end(), begin);
  const auto hi = std::lower_bound(lo, cls.end(), end);
  return {cls.data() + (lo - cls.begin()),
          static_cast<std::size_t>(hi - lo)};
}

}  // namespace

const mesh::Colouring& loop_colouring(RankState& st, const LoopRecord& rec) {
  const std::vector<mesh::map_id> maps = conflict_maps(rec);
  const auto key = std::make_pair(rec.spec.set, maps);
  auto it = st.colourings.find(key);
  if (it != st.colourings.end()) return it->second;

  const halo::SetLayout& lay = st.layout(rec.spec.set);
  LIdxVec identity;
  const std::vector<mesh::ColourMapView> views =
      conflict_views(st, rec.spec.set, maps, identity);
  return st.colourings
      .emplace(key, mesh::block_colouring(lay.total, views,
                                          st.world->config().colour_block))
      .first->second;
}

std::int64_t run_range(RankState& st, const LoopRecord& rec, lidx_t begin,
                       lidx_t end) {
  if (end <= begin) return 0;
  if (st.serial_dispatch) {
    for (lidx_t i = begin; i < end; ++i) rec.range_body(i, i + 1);
    st.epoch.dispatch_regions += end - begin;
    return end - begin;
  }
  if (st.pool == nullptr || rec.has_gbl_inc()) {
    rec.range_body(begin, end);
    st.epoch.dispatch_regions += 1;
    return end - begin;
  }
  if (!rec.spec.has_indirect_write())
    return run_range_chunked(st, rec, begin, end);

  // Colour-ordered sweep over each class's slice inside [begin, end).
  const mesh::Colouring& col = loop_colouring(st, rec);
  st.epoch.max_colours =
      std::max<std::int64_t>(st.epoch.max_colours, col.num_colours);
  for (const LIdxVec& cls : col.classes) {
    const std::span<const lidx_t> part = class_slice(cls, begin, end);
    sweep_class(st, rec, part.data(), part.size(), col.block_elems);
  }
  return end - begin;
}

std::int64_t run_list(RankState& st, const LoopRecord& rec,
                      const LIdxVec& idx) {
  if (idx.empty()) return 0;
  if (st.serial_dispatch) {
    for (lidx_t i : idx) rec.list_body(&i, 1);
    st.epoch.dispatch_regions += static_cast<std::int64_t>(idx.size());
    return static_cast<std::int64_t>(idx.size());
  }
  if (st.pool == nullptr || rec.has_gbl_inc()) {
    rec.list_body(idx.data(), idx.size());
    st.epoch.dispatch_regions += 1;
    return static_cast<std::int64_t>(idx.size());
  }
  if (!rec.spec.has_indirect_write())
    return run_list_chunked(st, rec, idx.data(), idx.size());

  // Bucket the list per colour (stable order — independent of width),
  // then sweep the buckets colour by colour. Lists ascend, so a block's
  // elements stay contiguous in its bucket and run in ascending order.
  const mesh::Colouring& col = loop_colouring(st, rec);
  st.epoch.max_colours =
      std::max<std::int64_t>(st.epoch.max_colours, col.num_colours);
  std::vector<LIdxVec>& buckets = st.colour_scratch;
  if (buckets.size() < static_cast<std::size_t>(col.num_colours))
    buckets.resize(static_cast<std::size_t>(col.num_colours));
  for (auto& b : buckets) b.clear();
  for (lidx_t i : idx)
    buckets[static_cast<std::size_t>(col.colour[static_cast<std::size_t>(i)])]
        .push_back(i);
  for (int c = 0; c < col.num_colours; ++c)
    sweep_class(st, rec, buckets[static_cast<std::size_t>(c)].data(),
                buckets[static_cast<std::size_t>(c)].size(),
                col.block_elems);
  return static_cast<std::int64_t>(idx.size());
}

}  // namespace op2ca::core::detail
