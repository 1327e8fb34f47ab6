// Region dispatch: every core/boundary/exec-halo region of the epoch
// executor funnels through run_range / run_list here.
//
// Without a worker pool a region is one type-erased region body per
// range or list (or one call per element under serial_dispatch). With a
// pool (threads_per_rank > 1) every loop runs one form, OP2's
// shared-memory plan: the loop's iteration set is cut into blocks of
// kColourBlock consecutive elements of the local numbering, and a
// colouring of those blocks (two blocks conflict when elements of each
// share a target through any map the loop writes through) is computed
// once per (set, conflict maps) and cached in RankState next to the
// exchange plans. A loop without indirect writes has no conflicts and
// one colour. Colours run in ascending order with a pool barrier between
// them; each thread runs a contiguous share of a colour's blocks, every
// block whole and in ascending element order. No two blocks of a colour
// touch the same written element, so results are a pure function of the
// colouring — the same at every width > 1 — though increment sums
// reassociate relative to the width-1 index order.
//
// Loops reducing into a global (arg_gbl INC) run the serial region: the
// single accumulation buffer is order- and sharing-sensitive.
#include <algorithm>
#include <atomic>

#include "op2ca/core/runtime_detail.hpp"

namespace op2ca::core::detail {
namespace {

/// Elements per colour block: one block is one contiguous range body,
/// and a colour still holds several blocks per thread.
constexpr lidx_t kColourBlock = 256;

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

/// The rank's cached block colouring for `rec`'s conflict structure,
/// built on first use. A loop without indirect writes has no conflict
/// maps and one colour; only a loop with them counts its colours into
/// st.epoch.max_colours.
const mesh::Colouring& loop_colouring(RankState& st, const LoopRecord& rec) {
  const std::vector<mesh::map_id> maps = conflict_maps(rec);
  const auto key = std::make_pair(rec.spec.set, maps);
  auto it = st.colourings.find(key);
  if (it == st.colourings.end()) {
    LIdxVec identity;
    const std::vector<mesh::ColourMapView> views =
        conflict_views(st, rec.spec.set, maps, identity);
    it = st.colourings
             .emplace(key, mesh::block_colouring(st.layout(rec.spec.set).total,
                                                 views, kColourBlock))
             .first;
  }
  if (!maps.empty())
    st.epoch.max_colours =
        std::max<std::int64_t>(st.epoch.max_colours, it->second.num_colours);
  return it->second;
}

/// Runs share(b, e) on every pool thread over its contiguous share
/// [b, e) of [0, n), where index i lies in block block_of(i); each share
/// boundary moves up to the next block edge, so no block straddles two
/// threads. share returns the region bodies it called; they, and the
/// threads that ran a share, count into st.epoch.
template <typename BlockOf, typename Share>
void run_shares(RankState& st, std::size_t n, BlockOf block_of,
                Share share) {
  if (n == 0) return;
  const auto threads = static_cast<std::size_t>(st.pool->threads());
  const auto edge = [&](std::size_t t) {
    std::size_t o = n * t / threads;
    while (o > 0 && o < n && block_of(o) == block_of(o - 1)) ++o;
    return o;
  };
  std::atomic<std::int64_t> regions{0}, chunks{0};
  st.pool->run([&](int t) {
    const std::size_t b = edge(static_cast<std::size_t>(t));
    const std::size_t e = edge(static_cast<std::size_t>(t) + 1);
    if (b >= e) return;
    regions += share(b, e);
    chunks += 1;
  });
  st.epoch.dispatch_regions += regions;
  st.epoch.chunks += chunks;
}

}  // namespace

std::int64_t run_range(RankState& st, const LoopRecord& rec, lidx_t begin,
                       lidx_t end) {
  if (end <= begin) return 0;
  if (st.serial_dispatch) {
    for (lidx_t i = begin; i < end; ++i) rec.range_body(i, i + 1);
    st.epoch.dispatch_regions += end - begin;
    return end - begin;
  }
  if (st.pool == nullptr || rec.spec.has_gbl_inc()) {
    rec.range_body(begin, end);
    st.epoch.dispatch_regions += 1;
    return end - begin;
  }

  // Each class's blocks that overlap [begin, end) (classes ascend), split
  // across the pool; a run of consecutive blocks is one range body,
  // clipped to [begin, end).
  const mesh::Colouring& col = loop_colouring(st, rec);
  const lidx_t block = col.block_elems;
  for (const LIdxVec& cls : col.classes) {
    const auto lo = std::lower_bound(cls.begin(), cls.end(), begin / block);
    const auto hi = std::lower_bound(lo, cls.end(), (end - 1) / block + 1);
    const lidx_t* ids = cls.data() + (lo - cls.begin());
    run_shares(
        st, static_cast<std::size_t>(hi - lo),
        [&](std::size_t i) { return ids[i]; },
        [&](std::size_t b, std::size_t e) {
          std::int64_t bodies = 0;
          while (b < e) {
            std::size_t k = b + 1;
            while (k < e && ids[k] == ids[k - 1] + 1) ++k;
            rec.range_body(std::max(begin, ids[b] * block),
                           std::min(end, (ids[k - 1] + 1) * block));
            ++bodies;
            b = k;
          }
          return bodies;
        });
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
  if (st.pool == nullptr || rec.spec.has_gbl_inc()) {
    rec.list_body(idx.data(), idx.size());
    st.epoch.dispatch_regions += 1;
    return static_cast<std::int64_t>(idx.size());
  }

  // Bucket the list by block colour (stable: lists ascend, so a block's
  // elements stay contiguous and ascending in its bucket), then sweep
  // the buckets colour by colour, each cut at block edges.
  const mesh::Colouring& col = loop_colouring(st, rec);
  const lidx_t block = col.block_elems;
  std::vector<LIdxVec>& buckets = st.colour_scratch;
  if (buckets.size() < static_cast<std::size_t>(col.num_colours))
    buckets.resize(static_cast<std::size_t>(col.num_colours));
  for (auto& b : buckets) b.clear();
  for (lidx_t i : idx)
    buckets[static_cast<std::size_t>(
                col.colour[static_cast<std::size_t>(i / block)])]
        .push_back(i);
  for (int c = 0; c < col.num_colours; ++c) {
    const LIdxVec& part = buckets[static_cast<std::size_t>(c)];
    run_shares(
        st, part.size(),
        [&](std::size_t i) { return part[i] / block; },
        [&](std::size_t b, std::size_t e) {
          rec.list_body(part.data() + b, e - b);
          return std::int64_t{1};
        });
  }
  return static_cast<std::int64_t>(idx.size());
}

}  // namespace op2ca::core::detail
