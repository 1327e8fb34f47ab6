// The epoch executor: Algs 1 and 2 of the paper as one code path.
//
// An epoch runs a window of loops around one halo exchange:
// 1. Post the sends and receives of every (dat, depth) sync of the window
//    whose halo is stale (dirty-bit check), packed through the cached
//    GroupedPlans into pooled staging buffers and moved into the mailbox
//    (zero-copy).
// 2. While they are in flight, run every loop's core in window order.
// 3. Wait, unpack through the plans' scatter lists, recycle the buffers.
// 4. Run every loop's halo region in window order: the deferred owned
//    boundary, then its import-exec iterations.
// 5. Reduce global INCs, mark written dats' halos stale, meter the epoch.
//
// Alg 1 (classic OP2) is a one-loop window: sync depth 1, core
// core_count(1), the structural exec layer 1 when the loop writes through
// a map, and one message per (dat, halo class, neighbour) — the 2 d p m^1
// term of Eq (1). Alg 2 (CA) is an inspected chain or fused tile: Alg-3
// sync depths, shrunken cores, the sliced exec lists that replace the
// per-loop exchanges with redundant computation, and one grouped message
// per neighbour (Fig 8).
//
// Windows are built once. Alg 1 keeps one exchange per dat
// (RankDat::exchange), shared by every loop reading the dat; Alg 2 one per
// set of stale syncs of the window. Steady-state epochs walk no maps and
// allocate nothing.
#include <algorithm>

#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/core/slice.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/timer.hpp"

namespace op2ca::core::detail {
namespace {

/// Builds the exchange of `syncs` cut by `grouping`, reserving staging
/// spares for its sends; counts as a plan build. st.dats never
/// reallocates, and re-gathering a dat (World::reset_dat) refills its
/// array in place, so the specs' pointers stay valid for the exchange's
/// lifetime.
Exchange make_exchange(RankState& st, const std::vector<DatSync>& syncs,
                       halo::Grouping grouping, sim::tag_t tag) {
  Exchange ex;
  ex.syncs = syncs;
  for (const DatSync& s : syncs) {
    RankDat& rd = st.rank_dat(s.dat);
    ex.specs.push_back({st.world->mesh().dat(s.dat).set, rd.dim, s.depth,
                        rd.data.data()});
  }
  ex.plan = halo::build_grouped_plan(st.rank_plan(), ex.specs, grouping, tag);
  ex.recv_bufs.resize(ex.plan.sides.size());
  std::size_t sends = 0, max_send = 0;
  for (const halo::GroupedPlan::Side& side : ex.plan.sides) {
    sends += side.send_bytes > 0;
    max_send = std::max(max_send, side.send_bytes);
  }
  st.staging.reserve_spares(kSparesPerSend * sends, max_send);
  st.epoch.plan_builds += 1;
  return ex;
}

/// Fills the per-loop regions and written dats of a window whose syncs
/// are set; counts as a plan build. A chain window (grouped) runs its
/// Alg-3 core shrinks and sliced exec lists; a one-loop window runs
/// core_count(1) and, when it writes through a map, the structural exec
/// layer 1.
void build_regions(RankState& st, Window& w, const LoopRecord* loops,
                   std::size_t n) {
  const bool chain = w.grouping == halo::Grouping::PerNeighbour;
  std::vector<LIdxVec> lists(n);
  if (chain)
    lists = needed_exec_lists(st.world->mesh(), st.rank_plan(),
                              st.world->plan().depth, w.spec, w.analysis);
  w.loops.resize(n);
  for (std::size_t l = 0; l < n; ++l) {
    const halo::SetLayout& lay = st.layout(loops[l].spec.set);
    Window::Loop& r = w.loops[l];
    r.core_end = lay.core_count(chain ? w.analysis.shrink[l] : 1);
    r.owned_end = lay.num_owned;
    r.exec_list = std::move(lists[l]);
    if (!chain && loops[l].spec.has_indirect_write())
      r.exec_range = lay.exec_layer(1);
    for (const auto& [dat, m] : merge_loop_accesses(loops[l].spec))
      if (writes(m.mode)) w.written.push_back(dat);
  }
  st.epoch.plan_builds += 1;
}

/// The one-loop window of `rec`, built on first sight of its structure.
Window& loop_window(RankState& st, const LoopRecord& rec) {
  const auto [it, fresh] =
      st.loop_windows.try_emplace(chain_structural_hash(&rec, 1));
  Window& w = it->second;
  if (!fresh) return w;
  w.grouping = halo::Grouping::PerDatClass;
  // Direct reads only touch halo elements when the loop executes them.
  for (const auto& [dat, m] : merge_loop_accesses(rec.spec))
    if (reads_value(m.mode) && (m.indirect || rec.spec.has_indirect_write()))
      w.analysis.syncs.push_back({dat, 1});
  build_regions(st, w, &rec, 1);
  return w;
}

/// Runs one epoch of window `w` over `loops` into st.epoch, which the
/// caller reset before looking the window up; `timer` started then too.
LoopMetrics& run_epoch(RankState& st, Window& w, const LoopRecord* loops,
                       std::size_t n, const WallTimer& timer) {
  LoopMetrics& m = st.epoch;
  m.calls = 1;
  st.comm.stats().reset_epoch();
  const std::int64_t allocs_before = st.staging.allocations();
  const double busy_before = st.pool ? st.pool->busy_seconds() : 0.0;

  // Global-INC buffers before any iteration runs.
  std::vector<std::pair<double*, std::vector<double>>> gbl_before;
  for (std::size_t l = 0; l < n; ++l)
    for (std::size_t j = 0; j < loops[l].rargs.size(); ++j) {
      const ResolvedArg& a = loops[l].rargs[j];
      if (a.is_gbl && loops[l].spec.args[j].mode == Access::INC)
        gbl_before.push_back({a.base, {a.base, a.base + a.row}});
    }

  // -- 1. Post the exchanges of the stale syncs: one per dat (per-dat
  //    grouping) or one per stale set (grouped). The dirty bits are
  //    identical on every rank — they evolve under the same SPMD loop
  //    sequence everywhere — so both ends of every message agree on it.
  const std::vector<DatSync>& syncs = w.analysis.syncs;
  st.posted.clear();
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < syncs.size(); ++i) {
    RankDat& rd = st.rank_dat(syncs[i].dat);
    if (rd.fresh_depth >= syncs[i].depth) continue;
    if (w.grouping == halo::Grouping::PerNeighbour) {
      mask |= std::uint64_t{1} << i;
      continue;
    }
    if (!rd.exchange)
      rd.exchange = make_exchange(st, {syncs[i]}, w.grouping,
                                  kLoopTagBase + 2 * syncs[i].dat);
    st.posted.push_back(&*rd.exchange);
  }
  if (mask != 0) {
    const auto [it, fresh] = w.exchanges.try_emplace(mask);
    if (fresh) {
      std::vector<DatSync> stale;
      for (std::size_t i = 0; i < syncs.size(); ++i)
        if ((mask >> i) & 1) stale.push_back(syncs[i]);
      it->second = make_exchange(st, stale, w.grouping, kChainTag);
    }
    st.posted.push_back(&it->second);
  }
  std::vector<sim::Request>& reqs = st.requests;
  reqs.clear();
  for (Exchange* ex : st.posted)
    for (std::size_t s = 0; s < ex->plan.sides.size(); ++s) {
      const halo::GroupedPlan::Side& side = ex->plan.sides[s];
      if (side.send_bytes > 0) {
        ByteBuf buf = st.staging.take(side.send_bytes);
        halo::pack_grouped(side, ex->specs, buf.data());
        for (const halo::GroupedPlan::Segment& g : side.gather)
          m.halo_elems += static_cast<std::int64_t>(g.rows->size());
        reqs.push_back(st.comm.isend(side.q, side.tag, std::move(buf)));
      }
      if (side.recv_bytes > 0)
        reqs.push_back(st.comm.irecv(side.q, side.tag, &ex->recv_bufs[s]));
    }
  const double t_pack = timer.elapsed();

  // -- 2. Every loop's core, overlapped with the exchange. ---------------
  for (std::size_t l = 0; l < n; ++l)
    m.core_iters += run_range(st, loops[l], 0, w.loops[l].core_end);
  const double t_core = timer.elapsed();

  // -- 3. Wait + unpack. --------------------------------------------------
  st.comm.wait_all(reqs);
  const double t_wait = timer.elapsed();
  for (Exchange* ex : st.posted) {
    for (std::size_t s = 0; s < ex->plan.sides.size(); ++s) {
      const halo::GroupedPlan::Side& side = ex->plan.sides[s];
      if (side.recv_bytes == 0) continue;
      halo::unpack_grouped(side, ex->specs, ex->recv_bufs[s]);
      st.recycle_payload(side.q, std::move(ex->recv_bufs[s]));
    }
    // Only stale syncs are exchanged, so each halo is now fresh to the
    // depth it was synced to and no shallower than before.
    for (const DatSync& s : ex->syncs) st.rank_dat(s.dat).fresh_depth = s.depth;
  }
  const double t_unpack = timer.elapsed();

  // -- 4. Halo regions: the deferred owned boundary, then the import-exec
  //    iterations. A chain's sliced exec lists are the owner-compute
  //    redundancy the CA trade buys its messages with (redundant_elems).
  for (std::size_t l = 0; l < n; ++l) {
    const Window::Loop& r = w.loops[l];
    m.halo_iters += run_range(st, loops[l], r.core_end, r.owned_end);
    m.halo_iters +=
        run_range(st, loops[l], r.exec_range.first, r.exec_range.second);
    m.halo_iters += run_list(st, loops[l], r.exec_list);
    m.redundant_elems += static_cast<std::int64_t>(r.exec_list.size());
  }

  // -- 5. Global reductions (a synchronisation point): each rank
  //    accumulated its owned iterations only — loops reducing into a
  //    global never write through a map, so they run no exec halo.
  for (const auto& [ptr, before] : gbl_before)
    for (std::size_t k = 0; k < before.size(); ++k)
      ptr[k] = before[k] + st.comm.allreduce_sum(ptr[k] - before[k]);

  // Dirty bits: written dats' halo copies are stale.
  for (mesh::dat_id d : w.written) st.rank_dat(d).fresh_depth = 0;

  const sim::CommStats& cs = st.comm.stats();
  m.msgs = cs.epoch_msgs_sent;
  m.bytes = m.max_rank_bytes = cs.epoch_bytes_sent;
  m.max_msg_bytes = cs.epoch_max_msg_bytes;
  m.max_neighbors = static_cast<std::int64_t>(cs.epoch_neighbors.size());
  m.wall_seconds = timer.elapsed();
  m.pack_seconds = t_pack;
  m.core_seconds = t_core - t_pack;
  m.wait_seconds = t_wait - t_core;
  m.unpack_seconds = t_unpack - t_wait;
  m.halo_seconds = m.wall_seconds - t_unpack;
  m.staging_allocs = st.staging.allocations() - allocs_before;
  m.busy_seconds = st.pool ? st.pool->busy_seconds() - busy_before : 0.0;
  return m;
}

}  // namespace

void add_call(LoopMetrics& agg, const LoopMetrics& m) {
  const std::int64_t prev_calls = agg.calls;
  agg.merge_from(m);
  agg.calls = prev_calls + 1;
}

Window& chain_window(RankState& st, const std::string& key,
                     const LoopRecord* loops, std::size_t n) {
  const std::uint64_t sig = chain_structural_hash(loops, n);
  Window& w = st.chain_windows[key];
  if (w.structure == sig) return w;
  // The structure is set last: a window the inspector rejects stays
  // unmatched and is inspected (and rejected) again next time.
  w = Window{};
  w.spec = {key, {}};
  for (std::size_t l = 0; l < n; ++l) w.spec.loops.push_back(loops[l].spec);
  w.analysis = inspect_chain(st.world->mesh(), w.spec);
  OP2CA_REQUIRE(w.analysis.syncs.size() <= 64,
                "chain '" + key + "' syncs more than 64 dats");
  w.structure = sig;
  return w;
}

LoopMetrics run_loop(RankState& st, const LoopRecord& rec) {
  const WallTimer timer;
  st.epoch = LoopMetrics{};
  const LoopMetrics& m = run_epoch(st, loop_window(st, rec), &rec, 1, timer);
  add_call(st.loop_metrics[rec.spec.name], m);
  return m;
}

void run_chain(RankState& st, const std::string& name,
               const std::string& key, const LoopRecord* loops,
               std::size_t n, int tile) {
  const WallTimer timer;
  st.epoch = LoopMetrics{};
  Window& w = chain_window(st, key, loops, n);
  if (w.loops.empty()) {
    // Checked before the regions exist, so a failing window fails again.
    const int required = w.analysis.required_depth;
    const int cap = st.world->config().chains.max_depth(name);
    const std::string needs = "chain '" + name + "' needs " +
                              std::to_string(required) + " halo layers but ";
    OP2CA_REQUIRE(required <= st.world->plan().depth,
                  needs + "the World was built with halo_depth=" +
                      std::to_string(st.world->plan().depth) +
                      "; raise WorldConfig::halo_depth");
    OP2CA_REQUIRE(cap == 0 || required <= cap,
                  needs + "chains.cfg caps it at depth=" + std::to_string(cap));
    build_regions(st, w, loops, n);
  }
  LoopMetrics& m = run_epoch(st, w, loops, n, timer);
  m.tile = tile;
  // Per-invocation execution would have paid this epoch's message count
  // once per fused invocation (the stale-dat mask repeats under a steady
  // timestep loop); the fusion posts it once.
  m.msgs_saved = static_cast<std::int64_t>(tile - 1) * m.msgs;
  add_call(st.chain_metrics[name], m);
}

}  // namespace op2ca::core::detail
