// Classic OP2 executor — Alg 1 of the paper.
//
// Per loop: post non-blocking exchanges of the level-1 halos of every dat
// that is read and stale (two messages per dat per neighbour: exec and
// nonexec — the 2 d p m^1 term of Eq (1)); execute the core while they
// are in flight; wait; execute the owned boundary and, for loops with
// indirect writes, the level-1 import-exec halo; reduce globals; mark
// written dats' halos stale.
//
// The per-dat message lists are flattened into a cached LoopExchange on
// first use, and staging buffers cycle through the ranks' BufferPools (the
// zero-copy isend hands each send buffer to the receiver, which gives it
// back to the sender's pool after unpacking) — steady-state loops walk no
// maps and allocate nothing.
#include <algorithm>

#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/timer.hpp"

namespace op2ca::core::detail {
namespace {

/// Dats whose level-1 halo must be refreshed before this loop runs.
std::vector<mesh::dat_id> dats_needing_exchange(RankState& st,
                                                const LoopRecord& rec) {
  const bool exec_halo = loop_executes_exec_halo(rec);
  std::vector<mesh::dat_id> out;
  for (const auto& [dat, m] : merge_loop_accesses(rec.spec)) {
    if (!reads_value(m.mode)) continue;
    // Direct reads only touch halo elements when the loop executes them.
    if (!m.indirect && !exec_halo) continue;
    if (st.rank_dat(dat).fresh_depth >= 1) continue;
    out.push_back(dat);
  }
  return out;
}

/// Flattens dat `d`'s level-1 message lists (built once, cached).
LoopExchange& loop_exchange(RankState& st, mesh::dat_id d,
                            std::int64_t* plan_builds) {
  std::unique_ptr<LoopExchange>& slot =
      st.loop_exchanges[static_cast<std::size_t>(d)];
  if (slot != nullptr) return *slot;

  const mesh::DatDef& dd = st.world->mesh().dat(d);
  const int dim = dd.dim;
  const halo::NeighborLists& nl =
      st.rank_plan().lists[static_cast<std::size_t>(dd.set)];
  const sim::tag_t tag_exec = kLoopTagBase + d * 2;
  const sim::tag_t tag_nonexec = kLoopTagBase + d * 2 + 1;

  slot = std::make_unique<LoopExchange>();
  auto add = [dim](std::vector<LoopExchange::Segment>* segs,
                   const std::map<rank_t, std::vector<LIdxVec>>& tab,
                   sim::tag_t tag) {
    for (const auto& [q, layers] : tab) {
      const LIdxVec& idx = layers[0];  // level 1
      if (idx.empty()) continue;
      segs->push_back({q, tag, &idx,
                       idx.size() * static_cast<std::size_t>(dim) *
                           sizeof(double)});
    }
  };
  add(&slot->sends, nl.exp_exec, tag_exec);
  add(&slot->sends, nl.exp_nonexec, tag_nonexec);
  add(&slot->recvs, nl.imp_exec, tag_exec);
  add(&slot->recvs, nl.imp_nonexec, tag_nonexec);
  slot->recv_bufs.resize(slot->recvs.size());
  std::size_t max_send = 0;
  for (const LoopExchange::Segment& seg : slot->sends)
    max_send = std::max(max_send, seg.bytes);
  st.staging.reserve_spares(kSparesPerSend * slot->sends.size(), max_send);

  *plan_builds += 1;
  return *slot;
}

}  // namespace

LoopMetrics execute_loop_op2(RankState& st, const LoopRecord& rec) {
  WallTimer timer;
  const halo::SetLayout& lay = st.layout(rec.set);
  st.comm.stats().reset_epoch();
  const std::int64_t allocs_before = st.staging.allocations();
  const std::int64_t regions_before = st.dispatch_regions;
  const std::int64_t chunks_before = st.dispatch_chunks;
  const double busy_before = st.pool ? st.pool->busy_seconds() : 0.0;
  st.dispatch_max_colours = 0;
  std::int64_t plan_builds = 0;

  // Snapshot global-INC buffers before any iteration runs.
  GblIncState snap = snapshot_gbl_incs(rec);

  // -- 1. Post halo exchanges (MPI_Isend / MPI_Irecv of Alg 1). --------
  const std::vector<mesh::dat_id> exch = dats_needing_exchange(st, rec);
  std::vector<sim::Request>& requests = st.loop_requests;
  requests.clear();

  std::int64_t halo_elems = 0;
  for (mesh::dat_id d : exch) {
    RankDat& rd = st.rank_dat(d);
    LoopExchange& ex = loop_exchange(st, d, &plan_builds);
    for (const LoopExchange::Segment& seg : ex.sends) {
      ByteBuf buf = st.staging.take(seg.bytes);
      halo::gather_region(rd.data.data(), &rd.layout, rd.dim, *seg.idx,
                          buf.data());
      halo_elems += static_cast<std::int64_t>(seg.idx->size());
      requests.push_back(st.comm.isend(seg.q, seg.tag, std::move(buf)));
    }
    for (std::size_t i = 0; i < ex.recvs.size(); ++i)
      requests.push_back(st.comm.irecv(ex.recvs[i].q, ex.recvs[i].tag,
                                       &ex.recv_bufs[i]));
  }

  const double t_pack = timer.elapsed();

  // -- 2. Core iterations overlap with the exchange. --------------------
  const lidx_t core_end = lay.core_count(1);
  std::int64_t core_iters = run_range(st, rec, 0, core_end);
  const double t_core = timer.elapsed();

  // -- 3. MPI_Wait + unpack. -------------------------------------------
  st.comm.wait_all(requests);
  const double t_wait = timer.elapsed();

  for (mesh::dat_id d : exch) {
    RankDat& rd = st.rank_dat(d);
    LoopExchange& ex = *st.loop_exchanges[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < ex.recvs.size(); ++i) {
      const LoopExchange::Segment& seg = ex.recvs[i];
      ByteBuf& buf = ex.recv_bufs[i];
      OP2CA_ASSERT(buf.size() == seg.bytes,
                   "level-1 halo payload size mismatch");
      const std::size_t used = halo::unpack_region(
          rd.data.data(), &rd.layout, rd.dim, *seg.idx, buf, 0);
      OP2CA_ASSERT(used == buf.size(), "level-1 halo unpack short");
      st.recycle_payload(seg.q, std::move(buf));
    }
    rd.fresh_depth = std::max(rd.fresh_depth, 1);
  }
  const double t_unpack = timer.elapsed();

  // -- 4. Owned boundary + level-1 import-exec halo. --------------------
  std::int64_t halo_iters = run_range(st, rec, core_end, lay.num_owned);
  if (loop_executes_exec_halo(rec)) {
    const auto [b, e] = lay.exec_layer(1);
    halo_iters += run_range(st, rec, b, e);
  }

  // -- 5. Global reductions (synchronisation point). --------------------
  if (!snap.snapshots.empty()) {
    // Deltas were accumulated over owned iterations only (no exec halo
    // runs for gbl-INC loops; enforced at submit).
    reduce_gbl_incs(st, rec, snap);
  }

  // -- 6. Dirty bits: written dats' halo copies are stale. --------------
  for (const auto& [dat, m] : merge_loop_accesses(rec.spec))
    if (writes(m.mode)) st.rank_dat(dat).fresh_depth = 0;

  LoopMetrics metrics;
  metrics.calls = 1;
  metrics.core_iters = core_iters;
  metrics.halo_iters = halo_iters;
  metrics.msgs = st.comm.stats().epoch_msgs_sent;
  metrics.bytes = st.comm.stats().epoch_bytes_sent;
  metrics.max_msg_bytes = st.comm.stats().epoch_max_msg_bytes;
  metrics.max_rank_bytes = st.comm.stats().epoch_bytes_sent;
  metrics.max_neighbors =
      static_cast<int>(st.comm.stats().epoch_neighbors.size());
  metrics.wall_seconds = timer.elapsed();
  metrics.pack_seconds = t_pack;
  metrics.core_seconds = t_core - t_pack;
  metrics.wait_seconds = t_wait - t_core;
  metrics.unpack_seconds = t_unpack - t_wait;
  metrics.halo_seconds = metrics.wall_seconds - t_unpack;
  metrics.dispatch_regions = st.dispatch_regions - regions_before;
  metrics.plan_builds = plan_builds;
  metrics.staging_allocs = st.staging.allocations() - allocs_before;
  metrics.chunks = st.dispatch_chunks - chunks_before;
  metrics.max_colours = st.dispatch_max_colours;
  metrics.busy_seconds =
      st.pool ? st.pool->busy_seconds() - busy_before : 0.0;
  const mesh::OrderingQuality& oq = loop_quality(st, rec);
  metrics.gather_span = oq.gather_span;
  metrics.reuse_gap = oq.reuse_gap;
  metrics.halo_elems = halo_elems;
  metrics.numa_bytes =
      st.comm.stats().epoch_bytes_by_tier[static_cast<int>(sim::Tier::Numa)];
  metrics.node_bytes =
      st.comm.stats().epoch_bytes_by_tier[static_cast<int>(sim::Tier::Node)];
  metrics.net_bytes =
      st.comm.stats().epoch_bytes_by_tier[static_cast<int>(sim::Tier::Net)];
  for (const Arg& a : rec.args)
    if (a.kind != Arg::Kind::Gbl)
      metrics.layout_code =
          std::max(metrics.layout_code,
                   static_cast<int>(st.rank_dat(a.dat).layout.kind));

  LoopMetrics& agg = st.loop_metrics[rec.name];
  const std::int64_t prev_calls = agg.calls;
  agg.merge_from(metrics);
  agg.calls = prev_calls + 1;
  return metrics;
}

}  // namespace op2ca::core::detail
