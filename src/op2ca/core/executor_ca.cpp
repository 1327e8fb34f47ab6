// Communication-avoiding chain executor — Alg 2 of the paper.
//
// 1. Inspect the chain (cached by name + structural hash): Alg-3 halo
//    extensions HE_l, per-loop core shrinks, dats needing a pre-chain
//    sync and their depths, the sparse-tiling exec lists, and — per set
//    of stale dats — a cached ChainExchange holding the flattened
//    GroupedPlan. Everything is built once; steady-state epochs skip
//    straight to execution.
// 2. Build and post ONE grouped message per neighbour containing every
//    stale dat's exec+nonexec halo layers up to its sync depth (Fig 8),
//    packed through the plan into pooled staging buffers and moved into
//    the mailbox (zero-copy).
// 3. While in flight: run every loop's (shrunken) core in chain order,
//    one region-body call per loop.
// 4. Wait, unpack through the plan's scatter lists, recycle the buffers.
// 5. Run every loop's halo region in chain order: the deferred owned
//    boundary (inward distance <= shrink_l) followed by the import-exec
//    layers 1..HE_l — the redundant computation that replaces the
//    per-loop halo exchanges.
#include <algorithm>

#include "op2ca/core/slice.hpp"
#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/timer.hpp"

namespace op2ca::core::detail {
namespace {

ChainSpec spec_from(const std::string& name,
                    const std::vector<LoopRecord>& loops) {
  ChainSpec spec;
  spec.name = name;
  spec.loops.reserve(loops.size());
  for (const auto& rec : loops) spec.loops.push_back(rec.spec);
  return spec;
}

/// Returns the chain's cached plan, (re)building analysis + exec lists on
/// first sight of this (name, structure). The structural hash guards
/// against a chain name reused with different loops.
ChainPlan& chain_plan(RankState& st, const std::string& name,
                      const std::vector<LoopRecord>& loops,
                      std::int64_t* plan_builds) {
  const std::uint64_t sig = chain_structural_hash(loops.data(), loops.size());
  ChainPlan& cp = st.chain_plans[name];
  if (cp.structure != sig || cp.analysis.he.size() != loops.size()) {
    cp.structure = sig;
    cp.analysis = inspect_chain(st.world->mesh(), spec_from(name, loops));
    cp.exec_lists_built = false;
    cp.exec_lists.clear();
    cp.exchanges.clear();
    *plan_builds += 1;
  }
  if (!cp.exec_lists_built) {
    cp.exec_lists = needed_exec_lists(st.world->mesh(), st.rank_plan(),
                                      st.world->plan().depth,
                                      spec_from(name, loops), cp.analysis);
    cp.exec_lists_built = true;
  }
  return cp;
}

/// Returns the cached grouped exchange for the current stale-dat set
/// (bit i of `mask` = an.syncs[i] participates), building it on miss.
ChainExchange& chain_exchange(RankState& st, ChainPlan& cp,
                              std::uint64_t mask,
                              std::int64_t* plan_builds) {
  auto it = cp.exchanges.find(mask);
  if (it != cp.exchanges.end()) return it->second;

  ChainExchange ex;
  const mesh::MeshDef& mesh = st.world->mesh();
  for (std::size_t i = 0; i < cp.analysis.syncs.size(); ++i) {
    if ((mask & (std::uint64_t{1} << i)) == 0) continue;
    const DatSync& s = cp.analysis.syncs[i];
    RankDat& rd = st.rank_dat(s.dat);
    halo::DatSyncSpec spec;
    spec.set = mesh.dat(s.dat).set;
    spec.dim = rd.dim;
    spec.depth = s.depth;
    spec.data = rd.data.data();
    // st.dats never reallocates after construction, so the descriptor
    // pointer stays valid for the exchange's lifetime (unlike `data`,
    // which is rebound every epoch).
    spec.layout = &rd.layout;
    ex.specs.push_back(spec);
    ex.dats.push_back(s.dat);
  }
  ex.plan = halo::build_grouped_plan(st.rank_plan(), ex.specs);
  ex.recv_bufs.resize(ex.plan.sides.size());
  std::size_t sends = 0, max_send = 0;
  for (const halo::GroupedPlan::Side& side : ex.plan.sides) {
    sends += side.send_bytes > 0;
    max_send = std::max(max_send, side.send_bytes);
  }
  st.staging.reserve_spares(kSparesPerSend * sends, max_send);

  *plan_builds += 1;
  return cp.exchanges.emplace(mask, std::move(ex)).first->second;
}

}  // namespace

void execute_chain_ca_tiled(RankState& st, const std::string& name,
                            const std::string& plan_key,
                            std::vector<LoopRecord>& loops, int tile) {
  if (loops.empty()) return;
  WallTimer timer;
  st.comm.stats().reset_epoch();
  const std::int64_t allocs_before = st.staging.allocations();
  const std::int64_t regions_before = st.dispatch_regions;
  const std::int64_t chunks_before = st.dispatch_chunks;
  const double busy_before = st.pool ? st.pool->busy_seconds() : 0.0;
  st.dispatch_max_colours = 0;
  std::int64_t plan_builds = 0;

  // -- Inspection (cached; the analysis is rank-independent). The plan
  //    key carries the tile geometry, so a fused tile and a partial tile
  //    of the same chain cache distinct plans. ---------------------------
  ChainPlan& cp = chain_plan(st, plan_key, loops, &plan_builds);
  const ChainAnalysis& an = cp.analysis;

  OP2CA_REQUIRE(
      an.required_depth <= st.world->plan().depth,
      "chain '" + name + "' needs " + std::to_string(an.required_depth) +
          " halo layers but the World was built with halo_depth=" +
          std::to_string(st.world->plan().depth) +
          "; raise WorldConfig::halo_depth");
  const int cap = st.world->config().chains.max_depth(name);
  OP2CA_REQUIRE(cap == 0 || an.required_depth <= cap,
                "chain '" + name + "' exceeds its configured max depth");

  // -- Pre-chain grouped exchange (lines 1-7 of Alg 2). ----------------
  // Stale-dat mask (dirty-bit check): identical on every rank — dirty
  // bits evolve under the same SPMD loop sequence everywhere — so both
  // endpoints of every message agree on the grouped layout.
  OP2CA_REQUIRE(an.syncs.size() <= 64,
                "chain '" + name + "' syncs more than 64 dats");
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < an.syncs.size(); ++i)
    if (st.rank_dat(an.syncs[i].dat).fresh_depth < an.syncs[i].depth)
      mask |= std::uint64_t{1} << i;

  ChainExchange* ex = nullptr;
  std::int64_t halo_elems = 0;
  if (mask != 0) {
    ex = &chain_exchange(st, cp, mask, &plan_builds);
    // Rebind data pointers: dat storage can be re-gathered between runs
    // (World::reset_dat), so the cached specs must not pin stale arrays.
    for (std::size_t i = 0; i < ex->dats.size(); ++i)
      ex->specs[i].data = st.rank_dat(ex->dats[i]).data.data();

    ex->requests.clear();
    for (std::size_t s = 0; s < ex->plan.sides.size(); ++s) {
      const halo::GroupedPlan::Side& side = ex->plan.sides[s];
      if (side.send_bytes > 0) {
        ByteBuf buf = st.staging.take(side.send_bytes);
        halo::pack_grouped(side, ex->specs, buf.data(), st.pool.get());
        for (const LIdxVec& g : side.gather)
          halo_elems += static_cast<std::int64_t>(g.size());
        ex->requests.push_back(
            st.comm.isend(side.q, kChainTag, std::move(buf)));
      }
      if (side.recv_bytes > 0)
        ex->requests.push_back(
            st.comm.irecv(side.q, kChainTag, &ex->recv_bufs[s]));
    }
  }

  const double t_pack = timer.elapsed();

  // -- Core phase (lines 8-12): every loop's core in chain order. -------
  std::int64_t core_iters = 0;
  for (std::size_t l = 0; l < loops.size(); ++l) {
    const halo::SetLayout& lay = st.layout(loops[l].set);
    core_iters += run_range(st, loops[l], 0, lay.core_count(an.shrink[l]));
  }

  const double t_core = timer.elapsed();

  // -- Wait + unpack (line 13). -----------------------------------------
  double t_wait = t_core;
  double t_unpack = t_core;
  if (ex != nullptr) {
    st.comm.wait_all(ex->requests);
    t_wait = timer.elapsed();
    for (std::size_t s = 0; s < ex->plan.sides.size(); ++s) {
      if (ex->plan.sides[s].recv_bytes == 0) continue;
      halo::unpack_grouped(ex->plan.sides[s], ex->specs, ex->recv_bufs[s],
                           st.pool.get());
      st.recycle_payload(ex->plan.sides[s].q, std::move(ex->recv_bufs[s]));
    }
    for (std::size_t i = 0; i < ex->dats.size(); ++i) {
      RankDat& rd = st.rank_dat(ex->dats[i]);
      rd.fresh_depth = std::max(rd.fresh_depth, ex->specs[i].depth);
    }
    t_unpack = timer.elapsed();
  }

  // -- Halo phase (lines 14-18): deferred boundary + exec layers. The
  //    import-exec iterations are the owner-compute redundancy the CA
  //    trade buys its messages with; a fused tile's lists reach deeper,
  //    so they are metered separately as redundant_elems. ----------------
  std::int64_t halo_iters = 0;
  std::int64_t redundant = 0;
  for (std::size_t l = 0; l < loops.size(); ++l) {
    const halo::SetLayout& lay = st.layout(loops[l].set);
    halo_iters +=
        run_range(st, loops[l], lay.core_count(an.shrink[l]), lay.num_owned);
    const std::int64_t exec_n = run_list(st, loops[l], cp.exec_lists[l]);
    halo_iters += exec_n;
    redundant += exec_n;
  }

  // -- Dirty bits. -------------------------------------------------------
  for (const auto& rec : loops)
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
  for (const auto& rec : loops) {
    const mesh::OrderingQuality& oq = loop_quality(st, rec);
    metrics.gather_span = std::max(metrics.gather_span, oq.gather_span);
    metrics.reuse_gap = std::max(metrics.reuse_gap, oq.reuse_gap);
    for (const Arg& a : rec.args)
      if (a.kind != Arg::Kind::Gbl)
        metrics.layout_code =
            std::max(metrics.layout_code,
                     static_cast<int>(st.rank_dat(a.dat).layout.kind));
  }
  metrics.halo_elems = halo_elems;
  metrics.numa_bytes =
      st.comm.stats().epoch_bytes_by_tier[static_cast<int>(sim::Tier::Numa)];
  metrics.node_bytes =
      st.comm.stats().epoch_bytes_by_tier[static_cast<int>(sim::Tier::Node)];
  metrics.net_bytes =
      st.comm.stats().epoch_bytes_by_tier[static_cast<int>(sim::Tier::Net)];
  metrics.tile = tile;
  metrics.redundant_elems = redundant;
  // Per-invocation execution would have paid this epoch's message count
  // once per fused invocation (the stale-dat mask repeats under a steady
  // timestep loop); the fusion posts it once.
  metrics.msgs_saved = static_cast<std::int64_t>(tile - 1) * metrics.msgs;

  LoopMetrics& agg = st.chain_metrics[name];
  const std::int64_t prev_calls = agg.calls;
  agg.merge_from(metrics);
  agg.calls = prev_calls + 1;
}

void execute_chain_ca(RankState& st, const std::string& name,
                      std::vector<LoopRecord>& loops) {
  execute_chain_ca_tiled(st, name, name, loops, /*tile=*/1);
}

}  // namespace op2ca::core::detail
