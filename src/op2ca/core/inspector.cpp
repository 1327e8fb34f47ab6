// Loop-chain inspection: the runtime dependency analysis of the CA
// back-end (paper Section 3.1).
//
// Three cooperating analyses run over a ChainSpec:
//
// 1. calc_halo_layers — Alg 3 of the paper, implemented verbatim: walking
//    loops n-1..0, per-dat halo extensions accumulate over consecutive
//    indirect reads and close at the first preceding write. These HE
//    values reproduce Tables 3-4 and size the grouped message (Eq 4).
//
// 2. Execution depths — a semantic backward pass tracking, per dat, the
//    halo *level* to which its values must be correct for downstream
//    reads. A writer loop must execute `level (+1 if the write is
//    indirect)` exec-halo layers to regenerate them: every writer of an
//    element at level L sits within layer L+1. This is the depth the CA
//    executor actually iterates; it coincides with Alg 3 on the paper's
//    chains, and stays safe on corner cases the printed Alg 3 glosses
//    over (see DESIGN.md).
//
// 3. Core shrink + sync — a forward pass. Per dat we track sd (how deep
//    into the owned region deferred halo-phase writes will land, in
//    bipartite map-hop units) and pr (how deep deferred halo-phase reads
//    reach). A loop's core must exclude owned elements within `shrink`
//    hops of the boundary so that no core iteration reads data a deferred
//    iteration will produce (flow), overwrites data a deferred iteration
//    still needs (anti), or is overwritten afterwards (output). The same
//    pass derives which dats need a pre-chain halo exchange and to what
//    level (reads of values the chain does not regenerate).
#include "op2ca/core/chain.hpp"

#include <algorithm>

#include "op2ca/util/error.hpp"

namespace op2ca::core {

bool LoopSpec::has_indirect_write() const {
  for (const ArgSpec& a : args)
    if (a.indirect && writes(a.mode)) return true;
  return false;
}

bool LoopSpec::has_gbl_inc() const {
  for (const ArgSpec& a : args)
    if (a.dat < 0 && a.mode == Access::INC) return true;
  return false;
}

std::map<mesh::dat_id, MergedAccess> merge_loop_accesses(
    const LoopSpec& loop) {
  std::map<mesh::dat_id, MergedAccess> merged;
  for (const ArgSpec& a : loop.args) {
    if (a.dat < 0) continue;  // global args carry no dat
    MergedAccess& m = merged[a.dat];
    if (reads_value(a.mode))
      m.self_combine =
          m.self_combine && a.mode == Access::RW && a.self_combine;
    if (!m.present) {
      m.present = true;
      m.mode = a.mode;
      m.indirect = a.indirect;
      continue;
    }
    m.indirect = m.indirect || a.indirect;
    const bool rd = reads_value(m.mode) || reads_value(a.mode);
    const bool wr = writes(m.mode) || writes(a.mode);
    const bool inc = m.mode == Access::INC || a.mode == Access::INC;
    if (rd && wr)
      m.mode = Access::RW;
    else if (wr)
      m.mode = inc && m.mode == a.mode ? Access::INC
               : inc                   ? Access::RW
                                       : Access::WRITE;
    else
      m.mode = Access::READ;
  }
  return merged;
}

namespace {

/// Alg 3 of the paper (calc_halo_layers), verbatim. Returns per-loop
/// per-dat HE plus the per-loop effective maximum.
void calc_halo_layers(const ChainSpec& spec,
                      std::vector<std::map<mesh::dat_id, int>>* he_per_dat,
                      std::vector<int>* he) {
  const int n = static_cast<int>(spec.loops.size());
  he_per_dat->assign(static_cast<std::size_t>(n), {});
  he->assign(static_cast<std::size_t>(n), 1);

  // Collect every dat accessed anywhere in the chain.
  std::map<mesh::dat_id, bool> dats;
  std::vector<std::map<mesh::dat_id, MergedAccess>> merged(
      static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l) {
    merged[static_cast<std::size_t>(l)] =
        merge_loop_accesses(spec.loops[static_cast<std::size_t>(l)]);
    for (const auto& [d, m] : merged[static_cast<std::size_t>(l)])
      dats[d] = true;
  }

  for (const auto& [dat, unused] : dats) {
    (void)unused;
    int halo_ext = 0;
    bool ind_rd = false;
    for (int l = n - 1; l >= 0; --l) {
      int he_dl = 1;
      const auto& lm = merged[static_cast<std::size_t>(l)];
      const auto it = lm.find(dat);
      if (it != lm.end()) {
        const MergedAccess& a = it->second;
        if (ind_rd && writes(a.mode)) {
          he_dl = halo_ext + 1;
          halo_ext = 0;
          ind_rd = false;
        } else if (a.indirect && reads_value(a.mode)) {
          // The printed Alg 3 accumulates (halo_ext += 1) over consecutive
          // indirect reads, but the paper's own Tables 3-4 (period chain,
          // HE_vol of the two limxp reads; jacob chain) show the authors'
          // implementation does not: a fresh read (re)starts the
          // extension at 1 and only a subsequent write deepens it.
          halo_ext = 1;
          he_dl = halo_ext;
          ind_rd = true;
        } else if (!a.indirect && reads_value(a.mode)) {
          he_dl = 1;
          halo_ext = 0;
          ind_rd = false;
        }
      }
      (*he_per_dat)[static_cast<std::size_t>(l)][dat] = he_dl;
    }
  }

  for (int l = 0; l < n; ++l) {
    int m = 1;
    for (const auto& [d, v] : (*he_per_dat)[static_cast<std::size_t>(l)])
      m = std::max(m, v);
    (*he)[static_cast<std::size_t>(l)] = m;
  }
}

/// True when a set can be redundantly executed (sources some map, so it
/// has exec-halo candidates).
bool set_executable(const mesh::MeshDef& mesh, mesh::set_id s) {
  for (mesh::map_id m = 0; m < mesh.num_maps(); ++m)
    if (mesh.map(m).from == s) return true;
  return false;
}

/// Semantic execution depths (backward pass over required value levels).
std::vector<int> calc_exec_depths(const mesh::MeshDef& mesh,
                                  const ChainSpec& spec,
                                  std::vector<char>* exec_halo) {
  const int n = static_cast<int>(spec.loops.size());
  std::vector<int> depth(static_cast<std::size_t>(n), 1);
  exec_halo->assign(static_cast<std::size_t>(n), 0);
  std::map<mesh::dat_id, int> need_level;

  for (int l = n - 1; l >= 0; --l) {
    const LoopSpec& loop = spec.loops[static_cast<std::size_t>(l)];
    const auto merged = merge_loop_accesses(loop);
    int d = 1;
    bool needs_exec = loop.has_indirect_write();
    for (const auto& [dat, m] : merged) {
      if (!writes(m.mode)) continue;
      const auto it = need_level.find(dat);
      if (it == need_level.end() || it->second == 0) continue;
      needs_exec = true;
      // A dat written here and read downstream must be regenerated on
      // the halo; direct writes to a set with no exec halo cannot be.
      OP2CA_REQUIRE(
          m.indirect || set_executable(mesh, loop.set),
          "chain '" + spec.name + "': loop '" + loop.name +
              "' writes dat '" + mesh.dat(dat).name +
              "' (read by a later loop) directly on set '" +
              mesh.set(loop.set).name +
              "', which has no exec halo to recompute the values on — "
              "this chain cannot execute communication-avoiding; split "
              "it at this loop");
      d = std::max(d, it->second + (m.indirect ? 1 : 0));
    }
    depth[static_cast<std::size_t>(l)] = d;
    (*exec_halo)[static_cast<std::size_t>(l)] = needs_exec ? 1 : 0;

    for (const auto& [dat, m] : merged) {
      // A value read by iterations up to layer d consumes the dat at
      // levels <= d — unless every read is a self-combine RW, whose
      // old-value consumption at the write sites is already covered by
      // the dat's existing downstream need.
      if (reads_value(m.mode) &&
          !(writes(m.mode) && m.self_combine))
        need_level[dat] = std::max(need_level[dat], d);
      // A covering overwrite regenerates values; upstream producers no
      // longer matter. Only a direct WRITE is guaranteed covering.
      if (m.mode == Access::WRITE && !m.indirect) need_level[dat] = 0;
    }
  }
  return depth;
}

/// Forward pass: core shrink per loop and pre-chain sync levels per dat.
void calc_shrink_and_syncs(const mesh::MeshDef& mesh, const ChainSpec& spec,
                           const std::vector<int>& exec_depth,
                           const std::vector<char>& exec_halo,
                           std::vector<int>* shrink,
                           std::vector<DatSync>* syncs) {
  const int n = static_cast<int>(spec.loops.size());
  shrink->assign(static_cast<std::size_t>(n), 0);

  std::map<mesh::dat_id, int> sd;   // deferred-write depth into owned
  std::map<mesh::dat_id, int> pr;   // deferred-read depth into owned
  std::map<mesh::dat_id, int> regen;      // level regenerated in-chain
  std::map<mesh::dat_id, bool> triggered;  // pre-chain values consumed

  // Paper packing rule (Eq 4): a synced dat enters the grouped message
  // with eeh+enh layers up to h_l for EVERY loop l that accesses it, so
  // its sync depth is the max effective extension over accessing loops.
  std::map<mesh::dat_id, int> access_depth;
  for (int l = 0; l < n; ++l)
    for (const auto& [dat, m] :
         merge_loop_accesses(spec.loops[static_cast<std::size_t>(l)])) {
      (void)m;
      access_depth[dat] =
          std::max(access_depth[dat],
                   exec_depth[static_cast<std::size_t>(l)]);
    }

  for (int l = 0; l < n; ++l) {
    const LoopSpec& loop = spec.loops[static_cast<std::size_t>(l)];
    const auto merged = merge_loop_accesses(loop);
    const int d = exec_depth[static_cast<std::size_t>(l)];

    bool any_indirect = false;
    for (const auto& [dat, m] : merged) any_indirect |= m.indirect;

    int s = any_indirect ? 1 : 0;
    for (const auto& [dat, m] : merged) {
      const int hop = m.indirect ? 1 : 0;
      if (reads(m.mode)) {  // flow: core must not read deferred writes
        const auto it = sd.find(dat);
        if (it != sd.end() && it->second > 0)
          s = std::max(s, it->second + hop);
      }
      if (writes(m.mode)) {
        // anti: core must not overwrite data deferred reads still need;
        // output: nor data deferred writes will produce afterwards.
        const auto itp = pr.find(dat);
        if (itp != pr.end() && itp->second > 0)
          s = std::max(s, itp->second + hop);
        const auto itw = sd.find(dat);
        if (itw != sd.end() && itw->second > 0)
          s = std::max(s, itw->second + hop);
      }
    }
    (*shrink)[static_cast<std::size_t>(l)] = s;

    // Pre-chain halo values consumed by this loop's reads: fringe level
    // d. Direct reads touch halo elements only when the loop actually
    // executes exec layers.
    for (const auto& [dat, m] : merged) {
      if (!reads_value(m.mode)) continue;
      if (!m.indirect && !exec_halo[static_cast<std::size_t>(l)]) continue;
      const auto rg = regen.find(dat);
      const int have = rg == regen.end() ? 0 : rg->second;
      if (have < d) triggered[dat] = true;
    }

    // Register this loop's deferred footprint and regeneration.
    for (const auto& [dat, m] : merged) {
      const int hop = m.indirect ? 1 : 0;
      if (writes(m.mode)) sd[dat] = std::max(sd[dat], s + hop);
      if (reads(m.mode)) pr[dat] = std::max(pr[dat], s + hop);
      if (m.mode == Access::WRITE) {
        const int rl = m.indirect
                           ? d - 1
                           : (set_executable(mesh, loop.set) ? d : 0);
        regen[dat] = std::max(regen[dat], rl);
      }
    }
  }

  syncs->clear();
  for (const auto& [dat, t] : triggered)
    if (t) syncs->push_back(DatSync{dat, access_depth.at(dat)});
}

}  // namespace

ChainAnalysis inspect_chain(const mesh::MeshDef& mesh,
                            const ChainSpec& spec) {
  OP2CA_REQUIRE(!spec.loops.empty(), "inspect_chain: empty chain");
  for (const LoopSpec& loop : spec.loops) {
    OP2CA_REQUIRE(loop.set >= 0 && loop.set < mesh.num_sets(),
                  "inspect_chain: loop '" + loop.name +
                      "' has an invalid iteration set");
    for (const ArgSpec& a : loop.args) {
      if (a.dat >= 0)
        OP2CA_REQUIRE(a.dat < mesh.num_dats(),
                      "inspect_chain: bad dat in loop '" + loop.name + "'");
      if (a.indirect) {
        OP2CA_REQUIRE(a.map >= 0 && a.map < mesh.num_maps(),
                      "inspect_chain: indirect arg without a map in loop '" +
                          loop.name + "'");
        OP2CA_REQUIRE(mesh.map(a.map).from == loop.set,
                      "inspect_chain: map of indirect arg does not start at "
                      "the iteration set in loop '" +
                          loop.name + "'");
      }
    }
  }

  ChainAnalysis out;
  calc_halo_layers(spec, &out.he_per_dat, &out.he_alg3);

  const std::vector<int> exec_depth =
      calc_exec_depths(mesh, spec, &out.exec_halo);
  // The executor iterates the max of the paper's Alg-3 extension and the
  // semantic depth (they agree on all of the paper's chains).
  out.he.resize(exec_depth.size());
  for (std::size_t l = 0; l < exec_depth.size(); ++l)
    out.he[l] = std::max(out.he_alg3[l], exec_depth[l]);

  calc_shrink_and_syncs(mesh, spec, out.he, out.exec_halo, &out.shrink,
                        &out.syncs);

  out.required_depth = 1;
  for (int h : out.he) out.required_depth = std::max(out.required_depth, h);
  for (const DatSync& s : out.syncs)
    out.required_depth = std::max(out.required_depth, s.depth);
  return out;
}

}  // namespace op2ca::core
