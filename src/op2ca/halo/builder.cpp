// Halo plan construction.
//
// Per rank, a layered classification BFS over the global mesh assigns
// every element reachable from the owned region a class:
//
//   owned            -- partition assignment says so
//   exec layer k     -- foreign element whose forward map targets reach
//                       the region E_{k-1}; executing it redundantly
//                       updates data the rank needs (paper's ieh level k)
//   nonexec layer k  -- read-only fringe: map target of an owned (k = 1)
//                       or layer-k exec element, outside the region
//                       (paper's inh level k)
//
// E_k = owned u exec(<=k) u nonexec(<=k). A nonexec element later found
// to map into the region is promoted to exec at that layer (possible for
// sets that are both map sources and targets, e.g. cells).
//
// Owned elements are ordered by decreasing inward distance din (BFS from
// the partition boundary over symmetric adjacency), so shrinking cores
// are prefixes. Imports are ordered by (layer, global id); export lists
// on the owner mirror the importer's order exactly.
//
// Every per-element lookup is a dense array indexed by global id. Ranks
// run one per worker of a ThreadPool, and a rank's passes write only its
// own RankPlan, its owned entries of owned_local_idx and its own export
// lists, so the plan does not depend on the worker count.
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>

#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/mesh/adjacency.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/thread_pool.hpp"

namespace op2ca::halo {
namespace {

/// Classification code: 0 = owned, +k = exec layer k, -k = nonexec layer
/// k, kUnset = not reached. One byte per element, so plans deeper than
/// 127 layers are rejected.
constexpr std::int8_t kUnset = INT8_MIN;

struct Frontier {
  std::vector<std::pair<mesh::set_id, gidx_t>> elems;
};

struct GlobalContext {
  const mesh::MeshDef* mesh;
  const partition::Partition* part;
  std::vector<mesh::Csr> reverse;                 ///< per map id.
  std::vector<std::vector<GIdxVec>> owned;        ///< [rank][set] gids.
  /// owned_local_idx[set][gid] = local index on the owning rank (filled
  /// as each rank's layout is finalized; used for export registration).
  std::vector<LIdxVec> owned_local_idx;
  /// Per-set map indices, so the per-element BFS loops do not scan every
  /// map of the mesh (the builder's hottest paths).
  std::vector<std::vector<mesh::map_id>> maps_from;  ///< [set].
  std::vector<std::vector<mesh::map_id>> maps_to;    ///< [set].
};

/// One worker's per-set arrays. cls and idx are indexed by global id and
/// sized to the global sets (5 bytes per element); a rank sets entries
/// only for its local elements and unsets exactly those when it is done,
/// so one allocation serves every rank the worker builds.
struct Scratch {
  std::vector<std::vector<std::int8_t>> cls;  ///< class code or kUnset.
  /// din of an owned element, local index of an imported one (never the
  /// same element); kInvalidLocal when unset.
  std::vector<LIdxVec> idx;
  /// [set][k - 1] = exec layer k, [set][depth + k - 1] = nonexec layer k,
  /// unsorted. A promoted element also stays in its nonexec layer.
  std::vector<std::vector<GIdxVec>> layers;
};

/// Walks one rank's classification BFS up to `depth` layers into sc->cls
/// and sc->layers.
void classify_rank(const GlobalContext& ctx, rank_t r, int depth,
                   Scratch* sc) {
  const mesh::MeshDef& mesh = *ctx.mesh;
  const int nsets = mesh.num_sets();
  std::vector<std::vector<std::int8_t>>& cls = sc->cls;

  Frontier frontier;
  for (mesh::set_id s = 0; s < nsets; ++s) {
    for (gidx_t g : ctx.owned[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(s)]) {
      cls[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)] = 0;
      frontier.elems.emplace_back(s, g);
    }
  }

  for (int layer = 1; layer <= depth; ++layer) {
    Frontier next;

    // Phase 1: exec discovery. Any unclassified (or nonexec) element with
    // a forward map target in the frontier's region joins exec layer
    // `layer`. Reverse incidence of frontier elements enumerates exactly
    // those candidates.
    std::vector<std::pair<mesh::set_id, gidx_t>> new_exec;
    for (const auto& [ts, tg] : frontier.elems) {
      for (mesh::map_id m : ctx.maps_to[static_cast<std::size_t>(ts)]) {
        const mesh::MapDef& mp = mesh.map(m);
        for (gidx_t f : ctx.reverse[static_cast<std::size_t>(m)].row(tg)) {
          std::int8_t& c = cls[static_cast<std::size_t>(mp.from)]
                              [static_cast<std::size_t>(f)];
          if (c >= 0) continue;  // owned or exec already
          // A nonexec fringe element is promoted to exec at this layer
          // and also stays listed in its nonexec layer, for aliasing.
          c = static_cast<std::int8_t>(layer);
          sc->layers[static_cast<std::size_t>(mp.from)]
                    [static_cast<std::size_t>(layer - 1)]
                        .push_back(f);
          new_exec.emplace_back(mp.from, f);
        }
      }
    }

    // Phase 2: nonexec fringe — unclassified targets of the new exec
    // elements (and, at layer 1, of all owned from-elements).
    auto add_targets_of = [&](mesh::set_id fs, gidx_t f) {
      for (mesh::map_id m : ctx.maps_from[static_cast<std::size_t>(fs)]) {
        const mesh::MapDef& mp = mesh.map(m);
        for (int k = 0; k < mp.arity; ++k) {
          const gidx_t t =
              mp.targets[static_cast<std::size_t>(f * mp.arity + k)];
          std::int8_t& c = cls[static_cast<std::size_t>(mp.to)]
                              [static_cast<std::size_t>(t)];
          if (c == kUnset) {
            c = static_cast<std::int8_t>(-layer);
            sc->layers[static_cast<std::size_t>(mp.to)]
                      [static_cast<std::size_t>(depth + layer - 1)]
                          .push_back(t);
            next.elems.emplace_back(mp.to, t);
          }
        }
      }
    };
    if (layer == 1) {
      for (mesh::set_id s = 0; s < nsets; ++s)
        for (gidx_t g : ctx.owned[static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(s)])
          add_targets_of(s, g);
    }
    for (const auto& [fs, f] : new_exec) add_targets_of(fs, f);

    for (const auto& e : new_exec) next.elems.push_back(e);
    frontier = std::move(next);
  }
}

/// Inward distances of one rank's owned elements, all sets jointly, into
/// sc->idx (kInvalidLocal = not reached): BFS from the partition boundary
/// over the bipartite element graph where one map hop (source <-> target,
/// either direction) is distance 1. These are the units the CA
/// inspector's core-shrink arithmetic uses: an indirect access moves
/// exactly one hop, a direct access zero.
void compute_din(const GlobalContext& ctx, rank_t r, Scratch* sc) {
  const mesh::MeshDef& mesh = *ctx.mesh;
  const partition::Partition& part = *ctx.part;
  const int nsets = mesh.num_sets();

  // Symmetric neighbour visitor across all maps touching an element.
  auto for_each_neighbor = [&](mesh::set_id es, gidx_t eg, auto&& fn) {
    for (mesh::map_id m : ctx.maps_from[static_cast<std::size_t>(es)]) {
      const mesh::MapDef& mp = mesh.map(m);
      for (int k = 0; k < mp.arity; ++k)
        fn(mp.to,
           mp.targets[static_cast<std::size_t>(eg * mp.arity + k)]);
    }
    for (mesh::map_id m : ctx.maps_to[static_cast<std::size_t>(es)]) {
      const mesh::MapDef& mp = mesh.map(m);
      for (gidx_t f : ctx.reverse[static_cast<std::size_t>(m)].row(eg))
        fn(mp.from, f);
    }
  };

  // Seed: owned elements adjacent to any foreign element have din = 1.
  std::vector<std::pair<mesh::set_id, gidx_t>> frontier;
  for (mesh::set_id s = 0; s < nsets; ++s) {
    for (gidx_t g : ctx.owned[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(s)]) {
      bool boundary = false;
      for_each_neighbor(s, g, [&](mesh::set_id ns, gidx_t ng) {
        if (!boundary && part.owner(ns, ng) != r) boundary = true;
      });
      if (boundary) {
        sc->idx[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)] = 1;
        frontier.emplace_back(s, g);
      }
    }
  }

  int level = 1;
  while (!frontier.empty()) {
    std::vector<std::pair<mesh::set_id, gidx_t>> next;
    for (const auto& [s, g] : frontier) {
      for_each_neighbor(s, g, [&](mesh::set_id ns, gidx_t ng) {
        if (part.owner(ns, ng) != r) return;
        lidx_t& d = sc->idx[static_cast<std::size_t>(ns)]
                           [static_cast<std::size_t>(ng)];
        if (d == kInvalidLocal) {
          d = level + 1;
          next.emplace_back(ns, ng);
        }
      });
    }
    frontier = std::move(next);
    ++level;
    if (level >= SetLayout::kDinCap) break;
  }
}

/// Pass 1 for one rank: classification, layouts, import lists and, with
/// `local_maps`, localized maps into *rp; fills the rank's entries of
/// ctx->owned_local_idx. Leaves *sc unset again.
void build_rank(GlobalContext* ctx, rank_t r, int depth, bool local_maps,
                Scratch* sc, RankPlan* rp) {
  const mesh::MeshDef& mesh = *ctx->mesh;
  const partition::Partition& part = *ctx->part;
  const int nsets = mesh.num_sets();
  rp->sets.resize(static_cast<std::size_t>(nsets));
  rp->lists.resize(static_cast<std::size_t>(nsets));

  classify_rank(*ctx, r, depth, sc);
  compute_din(*ctx, r, sc);

  for (mesh::set_id s = 0; s < nsets; ++s) {
    SetLayout& lay = rp->sets[static_cast<std::size_t>(s)];
    NeighborLists& nl = rp->lists[static_cast<std::size_t>(s)];
    const std::vector<std::int8_t>& cls = sc->cls[static_cast<std::size_t>(s)];
    LIdxVec& idx = sc->idx[static_cast<std::size_t>(s)];

    // Owned ordering: din descending, global id ascending.
    const auto& mine = ctx->owned[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(s)];
    std::vector<std::pair<int, gidx_t>> owned_sorted;
    owned_sorted.reserve(mine.size());
    for (gidx_t g : mine) {
      const lidx_t d = idx[static_cast<std::size_t>(g)];
      owned_sorted.emplace_back(d == kInvalidLocal ? SetLayout::kDinCap : d,
                                g);
    }
    std::sort(owned_sorted.begin(), owned_sorted.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

    // Appends g to the local elements, recording its local index.
    auto append = [&](gidx_t g) {
      const auto li = static_cast<lidx_t>(lay.local_to_global.size());
      idx[static_cast<std::size_t>(g)] = li;
      lay.local_to_global.push_back(g);
      return li;
    };
    // Adds local index li of g to its owner's layer-k list in `tab`.
    auto add_to_list = [&](std::map<rank_t, std::vector<LIdxVec>>& tab,
                           int k, gidx_t g, lidx_t li) {
      auto& lists = tab[part.owner(s, g)];
      if (lists.empty()) lists.resize(static_cast<std::size_t>(depth));
      lists[static_cast<std::size_t>(k - 1)].push_back(li);
    };

    lay.num_owned = static_cast<lidx_t>(owned_sorted.size());
    lay.local_to_global.reserve(owned_sorted.size());
    lay.owned_din.reserve(owned_sorted.size());
    for (const auto& [d, g] : owned_sorted) {
      ctx->owned_local_idx[static_cast<std::size_t>(s)]
                          [static_cast<std::size_t>(g)] = append(g);
      lay.owned_din.push_back(d);
    }

    // Import layers: exec 1..depth then nonexec 1..depth, each sorted
    // by global id; per-neighbour sublists keep that order.
    std::vector<GIdxVec>& layers = sc->layers[static_cast<std::size_t>(s)];
    for (GIdxVec& layer : layers) std::sort(layer.begin(), layer.end());
    lay.exec_end.assign(static_cast<std::size_t>(depth) + 1,
                        lay.num_owned);
    for (int k = 1; k <= depth; ++k) {
      for (gidx_t g : layers[static_cast<std::size_t>(k - 1)])
        add_to_list(nl.imp_exec, k, g, append(g));
      lay.exec_end[static_cast<std::size_t>(k)] =
          static_cast<lidx_t>(lay.local_to_global.size());
    }

    // Promoted elements re-enter the nonexec lists at their original
    // read layer as aliases: iterations of that layer read them, so any
    // exchange of that depth delivers them, into their exec-segment slot.
    lay.nonexec_end.assign(static_cast<std::size_t>(depth) + 1,
                           lay.exec_end[static_cast<std::size_t>(depth)]);
    for (int k = 1; k <= depth; ++k) {
      const GIdxVec& layer = layers[static_cast<std::size_t>(depth + k - 1)];
      for (gidx_t g : layer)
        if (cls[static_cast<std::size_t>(g)] < 0)
          add_to_list(nl.imp_nonexec, k, g, append(g));
      for (gidx_t g : layer)
        if (cls[static_cast<std::size_t>(g)] > 0)
          add_to_list(nl.imp_nonexec, k, g, idx[static_cast<std::size_t>(g)]);
      lay.nonexec_end[static_cast<std::size_t>(k)] =
          static_cast<lidx_t>(lay.local_to_global.size());
    }
    for (GIdxVec& layer : layers) layer.clear();

    lay.total = static_cast<lidx_t>(lay.local_to_global.size());

    for (const auto* tab : {&nl.imp_exec, &nl.imp_nonexec}) {
      for (const auto& [q, lists] : *tab) {
        OP2CA_ASSERT(q != r, "import from self");
        rp->neighbors.insert(q);
      }
    }
  }

  // Localized maps: sc->idx now holds the local index of every local
  // element and kInvalidLocal everywhere else.
  if (local_maps) {
    rp->maps.resize(static_cast<std::size_t>(mesh.num_maps()));
    for (mesh::map_id m = 0; m < mesh.num_maps(); ++m) {
      const mesh::MapDef& mp = mesh.map(m);
      const GIdxVec& from =
          rp->sets[static_cast<std::size_t>(mp.from)].local_to_global;
      const LIdxVec& to_local = sc->idx[static_cast<std::size_t>(mp.to)];
      LocalMap& lm = rp->maps[static_cast<std::size_t>(m)];
      lm.arity = mp.arity;
      lm.targets.reserve(from.size() * static_cast<std::size_t>(mp.arity));
      for (gidx_t gf : from)
        for (int k = 0; k < mp.arity; ++k)
          lm.targets.push_back(to_local[static_cast<std::size_t>(
              mp.targets[static_cast<std::size_t>(gf * mp.arity + k)])]);
    }
  }

  // Every entry the rank set belongs to one of its local elements.
  for (std::size_t s = 0; s < rp->sets.size(); ++s) {
    for (gidx_t g : rp->sets[s].local_to_global) {
      sc->cls[s][static_cast<std::size_t>(g)] = kUnset;
      sc->idx[s][static_cast<std::size_t>(g)] = kInvalidLocal;
    }
  }
}

/// Pass 2 for one owner rank o: rank q's import list from o maps
/// one-to-one (same order) onto o's export list toward q. `importers`
/// are the ranks whose import lists name o.
void register_exports(const GlobalContext& ctx, rank_t o,
                      const std::vector<rank_t>& importers, int depth,
                      HaloPlan* plan) {
  RankPlan& op = plan->ranks[static_cast<std::size_t>(o)];
  for (rank_t q : importers) {
    const RankPlan& qp = plan->ranks[static_cast<std::size_t>(q)];
    op.neighbors.insert(q);
    for (std::size_t s = 0; s < qp.sets.size(); ++s) {
      const SetLayout& qlay = qp.sets[s];
      auto copy = [&](const std::map<rank_t, std::vector<LIdxVec>>& imp,
                      std::map<rank_t, std::vector<LIdxVec>>& exp_tab) {
        const auto it = imp.find(o);
        if (it == imp.end()) return;
        std::vector<LIdxVec>& exp = exp_tab[q];
        exp.resize(static_cast<std::size_t>(depth));
        for (int k = 0; k < depth; ++k) {
          for (lidx_t li : it->second[static_cast<std::size_t>(k)]) {
            const gidx_t g =
                qlay.local_to_global[static_cast<std::size_t>(li)];
            const lidx_t owner_local =
                ctx.owned_local_idx[s][static_cast<std::size_t>(g)];
            OP2CA_ASSERT(owner_local != kInvalidLocal,
                         "imported element has no owner-local index");
            exp[static_cast<std::size_t>(k)].push_back(owner_local);
          }
        }
      };
      copy(qp.lists[s].imp_exec, op.lists[s].exp_exec);
      copy(qp.lists[s].imp_nonexec, op.lists[s].exp_nonexec);
    }
  }
}

}  // namespace

HaloPlan build_halo_plan(const mesh::MeshDef& mesh,
                         const partition::Partition& part,
                         const HaloPlanOptions& options) {
  OP2CA_REQUIRE(options.depth >= 1, "halo depth must be >= 1");
  static_assert(kMaxHaloDepth == INT8_MAX);
  OP2CA_REQUIRE(options.depth <= kMaxHaloDepth,
                "halo depth " + std::to_string(options.depth) +
                    " exceeds the plan builder's limit of " +
                    std::to_string(kMaxHaloDepth) + " layers");
  OP2CA_REQUIRE(part.nranks >= 1, "partition has no ranks");
  OP2CA_REQUIRE(static_cast<int>(part.assignment.size()) == mesh.num_sets(),
                "partition does not cover all sets");

  const int nsets = mesh.num_sets();
  const int depth = options.depth;

  GlobalContext ctx;
  ctx.mesh = &mesh;
  ctx.part = &part;
  ctx.reverse.reserve(static_cast<std::size_t>(mesh.num_maps()));
  ctx.maps_from.assign(static_cast<std::size_t>(nsets), {});
  ctx.maps_to.assign(static_cast<std::size_t>(nsets), {});
  for (mesh::map_id m = 0; m < mesh.num_maps(); ++m) {
    ctx.reverse.push_back(mesh::reverse_map(mesh, m));
    ctx.maps_from[static_cast<std::size_t>(mesh.map(m).from)].push_back(m);
    ctx.maps_to[static_cast<std::size_t>(mesh.map(m).to)].push_back(m);
  }

  // Per-element arrays are indexed by global id and owner, so a malformed
  // partition must fail here rather than read or write out of bounds.
  ctx.owned.assign(static_cast<std::size_t>(part.nranks),
                   std::vector<GIdxVec>(static_cast<std::size_t>(nsets)));
  for (mesh::set_id s = 0; s < nsets; ++s) {
    const std::string set = "set '" + mesh.set(s).name + "'";
    const gidx_t n = mesh.set(s).size;
    const auto len = static_cast<gidx_t>(
        part.assignment[static_cast<std::size_t>(s)].size());
    OP2CA_REQUIRE(len == n,
                  "partition assignment of " + set + " has " +
                      std::to_string(len) + " entries for " +
                      std::to_string(n) + " elements (first bad element " +
                      std::to_string(std::min(len, n)) + ")");
    for (gidx_t g = 0; g < n; ++g) {
      const rank_t o = part.owner(s, g);
      OP2CA_REQUIRE(o >= 0 && o < part.nranks,
                    "partition assigns element " + std::to_string(g) +
                        " of " + set + " to rank " + std::to_string(o) +
                        ", outside [0, " + std::to_string(part.nranks) + ")");
      ctx.owned[static_cast<std::size_t>(o)][static_cast<std::size_t>(s)]
          .push_back(g);
    }
    ctx.owned_local_idx.emplace_back(static_cast<std::size_t>(n),
                                     kInvalidLocal);
  }

  HaloPlan plan;
  plan.nranks = part.nranks;
  plan.depth = depth;
  plan.has_local_maps = options.build_local_maps;
  plan.ranks.resize(static_cast<std::size_t>(part.nranks));

  // One rank per worker: rank r runs on worker r % nworkers.
  util::ThreadPool pool(std::max(
      1, std::min<int>(part.nranks, std::thread::hardware_concurrency())));
  const int nworkers = pool.threads();

  // Pass 1: per-rank classification, layouts, import lists, local maps.
  pool.run([&](int w) {
    Scratch sc;
    for (mesh::set_id s = 0; s < nsets; ++s) {
      const auto n = static_cast<std::size_t>(mesh.set(s).size);
      sc.cls.emplace_back(n, kUnset);
      sc.idx.emplace_back(n, kInvalidLocal);
      sc.layers.emplace_back(2 * static_cast<std::size_t>(depth));
    }
    for (rank_t r = w; r < part.nranks; r += nworkers)
      build_rank(&ctx, r, depth, options.build_local_maps, &sc,
                 &plan.ranks[static_cast<std::size_t>(r)]);
  });

  // Pass 2: export registration. After pass 1, a rank's neighbours are
  // exactly the owners it imports from.
  std::vector<std::vector<rank_t>> importers(
      static_cast<std::size_t>(part.nranks));
  for (rank_t q = 0; q < part.nranks; ++q)
    for (rank_t o : plan.ranks[static_cast<std::size_t>(q)].neighbors)
      importers[static_cast<std::size_t>(o)].push_back(q);
  pool.run([&](int w) {
    for (rank_t o = w; o < part.nranks; o += nworkers)
      register_exports(ctx, o, importers[static_cast<std::size_t>(o)], depth,
                       &plan);
  });

  return plan;
}

}  // namespace op2ca::halo
