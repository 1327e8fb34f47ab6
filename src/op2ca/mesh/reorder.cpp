#include "op2ca/mesh/reorder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "op2ca/mesh/adjacency.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/rng.hpp"

namespace op2ca::mesh {
namespace {

/// Quantisation resolution per axis for the Morton key. 20 bits x 3
/// axes = 60 bits, fits a uint64 key.
constexpr int kSfcBits = 20;

std::uint64_t interleave_bits(const std::uint32_t* q, int dim) {
  std::uint64_t key = 0;
  for (int b = 0; b < kSfcBits; ++b)
    for (int a = 0; a < dim; ++a)
      key |= static_cast<std::uint64_t>((q[a] >> b) & 1u)
             << (b * dim + a);
  return key;
}

/// Groups larger than this connect as a path instead of a clique: the
/// clique keeps RCM's profile tight for ordinary mesh incidence (a node
/// shared by a handful of edges/cells) without letting a hub target
/// (e.g. a boundary-condition element referenced by thousands of rows)
/// blow the edge list up quadratically.
constexpr std::size_t kCliqueCap = 16;

/// Joins the elements of one group (a map row, or the rows sharing a
/// target) in both directions.
void add_group_edges(std::span<const gidx_t> group,
                     std::vector<std::pair<lidx_t, lidx_t>>* edges) {
  const auto join = [&](std::size_t a, std::size_t b) {
    const auto u = static_cast<lidx_t>(group[a]);
    const auto v = static_cast<lidx_t>(group[b]);
    edges->emplace_back(u, v);
    edges->emplace_back(v, u);
  };
  if (group.size() <= kCliqueCap) {
    for (std::size_t a = 0; a < group.size(); ++a)
      for (std::size_t b = a + 1; b < group.size(); ++b) join(a, b);
  } else {
    for (std::size_t a = 0; a + 1 < group.size(); ++a) join(a, a + 1);
  }
}

/// Loop-conflict adjacency of set `s`: two elements are adjacent when a
/// map entry joins them — either as same-row targets of a map onto `s`,
/// or as rows of a map from `s` sharing a target. This is exactly the
/// structure indirect kernels gather through, so minimising its
/// bandwidth is minimising the gather working set.
LocalCsr conflict_graph(const MeshDef& mesh, set_id s) {
  std::vector<std::pair<lidx_t, lidx_t>> edges;
  for (map_id m = 0; m < mesh.num_maps(); ++m) {
    const MapDef& md = mesh.map(m);
    const auto ar = static_cast<std::size_t>(md.arity);
    if (ar == 0) continue;
    if (md.to == s)
      for (std::size_t f = 0; f < md.targets.size(); f += ar)
        add_group_edges({md.targets.data() + f, ar}, &edges);
    if (md.from == s) {
      const Csr rev = reverse_map(mesh, m);
      for (gidx_t t = 0; t < rev.num_rows(); ++t)
        add_group_edges(rev.row(t), &edges);
    }
  }
  return csr_from_edges(static_cast<lidx_t>(mesh.set(s).size),
                        std::move(edges));
}

/// Rewrites `in` under per-set new_of_old permutations: rows of every
/// map and dat move to their set's new positions and map targets are
/// renamed into the target set's numbering.
MeshDef relabel(const MeshDef& in, const std::vector<GIdxVec>& perm) {
  MeshDef out;
  for (set_id s = 0; s < in.num_sets(); ++s)
    out.add_set(in.set(s).name, in.set(s).size);
  for (map_id m = 0; m < in.num_maps(); ++m) {
    const MapDef& md = in.map(m);
    GIdxVec targets = permute_rows(perm[static_cast<std::size_t>(md.from)],
                                   md.arity, md.targets);
    const GIdxVec& pt = perm[static_cast<std::size_t>(md.to)];
    for (gidx_t& t : targets) t = pt[static_cast<std::size_t>(t)];
    out.add_map(md.name, md.from, md.to, md.arity, std::move(targets));
  }
  for (dat_id d = 0; d < in.num_dats(); ++d) {
    const DatDef& dd = in.dat(d);
    out.add_dat(dd.name, dd.set, dd.dim,
                permute_rows(perm[static_cast<std::size_t>(dd.set)], dd.dim,
                             dd.data));
  }
  if (in.has_coords()) out.set_coords(in.coords_set(), in.coords_dat());
  return out;
}

}  // namespace

bool Permutation::is_identity() const {
  for (lidx_t i = 0; i < size(); ++i)
    if (new_of_old[static_cast<std::size_t>(i)] != i) return false;
  return true;
}

Permutation make_permutation(LIdxVec new_of_old) {
  Permutation p;
  p.new_of_old = std::move(new_of_old);
  const std::size_t n = p.new_of_old.size();
  p.old_of_new.assign(n, kInvalidLocal);
  for (std::size_t i = 0; i < n; ++i) {
    const lidx_t d = p.new_of_old[i];
    OP2CA_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < n &&
                      p.old_of_new[static_cast<std::size_t>(d)] ==
                          kInvalidLocal,
                  "make_permutation: not a bijection");
    p.old_of_new[static_cast<std::size_t>(d)] = static_cast<lidx_t>(i);
  }
  return p;
}

bool permutation_valid(const Permutation& p) {
  const std::size_t n = p.new_of_old.size();
  if (p.old_of_new.size() != n) return false;
  std::vector<bool> hit(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const lidx_t d = p.new_of_old[i];
    if (d < 0 || static_cast<std::size_t>(d) >= n ||
        hit[static_cast<std::size_t>(d)])
      return false;
    hit[static_cast<std::size_t>(d)] = true;
    if (p.old_of_new[static_cast<std::size_t>(d)] !=
        static_cast<lidx_t>(i))
      return false;
  }
  return true;
}

LocalCsr csr_from_edges(lidx_t n,
                        std::vector<std::pair<lidx_t, lidx_t>> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  LocalCsr csr;
  csr.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges)
    if (u != v) ++csr.offsets[static_cast<std::size_t>(u) + 1];
  for (std::size_t i = 1; i < csr.offsets.size(); ++i)
    csr.offsets[i] += csr.offsets[i - 1];
  csr.adj.resize(csr.offsets.back());
  std::vector<std::size_t> at(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const auto& [u, v] : edges)
    if (u != v) csr.adj[at[static_cast<std::size_t>(u)]++] = v;
  return csr;
}

Permutation rcm_order(const LocalCsr& adj) {
  const lidx_t n = adj.num_rows();
  const auto by_degree = [&](lidx_t a, lidx_t b) {
    const std::size_t da = adj.row(a).size();
    const std::size_t db = adj.row(b).size();
    return da != db ? da < db : a < b;
  };
  // Seeds in ascending (degree, index): every component starts from a
  // (locally) minimal-degree element, the usual RCM pseudo-peripheral
  // stand-in.
  LIdxVec seeds(static_cast<std::size_t>(n));
  std::iota(seeds.begin(), seeds.end(), 0);
  std::sort(seeds.begin(), seeds.end(), by_degree);
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  LIdxVec order;
  order.reserve(static_cast<std::size_t>(n));
  for (const lidx_t seed : seeds) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    visited[static_cast<std::size_t>(seed)] = 1;
    order.push_back(seed);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      const lidx_t u = order[head];
      const auto frontier = static_cast<std::ptrdiff_t>(order.size());
      for (const lidx_t v : adj.row(u)) {
        if (visited[static_cast<std::size_t>(v)]) continue;
        visited[static_cast<std::size_t>(v)] = 1;
        order.push_back(v);
      }
      std::sort(order.begin() + frontier, order.end(), by_degree);
    }
  }
  // Reverse Cuthill–McKee: the reversal tightens the profile.
  LIdxVec new_of_old(static_cast<std::size_t>(n));
  for (lidx_t m = 0; m < n; ++m)
    new_of_old[static_cast<std::size_t>(order[static_cast<std::size_t>(m)])] =
        n - 1 - m;
  return make_permutation(std::move(new_of_old));
}

Permutation sfc_order(std::span<const double> coords, int dim, lidx_t n) {
  OP2CA_REQUIRE(dim == 2 || dim == 3, "sfc_order: dim must be 2 or 3");
  OP2CA_REQUIRE(coords.size() >=
                    static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(dim),
                "sfc_order: coords shorter than n x dim");
  const auto x = [&](lidx_t i, int a) {
    return coords[static_cast<std::size_t>(i) * static_cast<std::size_t>(dim) +
                  static_cast<std::size_t>(a)];
  };
  double lo[3] = {std::numeric_limits<double>::max(),
                  std::numeric_limits<double>::max(),
                  std::numeric_limits<double>::max()};
  double hi[3] = {std::numeric_limits<double>::lowest(),
                  std::numeric_limits<double>::lowest(),
                  std::numeric_limits<double>::lowest()};
  for (lidx_t i = 0; i < n; ++i)
    for (int a = 0; a < dim; ++a) {
      lo[a] = std::min(lo[a], x(i, a));
      hi[a] = std::max(hi[a], x(i, a));
    }
  const std::uint32_t qmax = (1u << kSfcBits) - 1u;
  std::vector<std::pair<std::uint64_t, lidx_t>> keyed;
  keyed.reserve(static_cast<std::size_t>(n));
  for (lidx_t i = 0; i < n; ++i) {
    std::uint32_t q[3] = {0, 0, 0};
    for (int a = 0; a < dim; ++a) {
      const double span = hi[a] - lo[a];
      if (span <= 0) continue;
      const double t = (x(i, a) - lo[a]) / span;
      q[a] = static_cast<std::uint32_t>(std::min(1.0, std::max(0.0, t)) *
                                        qmax);
    }
    keyed.emplace_back(interleave_bits(q, dim), i);
  }
  std::sort(keyed.begin(), keyed.end());
  LIdxVec new_of_old(static_cast<std::size_t>(n));
  for (std::size_t m = 0; m < keyed.size(); ++m)
    new_of_old[static_cast<std::size_t>(keyed[m].second)] =
        static_cast<lidx_t>(m);
  return make_permutation(std::move(new_of_old));
}

OrderingQuality ordering_quality(const lidx_t* targets, int arity,
                                 lidx_t num_elements, lidx_t num_targets) {
  OrderingQuality q;
  if (num_elements < 2 || arity < 1) return q;
  // gather_span: per-column jump between consecutive iterations.
  double span_sum = 0.0;
  std::int64_t span_n = 0;
  for (int k = 0; k < arity; ++k) {
    lidx_t prev = kInvalidLocal;
    for (lidx_t e = 0; e < num_elements; ++e) {
      const lidx_t t = targets[static_cast<std::size_t>(e) *
                                   static_cast<std::size_t>(arity) +
                               static_cast<std::size_t>(k)];
      if (t == kInvalidLocal) continue;
      if (prev != kInvalidLocal) {
        span_sum += std::abs(static_cast<double>(t) -
                             static_cast<double>(prev));
        ++span_n;
      }
      prev = t;
    }
  }
  if (span_n > 0) q.gather_span = span_sum / static_cast<double>(span_n);

  // reuse_gap: iteration distance between successive touches of the same
  // target, over all columns.
  std::vector<lidx_t> last_seen(static_cast<std::size_t>(num_targets),
                                kInvalidLocal);
  double gap_sum = 0.0;
  std::int64_t gap_n = 0;
  for (lidx_t e = 0; e < num_elements; ++e)
    for (int k = 0; k < arity; ++k) {
      const lidx_t t = targets[static_cast<std::size_t>(e) *
                                   static_cast<std::size_t>(arity) +
                               static_cast<std::size_t>(k)];
      if (t == kInvalidLocal || t >= num_targets) continue;
      lidx_t& seen = last_seen[static_cast<std::size_t>(t)];
      if (seen != kInvalidLocal && e != seen) {
        gap_sum += static_cast<double>(e - seen);
        ++gap_n;
      }
      seen = e;
    }
  if (gap_n > 0) q.reuse_gap = gap_sum / static_cast<double>(gap_n);
  return q;
}

MeshDef scramble_mesh(const MeshDef& in, std::uint64_t seed,
                      std::vector<GIdxVec>* perms_out) {
  Rng rng(seed);
  std::vector<GIdxVec> perm(static_cast<std::size_t>(in.num_sets()));
  for (set_id s = 0; s < in.num_sets(); ++s) {
    const gidx_t n = in.set(s).size;
    GIdxVec& p = perm[static_cast<std::size_t>(s)];
    p.resize(static_cast<std::size_t>(n));
    std::iota(p.begin(), p.end(), gidx_t{0});
    // Fisher–Yates with the repo's deterministic generator.
    for (gidx_t i = n - 1; i > 0; --i) {
      const gidx_t j = static_cast<gidx_t>(rng.next_int(0, i));
      std::swap(p[static_cast<std::size_t>(i)],
                p[static_cast<std::size_t>(j)]);
    }
  }
  MeshDef out = relabel(in, perm);
  if (perms_out != nullptr) *perms_out = std::move(perm);
  return out;
}

MeshDef renumber(const MeshDef& in, ReorderKind kind,
                 std::vector<GIdxVec>* perms_out) {
  std::vector<GIdxVec> perm(static_cast<std::size_t>(in.num_sets()));
  for (set_id s = 0; s < in.num_sets(); ++s) {
    const SetDef& sd = in.set(s);
    OP2CA_REQUIRE(sd.size <= std::numeric_limits<lidx_t>::max(),
                  "renumber: set '" + sd.name + "' has " +
                      std::to_string(sd.size) +
                      " elements, more than lidx_t can index");
    std::vector<double> coords;
    if (kind != ReorderKind::RCM) {
      try {
        coords = derive_coords(in, s);
      } catch (const Error&) {
        OP2CA_REQUIRE(kind == ReorderKind::Auto,
                      "renumber: SFC requested for set '" + sd.name +
                          "' but no geometric path exists");
      }
    }
    const Permutation p =
        coords.empty()
            ? rcm_order(conflict_graph(in, s))
            : sfc_order(coords, in.dat(in.coords_dat()).dim,
                        static_cast<lidx_t>(sd.size));
    perm[static_cast<std::size_t>(s)].assign(p.new_of_old.begin(),
                                             p.new_of_old.end());
  }
  MeshDef out = relabel(in, perm);
  if (perms_out != nullptr) *perms_out = std::move(perm);
  return out;
}

}  // namespace op2ca::mesh
