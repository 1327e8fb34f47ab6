// Mesh renumbering for cache locality.
//
// Indirect kernels gather and scatter through maps. When a mesh file
// lists elements in arbitrary order, those gathers hop through memory
// and the sweep is bound by cache misses rather than compute (Sulyok et
// al., "Locality Optimized Unstructured Mesh Algorithms on GPUs").
// renumber() relabels every set of a global MeshDef once, before a World
// partitions it. The halo plan orders each rank's owned elements by
// (inward distance, global id) and its imports by (layer, global id), so
// a renumbered mesh reaches every rank in locality order with no
// per-rank pass. Orderings:
//
//  * RCM — Reverse Cuthill–McKee over the loop-conflict adjacency
//    (elements adjacent when a map entry joins them), the classic
//    bandwidth-minimising order for gather/scatter locality.
//  * SFC — Morton space-filling-curve order over (derived) element
//    coordinates, which clusters geometric neighbours.
//  * Auto — SFC for sets with a geometric path to the coords, else RCM.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "op2ca/mesh/mesh_def.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::mesh {

enum class ReorderKind {
  RCM,   ///< Reverse Cuthill–McKee over the conflict adjacency.
  SFC,   ///< Morton space-filling curve over (derived) coordinates.
  Auto,  ///< SFC when the set has a geometric path, else RCM.
};

/// A permutation of one set: new_of_old[i] is the new index of the
/// element previously at i, old_of_new its inverse. Empty vectors mean
/// identity.
struct Permutation {
  LIdxVec new_of_old;
  LIdxVec old_of_new;

  lidx_t size() const { return static_cast<lidx_t>(new_of_old.size()); }
  bool empty() const { return new_of_old.empty(); }
  bool is_identity() const;
};

/// Builds the inverse and validates bijectivity; raises on a non-permutation.
Permutation make_permutation(LIdxVec new_of_old);
/// Property-test predicate: both directions present, mutually inverse,
/// and each a bijection on [0, size).
bool permutation_valid(const Permutation& p);

/// Symmetric adjacency in CSR form (lidx_t index space).
struct LocalCsr {
  std::vector<std::size_t> offsets;  ///< size = num_rows + 1.
  LIdxVec adj;

  lidx_t num_rows() const {
    return static_cast<lidx_t>(offsets.empty() ? 0 : offsets.size() - 1);
  }
  std::span<const lidx_t> row(lidx_t e) const {
    const std::size_t b = offsets[static_cast<std::size_t>(e)];
    return {adj.data() + b, offsets[static_cast<std::size_t>(e) + 1] - b};
  }
};

/// Builds a CSR from an (unsorted, possibly duplicated) directed edge
/// list over [0, n); callers emit both directions for symmetry.
/// Self-loops and duplicates are dropped; rows come out sorted.
LocalCsr csr_from_edges(lidx_t n,
                        std::vector<std::pair<lidx_t, lidx_t>> edges);

/// Reverse Cuthill–McKee: per connected component a BFS from a
/// minimum-degree seed, neighbours visited in ascending (degree, index)
/// order, then the visit order reversed.
Permutation rcm_order(const LocalCsr& adj);

/// Morton (Z-order) space-filling-curve order. `coords` is row-major
/// n x dim (dim 2 or 3); the bounding box is quantised to a 2^kSfcBits
/// grid and elements sorted by interleaved key (ties by original index —
/// the order is deterministic).
Permutation sfc_order(std::span<const double> coords, int dim, lidx_t n);

/// Applies a new_of_old permutation to row-major data:
/// out[new * dim + c] = in[old * dim + c]. Empty means identity.
template <typename T, typename I>
std::vector<T> permute_rows(const std::vector<I>& new_of_old, int dim,
                            const std::vector<T>& in) {
  if (new_of_old.empty()) return in;
  std::vector<T> out(in.size());
  const std::size_t d = static_cast<std::size_t>(dim);
  for (std::size_t i = 0; i < new_of_old.size(); ++i) {
    const std::size_t dst = static_cast<std::size_t>(new_of_old[i]) * d;
    for (std::size_t c = 0; c < d; ++c) out[dst + c] = in[i * d + c];
  }
  return out;
}

/// Inverse of permute_rows: recovers the original row order (e.g. a
/// fetched dat of a renumbered mesh, back in the input's numbering).
template <typename T, typename I>
std::vector<T> unpermute_rows(const std::vector<I>& new_of_old, int dim,
                              const std::vector<T>& in) {
  if (new_of_old.empty()) return in;
  std::vector<T> out(in.size());
  const std::size_t d = static_cast<std::size_t>(dim);
  for (std::size_t i = 0; i < new_of_old.size(); ++i) {
    const std::size_t src = static_cast<std::size_t>(new_of_old[i]) * d;
    for (std::size_t c = 0; c < d; ++c) out[i * d + c] = in[src + c];
  }
  return out;
}

/// Mesh-quality proxies of one localized map, walked in iteration order:
///  * gather_span — mean |target(e, k) - target(e-1, k)| between
///    consecutive iterations (how far each gather stream jumps, in
///    elements; lower = more cache-line reuse between iterations).
///  * reuse_gap — mean number of iterations between successive touches
///    of the same target (a reuse-distance proxy: lower = the second
///    touch more likely still cached).
struct OrderingQuality {
  double gather_span = 0.0;
  double reuse_gap = 0.0;
};

OrderingQuality ordering_quality(const lidx_t* targets, int arity,
                                 lidx_t num_elements, lidx_t num_targets);

/// Deterministically scrambles every set's global numbering (maps, dats
/// and coords rewritten consistently). Bench/test utility: hex3d comes
/// out of the generator in cache-friendly lexicographic order, which no
/// real mesh file guarantees; scrambling reproduces the arbitrary-order
/// baseline the reordering literature starts from. `perms_out`, when
/// non-null, receives per-set new_of_old global permutations.
MeshDef scramble_mesh(const MeshDef& in, std::uint64_t seed,
                      std::vector<GIdxVec>* perms_out = nullptr);

/// Renumbers every set of `in` in `kind` order, rewriting maps, dats and
/// coords like scramble_mesh. Call it before constructing a World; map
/// fetched results back with unpermute_rows and the set's permutation,
/// which `perms_out` (when non-null) receives as per-set new_of_old.
/// Raises when SFC is requested for a set with no geometric path (Auto
/// falls back to RCM there) or a set has more elements than lidx_t
/// indexes.
MeshDef renumber(const MeshDef& in, ReorderKind kind,
                 std::vector<GIdxVec>* perms_out = nullptr);

}  // namespace op2ca::mesh
