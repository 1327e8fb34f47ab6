// Hierarchical two-level colouring and shared-memory staging for the
// device executor (the GPU locality scheme of Sulyok et al.,
// arXiv:1802.03749).
//
// A flat colour sweep serialises the whole from-set into num_colours
// global phases — on a device that means one kernel launch per colour
// and no data reuse between elements of different colours. The
// hierarchical scheme instead colours at two levels:
//
//   outer: contiguous blocks of `block_elems` elements are coloured for
//          INTER-block conflicts (mesh::block_colouring — two blocks
//          conflict when any of their elements share an indirect
//          target). All blocks of one outer colour run concurrently,
//          one block per "thread block".
//   inner: within a block, elements are coloured for INTRA-block
//          conflicts. A block gathers its unique indirect targets into
//          a simulated shared-memory staging buffer once, then executes
//          its elements inner-colour by inner-colour (a __syncthreads
//          between rounds), and scatters the staging back — so a
//          target updated by five elements is read and written through
//          global memory once, not five times.
//
// Block size is clamped (halved) until a block's unique targets fit the
// configured shared memory, mirroring the occupancy constraint of the
// real kernels. Everything here is a pure function of (n, views,
// block_elems), so the schedule is deterministic at any thread width.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "op2ca/mesh/colouring.hpp"
#include "op2ca/mesh/layout.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::gpu {

/// The two-level schedule for one (set, map-signature) pair.
struct HierColouring {
  /// Outer level: blocks coloured for inter-block conflicts (the
  /// existing blocked colouring; block_elems recorded there).
  mesh::Colouring blocks;
  /// Blocks of each outer colour, ascending block ids:
  /// colour_blocks[c] lists the blocks launched concurrently in phase c.
  std::vector<LIdxVec> colour_blocks;
  /// Inner level: per element, its colour within its block (0-based,
  /// dense per block).
  std::vector<int> elem_colour;
  /// Per block, the number of inner colours (rounds) it executes.
  std::vector<int> block_rounds;
  /// Per block, its elements stably sorted by (inner colour, id) — the
  /// execution order within the block; one contiguous span per block in
  /// block_order via block_off.
  LIdxVec block_order;
  std::vector<std::size_t> block_off;  ///< CSR offsets, num_blocks + 1.
  /// Per block, unique indirect targets of the primary view (the
  /// shared-staging footprint); used by the block-size clamp and the
  /// staging gather/scatter.
  std::vector<lidx_t> block_unique_targets;
  int max_inner_colours = 0;

  lidx_t num_blocks() const {
    return block_off.empty() ? 0 : static_cast<lidx_t>(block_off.size()) - 1;
  }
};

/// Builds the two-level schedule. `block_elems` is the requested block
/// size before the shared-memory clamp: if `shared_bytes` > 0 and
/// `max_dim` > 0 the block size halves until every block's unique
/// targets fit (`unique_targets * max_dim * sizeof(double) <=
/// shared_bytes`), flooring at 1.
HierColouring hierarchical_colouring(lidx_t n,
                                     std::span<const mesh::ColourMapView> views,
                                     lidx_t block_elems,
                                     std::size_t shared_bytes = 0,
                                     int max_dim = 0);

/// The two-level schedule as a mesh::Colouring for the host colour-class
/// sweep: class c lists the blocks of outer colour c in ascending order,
/// each block's elements in block_order (inner colour, then id), and
/// colour[e] is the outer colour of e's block. A class sweep that keeps
/// each block on one thread runs exactly this schedule at every width.
mesh::Colouring sweep_colouring(const HierColouring& h);

/// Validity predicate (property tests): outer colouring valid at block
/// granularity AND, within every block, no two elements of the same
/// inner colour share a target through any view.
bool hierarchical_valid(const HierColouring& h, lidx_t n,
                        std::span<const mesh::ColourMapView> views);

/// Simulated shared-memory staging of one block: the block's unique
/// targets of one view, with a per-(element, slot) index translating
/// the map's global target ids into staging rows.
struct SharedStaging {
  LIdxVec targets;  ///< unique target rows, ascending.
  /// Per (element-in-block-order, k): row in `targets` holding
  /// map[e * arity + k]; kInvalidLocal where the map entry is invalid.
  LIdxVec slot;
  int arity = 0;
};

/// Builds the staging index of block `b` of `h` for `view`.
SharedStaging build_shared_staging(const HierColouring& h, lidx_t b,
                                   const mesh::ColourMapView& view);

/// Gathers the staged rows out of a (layout-aware) dat array into the
/// dense staging buffer `out` (targets.size() * dim doubles, row-major).
void staging_gather(const SharedStaging& s, const double* data,
                    const mesh::DatLayout* lay, int dim, double* out);
/// Scatters the dense staging buffer back into the dat array.
void staging_scatter(const SharedStaging& s, const double* in,
                     const mesh::DatLayout* lay, int dim, double* data);

}  // namespace op2ca::gpu
