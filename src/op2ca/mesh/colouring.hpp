// Greedy block colouring for race-free shared-memory execution of
// indirect-increment loops (the classic OP2 intra-rank parallelisation:
// Reguly et al., "Acceleration of a Full-scale Industrial CFD
// Application with OP2"). The from-set is cut into contiguous blocks; two
// blocks conflict when any map entering the colouring sends an element of
// each onto the same target element. The colouring partitions the blocks
// into classes that contain no conflict, so the blocks of one class can
// run in any order — and in particular split across threads — with each
// written target touched by one block only.
//
// The colouring is a pure function of (element count, block size, target
// arrays): first-fit over blocks in ascending order. Thread count never
// enters, which is what makes colour-ordered parallel sweeps
// deterministic at any pool width.
#pragma once

#include <span>
#include <vector>

#include "op2ca/util/types.hpp"

namespace op2ca::mesh {

/// One map's localized view entering a colouring: row-major targets,
/// `targets[e * arity + k]`. kInvalidLocal entries are ignored (targets
/// outside the rank's region, only reachable from never-executed rows).
/// A view with arity 1 and targets[e] == e expresses identity conflicts
/// (a dat written directly while also accessed through a map).
struct ColourMapView {
  const lidx_t* targets = nullptr;
  int arity = 0;
  lidx_t num_elements = 0;  ///< rows available in `targets`.
  lidx_t num_targets = 0;   ///< size of the target index space.
};

struct Colouring {
  /// Elements [b * block_elems, (b + 1) * block_elems) form block b, the
  /// unit that takes a colour. Elements inside a block may conflict with
  /// each other, so a parallel sweep keeps each block on one thread and
  /// runs it in ascending order.
  lidx_t block_elems = 1;
  int num_colours = 0;
  std::vector<int> colour;  ///< per block, 0..num_colours-1.
  /// Per colour, the class's block ids in ascending order.
  std::vector<LIdxVec> classes;
};

/// First-fit colouring of the contiguous blocks of `block_elems`
/// elements of [0, n), in ascending order: each block takes the smallest
/// colour unused by every earlier block it conflicts with. Deterministic;
/// the classes partition the blocks. block_elems <= 1 colours element by
/// element.
Colouring block_colouring(lidx_t n, std::span<const ColourMapView> views,
                          lidx_t block_elems = 1);

/// Validity predicate (property tests): `c.colour` has one entry per
/// block of [0, n), the classes list every block once under its colour,
/// and no two blocks of one colour share a target through any view.
/// Sharing inside a block is legal: a parallel sweep never splits one.
bool colouring_valid(const Colouring& c, lidx_t n,
                     std::span<const ColourMapView> views);

}  // namespace op2ca::mesh
