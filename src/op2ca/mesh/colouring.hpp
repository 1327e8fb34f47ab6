// Greedy mesh colouring for race-free shared-memory execution of
// indirect-increment loops (the classic OP2 intra-rank parallelisation:
// Reguly et al., "Acceleration of a Full-scale Industrial CFD
// Application with OP2"). Two from-set elements conflict when any map
// entering the colouring sends both onto the same target element; the
// colouring partitions the from-set into classes such that no class
// contains a conflict, so every class can execute its elements in any
// order — and in particular split across threads — with each written
// target touched by at most one element.
//
// The colouring is a pure function of (element count, target arrays):
// first-fit over elements in ascending index order. Thread count never
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
  int num_colours = 0;
  std::vector<int> colour;       ///< per element, 0..num_colours-1.
  /// Per colour, the class's elements in execution order (ascending).
  std::vector<LIdxVec> classes;
  /// Conflict granularity: elements [b*block_elems, (b+1)*block_elems)
  /// form block b and share one colour. 1 = classic per-element
  /// colouring. With block_elems > 1 a colour class is conflict-free
  /// *between* blocks only — elements inside a block may conflict with
  /// each other, so a parallel sweep must keep each block on one thread
  /// and run it in class order (core/dispatch aligns its chunk
  /// boundaries to blocks).
  lidx_t block_elems = 1;
};

/// First-fit colouring of contiguous blocks of `block_elems` elements
/// in ascending order: each block takes the smallest colour unused by
/// every earlier block it conflicts with (two blocks conflict when any of
/// their elements share a target through any view). Deterministic;
/// classes partition [0, n). block_elems <= 1 is the classic
/// per-element colouring; larger blocks make every colour class a union
/// of contiguous runs that the dispatcher can execute as range regions
/// instead of gathered lists.
Colouring block_colouring(lidx_t n, std::span<const ColourMapView> views,
                          lidx_t block_elems = 1);

/// Validity predicate (property tests): no two same-colour elements
/// share a target through any view. Honours `c.block_elems`: with
/// blocked colourings the conflict-free unit is the block, so
/// same-block sharing is legal.
bool colouring_valid(const Colouring& c, lidx_t n,
                     std::span<const ColourMapView> views);

}  // namespace op2ca::mesh
