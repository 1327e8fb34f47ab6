// Applies the locality reordering (mesh/reorder) to a built HaloPlan.
//
// Every rank's local numbering of a reordered set is permuted *within*
// the structural blocks the layered layout fixes:
//
//   [ owned, one block per inward-distance shell 1..depth plus one for
//     everything deeper | each import-exec layer | each import-nonexec
//     layer ]
//
// so core_count(), exec_layer() and nonexec_layer() keep meaning exactly
// what they meant, and the CA executor's shrinking cores stay index
// prefixes. Inward distances deeper than the plan's depth are
// interchangeable (no executor ever shrinks past the plan depth — chains
// require analysis.required_depth <= plan.depth), so they merge into a
// single freely-permutable interior block; their stored owned_din is
// clamped to depth + 1 to keep the din-descending invariant.
//
// The permutation is threaded through every plan structure: layouts
// (local_to_global, owned_din), local maps (rows of maps *from* the set
// permuted, targets of maps *onto* it rewritten), and all four
// neighbour-list tables. Export lists mirror a neighbour's import lists
// positionally, so after index rewriting each (exporter, importer) list
// pair is re-sorted jointly into ascending exporter order — the packing
// gathers then walk ascending addresses, which is what lets the compiler
// vectorise them.
//
// Everything downstream (per-rank dats, epoch windows and their
// GroupedPlan exchanges, colourings, the chain inspector's slice
// tables) is built lazily from the plan *after* the World constructor
// runs this, so no cache ever observes the pre-permutation numbering.
#pragma once

#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/mesh/reorder.hpp"

namespace op2ca::halo {

struct ReorderResult {
  /// perms[rank][set]; an empty permutation means the set was left in
  /// partition order on that rank.
  std::vector<std::vector<mesh::Permutation>> perms;
  /// Resolved ordering per set (Auto collapsed to RCM or SFC).
  std::vector<mesh::ReorderKind> set_kind;
  int sets_reordered = 0;  ///< (rank, set) pairs actually permuted.

  bool any() const { return sets_reordered > 0; }
};

/// Reorders `plan` in place per `cfg`. Requires local maps (the conflict
/// adjacency comes from them). A disabled config returns an empty result
/// and leaves the plan untouched.
ReorderResult apply_reorder(const mesh::MeshDef& mesh,
                            const mesh::ReorderConfig& cfg, HaloPlan* plan);

/// The blocks of `lay` that apply_reorder permutes within, with inward
/// distances clamped at `depth` + 1 (exposed for the property tests).
mesh::BlockVec reorder_blocks(const SetLayout& lay, int depth);

}  // namespace op2ca::halo
