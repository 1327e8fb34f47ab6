// Loop-chain abstraction (Section 2.2 of the paper) and its runtime
// inspection (Section 3.1, Alg 3).
//
// A ChainSpec is a pure structural description of a chain: the ordered
// loops, each with its iteration set and access descriptors. It is what
// the inspector consumes — both when the Runtime captures live par_loop
// calls and when benches analyse application chains without executing
// them (planned mode, which records the same chain functions through a
// SpecRecorder, core/recorder.hpp).
//
// ChainAnalysis is the inspector's output:
//  * per-loop, per-dat halo extensions HE_{D_l} and the per-loop
//    effective extension HE_l = max_D HE_{D_l}         (Alg 3 verbatim);
//  * per-loop core shrink: how many inward layers of owned elements must
//    be deferred to the post-exchange phase so every core iteration of
//    every loop can run while the single grouped message is in flight
//    (flow, anti and output dependencies tracked per dat in bipartite
//    map-hop units);
//  * the dats requiring a halo exchange at the start of the chain and
//    the layer depth each must be synced to (D^h of Alg 2).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "op2ca/core/access.hpp"
#include "op2ca/mesh/mesh_def.hpp"

namespace op2ca::core {

/// One access descriptor of a loop: dat + mode (+ map when indirect).
struct ArgSpec {
  mesh::dat_id dat = -1;
  Access mode = Access::READ;
  bool indirect = false;
  mesh::map_id map = -1;  ///< valid when indirect.
  int map_idx = 0;        ///< map target column (indirect only).
  /// RW-only contract: the kernel reads this dat ONLY at the element it
  /// writes, and the value read influences ONLY that element's new value
  /// of this same dat (a monotone/idempotent self-combine, e.g.
  /// qo[v] = max(qo[v], local)). Order-independence across redundantly
  /// executed iterations already requires this discipline for
  /// multi-arity RW; declaring it lets the inspector avoid inflating
  /// upstream halo depths for cross-element reads that never happen.
  bool self_combine = false;

  bool operator==(const ArgSpec&) const = default;
};

/// One loop of a chain.
struct LoopSpec {
  std::string name;
  mesh::set_id set = -1;
  std::vector<ArgSpec> args;
  /// True when some arg writes through a map — the loop must then execute
  /// import-exec halo layers (owner-compute redundant execution).
  bool has_indirect_write() const;
  /// True when some arg reduces into a global (arg_gbl INC, an arg with
  /// no dat).
  bool has_gbl_inc() const;

  bool operator==(const LoopSpec&) const = default;
};

/// An ordered sequence of loops without global synchronisation.
struct ChainSpec {
  std::string name;
  std::vector<LoopSpec> loops;

  bool operator==(const ChainSpec&) const = default;
};

/// A dat the chained execution must sync before starting, and how deep.
struct DatSync {
  mesh::dat_id dat = -1;
  int depth = 0;  ///< exec+nonexec layers 1..depth enter the message.
};

struct ChainAnalysis {
  /// he[l] — halo extension the executor iterates for loop l: the max of
  /// the paper's Alg-3 value and the semantic execution depth (identical
  /// on all of the paper's chains).
  std::vector<int> he;
  /// he_alg3[l] — the paper's Alg 3 effective extension, exactly as
  /// printed (reproduces the HE_l columns of Tables 3-4).
  std::vector<int> he_alg3;
  /// he_per_dat[l][dat] — HE_{D_l} for dats accessed in the chain.
  std::vector<std::map<mesh::dat_id, int>> he_per_dat;
  /// shrink[l] — owned elements within `shrink[l]` bipartite hops of the
  /// partition boundary are deferred out of loop l's core.
  std::vector<int> shrink;
  /// exec_halo[l] — whether loop l executes import-exec halo layers at
  /// all: true when it writes through a map (owner-compute) or when a
  /// later chain loop reads data it writes (halo regeneration). Loops
  /// whose halo-side outputs nobody needs skip the redundant execution
  /// (e.g. jac_centreline in Table 4).
  std::vector<char> exec_halo;
  /// Dats needing a pre-chain halo exchange, with their sync depth,
  /// assuming every accessed dat's halo is stale. The executor drops
  /// entries whose halo is already fresh deep enough (dirty-bit check).
  std::vector<DatSync> syncs;
  /// max over loops of he[l]; the halo plan must have been built at least
  /// this deep.
  int required_depth = 1;
};

/// Runs the inspection (Alg 3 + core-shrink dependency walk) on a chain.
ChainAnalysis inspect_chain(const mesh::MeshDef& mesh, const ChainSpec& spec);

/// Merges multiple args of the same dat in one loop into a single
/// (mode, indirect) pair: any-write + any-read => RW-like strength,
/// any indirect access dominates. Exposed for tests.
struct MergedAccess {
  Access mode = Access::READ;
  bool indirect = false;
  bool present = false;
  /// True when every value-reading access to the dat is a self-combine
  /// RW (no cross-element consumption of the dat's values).
  bool self_combine = true;
};
std::map<mesh::dat_id, MergedAccess> merge_loop_accesses(const LoopSpec& loop);

}  // namespace op2ca::core
