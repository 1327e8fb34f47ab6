// Global (pre-partitioning) mesh description: sets, maps and dats, exactly
// mirroring OP2's op_decl_set / op_decl_map / op_decl_dat. The
// partitioner and halo builder consume it to produce per-rank local views.
// A World keeps its copy's topology (sets, maps, dat declarations) but
// frees every dat's values once its ranks hold their rows: read a World's
// dat values through World::fetch_dat, not through its MeshDef.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "op2ca/util/error.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::mesh {

/// Identifier of a set/map/dat inside one MeshDef.
using set_id = int;
using map_id = int;
using dat_id = int;

struct SetDef {
  std::string name;
  gidx_t size = 0;
};

/// Explicit connectivity M : from -> to^arity; `targets` is row-major,
/// targets[e*arity + k] is the k-th target of element e.
struct MapDef {
  std::string name;
  set_id from = -1;
  set_id to = -1;
  int arity = 0;
  GIdxVec targets;
};

/// Data defined on a set, `dim` doubles per element.
struct DatDef {
  std::string name;
  set_id set = -1;
  int dim = 0;
  /// set_size * dim values, or none once a World has distributed them.
  std::vector<double> data;
};

class MeshDef {
public:
  set_id add_set(const std::string& name, gidx_t size);
  map_id add_map(const std::string& name, set_id from, set_id to, int arity,
                 GIdxVec targets);
  /// Declares a dat with explicit initial data.
  dat_id add_dat(const std::string& name, set_id set, int dim,
                 std::vector<double> data);
  /// Declares a zero-initialised dat.
  dat_id add_dat(const std::string& name, set_id set, int dim);

  const SetDef& set(set_id id) const;
  const MapDef& map(map_id id) const;
  const DatDef& dat(dat_id id) const;
  DatDef& mutable_dat(dat_id id);
  /// A dat's values; raises naming the dat when it does not hold
  /// set size x dim of them (a World's MeshDef holds none).
  const std::vector<double>& dat_values(dat_id id) const;

  int num_sets() const { return static_cast<int>(sets_.size()); }
  int num_maps() const { return static_cast<int>(maps_.size()); }
  int num_dats() const { return static_cast<int>(dats_.size()); }

  std::optional<set_id> find_set(const std::string& name) const;
  std::optional<map_id> find_map(const std::string& name) const;
  std::optional<dat_id> find_dat(const std::string& name) const;

  /// Set carrying geometric coordinates (used by RIB / kway seeding);
  /// `coords_dat` must have dim 2 or 3 and live on `coords_set`.
  void set_coords(set_id set, dat_id dat);
  bool has_coords() const { return coords_dat_ >= 0; }
  set_id coords_set() const { return coords_set_; }
  dat_id coords_dat() const { return coords_dat_; }

  /// Total number of mesh elements across all sets.
  gidx_t total_elements() const;

private:
  std::vector<SetDef> sets_;
  std::vector<MapDef> maps_;
  std::vector<DatDef> dats_;
  set_id coords_set_ = -1;
  dat_id coords_dat_ = -1;
};

}  // namespace op2ca::mesh
