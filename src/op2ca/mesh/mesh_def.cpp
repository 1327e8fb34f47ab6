#include "op2ca/mesh/mesh_def.hpp"

namespace op2ca::mesh {

set_id MeshDef::add_set(const std::string& name, gidx_t size) {
  OP2CA_REQUIRE(size >= 0, "Set size must be non-negative: " + name);
  OP2CA_REQUIRE(!find_set(name), "Duplicate set name: " + name);
  sets_.push_back(SetDef{name, size});
  return static_cast<set_id>(sets_.size() - 1);
}

map_id MeshDef::add_map(const std::string& name, set_id from, set_id to,
                        int arity, GIdxVec targets) {
  OP2CA_REQUIRE(from >= 0 && from < num_sets(), "Map from-set out of range");
  OP2CA_REQUIRE(to >= 0 && to < num_sets(), "Map to-set out of range");
  OP2CA_REQUIRE(arity > 0, "Map arity must be positive: " + name);
  OP2CA_REQUIRE(!find_map(name), "Duplicate map name: " + name);
  const gidx_t expected =
      sets_[static_cast<std::size_t>(from)].size * arity;
  OP2CA_REQUIRE(static_cast<gidx_t>(targets.size()) == expected,
                "Map " + name + " target array size mismatch");
  const gidx_t to_size = sets_[static_cast<std::size_t>(to)].size;
  for (gidx_t t : targets)
    OP2CA_REQUIRE(t >= 0 && t < to_size,
                  "Map " + name + " target index out of range");
  maps_.push_back(MapDef{name, from, to, arity, std::move(targets)});
  return static_cast<map_id>(maps_.size() - 1);
}

dat_id MeshDef::add_dat(const std::string& name, set_id set, int dim,
                        std::vector<double> data) {
  OP2CA_REQUIRE(set >= 0 && set < num_sets(), "Dat set out of range");
  OP2CA_REQUIRE(dim > 0, "Dat dim must be positive: " + name);
  OP2CA_REQUIRE(!find_dat(name), "Duplicate dat name: " + name);
  const gidx_t expected = sets_[static_cast<std::size_t>(set)].size * dim;
  OP2CA_REQUIRE(static_cast<gidx_t>(data.size()) == expected,
                "Dat " + name + " data size mismatch");
  dats_.push_back(DatDef{name, set, dim, std::move(data)});
  return static_cast<dat_id>(dats_.size() - 1);
}

dat_id MeshDef::add_dat(const std::string& name, set_id set, int dim) {
  OP2CA_REQUIRE(set >= 0 && set < num_sets(), "Dat set out of range");
  const auto n = static_cast<std::size_t>(
      sets_[static_cast<std::size_t>(set)].size * dim);
  return add_dat(name, set, dim, std::vector<double>(n, 0.0));
}

const SetDef& MeshDef::set(set_id id) const {
  OP2CA_REQUIRE(id >= 0 && id < num_sets(), "set id out of range");
  return sets_[static_cast<std::size_t>(id)];
}

const MapDef& MeshDef::map(map_id id) const {
  OP2CA_REQUIRE(id >= 0 && id < num_maps(), "map id out of range");
  return maps_[static_cast<std::size_t>(id)];
}

const DatDef& MeshDef::dat(dat_id id) const {
  OP2CA_REQUIRE(id >= 0 && id < num_dats(), "dat id out of range");
  return dats_[static_cast<std::size_t>(id)];
}

DatDef& MeshDef::mutable_dat(dat_id id) {
  OP2CA_REQUIRE(id >= 0 && id < num_dats(), "dat id out of range");
  return dats_[static_cast<std::size_t>(id)];
}

const std::vector<double>& MeshDef::dat_values(dat_id id) const {
  const DatDef& d = dat(id);
  const gidx_t expected = set(d.set).size * d.dim;
  OP2CA_REQUIRE(static_cast<gidx_t>(d.data.size()) == expected,
                "dat '" + d.name + "' holds " +
                    std::to_string(d.data.size()) + " of its " +
                    std::to_string(expected) +
                    " values (a World's mesh holds none: read them with "
                    "World::fetch_dat)");
  return d.data;
}

std::optional<set_id> MeshDef::find_set(const std::string& name) const {
  for (int i = 0; i < num_sets(); ++i)
    if (sets_[static_cast<std::size_t>(i)].name == name) return i;
  return std::nullopt;
}

std::optional<map_id> MeshDef::find_map(const std::string& name) const {
  for (int i = 0; i < num_maps(); ++i)
    if (maps_[static_cast<std::size_t>(i)].name == name) return i;
  return std::nullopt;
}

std::optional<dat_id> MeshDef::find_dat(const std::string& name) const {
  for (int i = 0; i < num_dats(); ++i)
    if (dats_[static_cast<std::size_t>(i)].name == name) return i;
  return std::nullopt;
}

void MeshDef::set_coords(set_id set, dat_id dat) {
  OP2CA_REQUIRE(set >= 0 && set < num_sets(), "coords set out of range");
  OP2CA_REQUIRE(dat >= 0 && dat < num_dats(), "coords dat out of range");
  const DatDef& d = this->dat(dat);
  OP2CA_REQUIRE(d.set == set, "coords dat must live on coords set");
  OP2CA_REQUIRE(d.dim == 2 || d.dim == 3, "coords dat must have dim 2 or 3");
  coords_set_ = set;
  coords_dat_ = dat;
}

gidx_t MeshDef::total_elements() const {
  gidx_t total = 0;
  for (const auto& s : sets_) total += s.size;
  return total;
}

}  // namespace op2ca::mesh
