#include "op2ca/core/runtime.hpp"

#include <algorithm>

#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core {

const char* access_name(Access a) {
  switch (a) {
    case Access::READ: return "READ";
    case Access::WRITE: return "WRITE";
    case Access::RW: return "RW";
    case Access::INC: return "INC";
  }
  return "?";
}

KindArg<Arg::Kind::DatDirect> arg_dat(Dat d, Access mode) {
  KindArg<Arg::Kind::DatDirect> a;
  a.dat = d.id;
  a.mode = mode;
  return a;
}

KindArg<Arg::Kind::DatIndirect> arg_dat(Dat d, int idx, Map m, Access mode,
                                        bool self_combine) {
  OP2CA_REQUIRE(!self_combine || mode == Access::RW,
                "self_combine only applies to RW access");
  KindArg<Arg::Kind::DatIndirect> a;
  a.dat = d.id;
  a.map_idx = idx;
  a.map = m.id;
  a.mode = mode;
  a.self_combine = self_combine;
  return a;
}

KindArg<Arg::Kind::Gbl> arg_gbl(double* value, int dim, Access mode) {
  OP2CA_REQUIRE(mode == Access::READ || mode == Access::INC,
                "arg_gbl supports READ and INC only");
  OP2CA_REQUIRE(value != nullptr && dim > 0, "arg_gbl needs a buffer");
  KindArg<Arg::Kind::Gbl> a;
  a.mode = mode;
  a.gbl = value;
  a.gbl_dim = dim;
  return a;
}

void LoopMetrics::merge_from(const LoopMetrics& other) {
  for_each_field([&](const char*, auto field, Merge merge) {
    this->*field = merge == Merge::Max ? std::max(this->*field, other.*field)
                                       : this->*field + other.*field;
  });
}

namespace detail {

void raise_out_of_region(const char* loop_name) {
  raise("par_loop '" + std::string(loop_name) +
        "' touched an element outside the local region (halo depth too "
        "small for this access pattern)");
}

}  // namespace detail

Set MeshHandles::set(const std::string& name) const {
  const auto id = mesh_->find_set(name);
  OP2CA_REQUIRE(id.has_value(), "unknown set: " + name);
  return Set{*id};
}

Map MeshHandles::map(const std::string& name) const {
  const auto id = mesh_->find_map(name);
  OP2CA_REQUIRE(id.has_value(), "unknown map: " + name);
  return Map{*id};
}

Dat MeshHandles::dat(const std::string& name) const {
  const auto id = mesh_->find_dat(name);
  OP2CA_REQUIRE(id.has_value(), "unknown dat: " + name);
  return Dat{*id};
}

LoopSpec make_loop_spec(const mesh::MeshDef& mesh, const std::string& name,
                        Set s, const std::vector<Arg>& args, bool in_chain) {
  OP2CA_REQUIRE(s.id >= 0 && s.id < mesh.num_sets(),
                "par_loop '" + name + "': invalid set");
  LoopSpec spec;
  spec.name = name;
  spec.set = s.id;
  spec.args.reserve(args.size());
  for (const Arg& a : args) {
    ArgSpec& as = spec.args.emplace_back();
    as.mode = a.mode;
    if (a.kind == Arg::Kind::Gbl) continue;
    const mesh::DatDef& dd = mesh.dat(a.dat);
    as.dat = a.dat;
    if (a.kind == Arg::Kind::DatDirect) {
      OP2CA_REQUIRE(dd.set == s.id,
                    "par_loop '" + name + "': direct arg dat '" + dd.name +
                        "' does not live on the iteration set");
      continue;
    }
    const mesh::MapDef& mp = mesh.map(a.map);
    OP2CA_REQUIRE(mp.from == s.id,
                  "par_loop '" + name + "': map '" + mp.name +
                      "' does not start at the iteration set");
    OP2CA_REQUIRE(mp.to == dd.set,
                  "par_loop '" + name + "': map '" + mp.name +
                      "' does not land on dat '" + dd.name + "' set");
    OP2CA_REQUIRE(a.map_idx >= 0 && a.map_idx < mp.arity,
                  "par_loop '" + name + "': map index out of arity");
    as.indirect = true;
    as.map = a.map;
    as.map_idx = a.map_idx;
    as.self_combine = a.self_combine;
  }
  if (spec.has_gbl_inc()) {
    OP2CA_REQUIRE(!spec.has_indirect_write(),
                  "par_loop '" + name +
                      "': global INC cannot be combined with indirect "
                      "writes (owner-compute would double-count)");
    OP2CA_REQUIRE(!in_chain,
                  "par_loop '" + name +
                      "': global reductions are synchronisation points and "
                      "cannot appear inside a loop-chain");
  }
  return spec;
}

Runtime::Runtime(World* world, detail::RankState* state)
    : MeshHandles(world->mesh()), world_(world), state_(state) {}

rank_t Runtime::rank() const { return state_->rank; }
int Runtime::nranks() const { return world_->config().nranks; }

double* Runtime::dat_data(Dat d) {
  detail::flush_deferred(*state_, "Runtime::dat_data");
  return state_->rank_dat(d.id).data.data();
}

const halo::SetLayout& Runtime::layout(Set s) const {
  return state_->layout(s.id);
}

void Runtime::barrier() {
  detail::flush_deferred(*state_, "Runtime::barrier");
  state_->comm.barrier();
}

bool Runtime::validation_enabled() const { return world_->config().validate; }

detail::LoopRecord Runtime::make_record(const std::string& name, Set s,
                                        const std::vector<Arg>& args) {
  detail::LoopRecord rec;
  rec.spec = make_loop_spec(mesh(), name, s, args,
                            state_->deferred.open_chain.has_value());
  rec.rargs.reserve(args.size());
  for (const Arg& a : args) {
    detail::ResolvedArg& ra = rec.rargs.emplace_back();
    if (a.kind == Arg::Kind::Gbl) {
      ra.base = a.gbl;
      ra.row = static_cast<std::size_t>(a.gbl_dim);
      ra.is_gbl = true;
      continue;
    }
    detail::RankDat& rd = state_->rank_dat(a.dat);
    ra.base = rd.data.data();
    ra.row = static_cast<std::size_t>(rd.dim);
    if (a.kind == Arg::Kind::DatIndirect) {
      OP2CA_REQUIRE(world_->plan().has_local_maps,
                    "par_loop '" + name +
                        "': halo plan was built without local maps");
      const halo::LocalMap& lm =
          state_->rank_plan().maps[static_cast<std::size_t>(a.map)];
      ra.col = lm.targets.data() + a.map_idx;
      ra.arity = static_cast<std::size_t>(lm.arity);
    }
  }
  return rec;
}

}  // namespace op2ca::core
