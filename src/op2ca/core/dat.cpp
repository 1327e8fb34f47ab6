// Per-rank dat storage: localization from a global array into the
// halo-plan layout, and the staging-buffer return path.
#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/halo/renumber.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core::detail {

RankState::RankState(World* w, sim::TransportBackend& transport, rank_t r)
    : world(w), rank(r), comm(transport, r) {
  const mesh::MeshDef& mesh = world->mesh();
  serial_dispatch = w->config().serial_dispatch;
  // serial_dispatch wins over the pool: the per-element equivalence
  // knob must reproduce the classic order exactly.
  if (w->config().threads_per_rank > 1 && !serial_dispatch)
    pool = std::make_unique<util::ThreadPool>(w->config().threads_per_rank);
  // Storage is sized and filled by World's constructor, one dat at a
  // time (refresh_dat_from_global).
  dats.resize(static_cast<std::size_t>(mesh.num_dats()));
  for (mesh::dat_id d = 0; d < mesh.num_dats(); ++d)
    dats[static_cast<std::size_t>(d)].dim = mesh.dat(d).dim;
}

const halo::RankPlan& RankState::rank_plan() const {
  return world->plan().ranks[static_cast<std::size_t>(rank)];
}

const halo::SetLayout& RankState::layout(mesh::set_id s) const {
  const auto& sets = rank_plan().sets;
  OP2CA_REQUIRE(s >= 0 && static_cast<std::size_t>(s) < sets.size(),
                "set id " + std::to_string(s) + " is outside [0, " +
                    std::to_string(sets.size()) + ")");
  return sets[static_cast<std::size_t>(s)];
}

RankDat& RankState::rank_dat(mesh::dat_id d) {
  OP2CA_REQUIRE(d >= 0 && d < static_cast<int>(dats.size()),
                "dat id out of range");
  return dats[static_cast<std::size_t>(d)];
}

void RankState::refresh_dat_from_global(
    mesh::dat_id d, const std::vector<double>& global_data) {
  RankDat& rd = rank_dat(d);
  const halo::SetLayout& lay = layout(world->mesh().dat(d).set);
  // Sizes the storage on the first gather only: exchanges hold pointers
  // into it, so it never moves afterwards.
  rd.data.resize(static_cast<std::size_t>(lay.total) *
                 static_cast<std::size_t>(rd.dim));
  halo::gather_local(global_data, rd.dim, lay, rd.data.data());
  // Halos are gathered straight from the global array, so every layer
  // the plan holds is in sync.
  rd.fresh_depth = world->plan().depth;
}

void RankState::recycle_payload(rank_t src, ByteBuf buf) {
  RankState* sender = world->ranks_[static_cast<std::size_t>(src)].get();
  if (sender != nullptr)
    sender->staging.give_back(std::move(buf));
  else
    staging.release(std::move(buf));
}

}  // namespace op2ca::core::detail
