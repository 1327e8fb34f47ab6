// Loop submission: queues a loop in the deferred window (inside a chain
// bracket, or a loose loop in lazy mode) or runs it now as an OP2 loop.
#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core {

void Runtime::submit(detail::LoopRecord rec) {
  detail::Deferred& d = state_->deferred;
  // Validate global-INC constraints: the redundant execution of exec
  // halos would double-count contributions, so loops that reduce into a
  // global may not also write through a map.
  const bool has_gbl_inc = rec.has_gbl_inc();
  if (has_gbl_inc) {
    OP2CA_REQUIRE(!rec.spec.has_indirect_write(),
                  "par_loop '" + rec.spec.name +
                      "': global INC cannot be combined with indirect "
                      "writes (owner-compute would double-count)");
    OP2CA_REQUIRE(!d.open_chain,
                  "par_loop '" + rec.spec.name +
                      "': global reductions are synchronisation points and "
                      "cannot appear inside a loop-chain");
  }

  if (d.open_chain) {
    d.loops.push_back(std::move(rec));
    return;
  }
  if (world_->config().lazy && !has_gbl_inc) {
    // A loose lazy loop joins the lazy run or starts one; it ends a
    // chain's tile, which runs first.
    if (d.unit && d.unit->chain)
      detail::flush_deferred(*state_, "par_loop");
    if (!d.unit) d.unit.emplace();
    d.loops.push_back(std::move(rec));
    d.unit->end = d.loops.size();
    return;
  }
  // A loose non-lazy or reducing loop runs after everything queued
  // before it, in program order.
  detail::flush_deferred(*state_, "par_loop");
  detail::run_loop(*state_, rec);
}

}  // namespace op2ca::core
