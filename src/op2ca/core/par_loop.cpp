// Loop submission: queues a loop in the deferred window (inside a chain
// bracket, or a loose loop in lazy mode) or runs it now as an OP2 loop.
#include "op2ca/core/runtime_detail.hpp"

namespace op2ca::core {

void Runtime::submit(detail::LoopRecord rec) {
  detail::Deferred& d = state_->deferred;
  if (d.open_chain) {
    d.loops.push_back(std::move(rec));
    return;
  }
  if (world_->config().lazy && !rec.spec.has_gbl_inc()) {
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
