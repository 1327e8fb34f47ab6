// Loop submission: dispatches to immediate OP2 execution or chain capture.
#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core {

void Runtime::submit(detail::LoopRecord rec) {
  // Validate global-INC constraints: the redundant execution of exec
  // halos would double-count contributions, so loops that reduce into a
  // global may not also write through a map.
  const bool has_gbl_inc = rec.has_gbl_inc();
  if (has_gbl_inc) {
    OP2CA_REQUIRE(!rec.spec.has_indirect_write(),
                  "par_loop '" + rec.spec.name +
                      "': global INC cannot be combined with indirect "
                      "writes (owner-compute would double-count)");
    OP2CA_REQUIRE(!state_->capturing,
                  "par_loop '" + rec.spec.name +
                      "': global reductions are synchronisation points and "
                      "cannot appear inside a loop-chain");
  }

  if (state_->capturing) {
    state_->chain_loops.push_back(std::move(rec));
    return;
  }
  // A loose loop outside any chain is intervening work: it breaks the
  // temporal tile window (its reads/writes must observe the queued chain
  // invocations' results in program order).
  detail::flush_tiles(*state_);
  if (world_->config().lazy) {
    if (has_gbl_inc) {
      // Global reductions are synchronisation points: drain the queue,
      // then run the reducing loop immediately.
      detail::flush_lazy(*state_);
      detail::run_loop(*state_, rec);
      return;
    }
    state_->lazy_queue.push_back(std::move(rec));
    return;
  }
  detail::run_loop(*state_, rec);
}

}  // namespace op2ca::core
