// Chain bracketing: capture between chain_begin / chain_end, then either
// CA execution (enabled chains) or plain sequential OP2 execution.
#include <algorithm>
#include <cstdio>
#include <iterator>

#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/log.hpp"

namespace op2ca::core {

void Runtime::chain_begin(const std::string& name) {
  OP2CA_REQUIRE(!state_->capturing,
                "chain_begin('" + name + "') while chain '" +
                    state_->chain_name + "' is still open");
  // A different chain breaks the current tile window; another invocation
  // of the accumulating chain keeps it open (the whole point of tiling).
  if (!state_->tile_queue.empty() && state_->tile_chain != name)
    detail::flush_tiles(*state_);
  detail::flush_lazy(*state_);  // explicit chains take precedence
  state_->capturing = true;
  state_->chain_name = name;
  state_->chain_loops.clear();
}

void Runtime::chain_end() {
  OP2CA_REQUIRE(state_->capturing, "chain_end without chain_begin");
  state_->capturing = false;
  std::vector<detail::LoopRecord> loops = std::move(state_->chain_loops);
  state_->chain_loops.clear();
  const std::string name = state_->chain_name;

  const ChainConfig& cfg = world_->config().chains;
  if (!cfg.enabled(name)) {
    // CA disabled for this chain: run the loops as standard OP2 loops,
    // but still meter them under the chain's name so benches can compare
    // the two execution modes of the same chain. One invocation is one
    // call, untiled by definition, and max_rank_bytes stays the bytes this
    // rank sent over the whole invocation.
    LoopMetrics chain_total;
    std::int64_t rank_bytes = 0;
    for (const auto& rec : loops) {
      const LoopMetrics m = detail::run_loop(*state_, rec);
      chain_total.merge_from(m);
      rank_bytes += m.max_rank_bytes;
    }
    chain_total.tile = 1;
    chain_total.max_rank_bytes = rank_bytes;
    detail::add_call(state_->chain_metrics[name], chain_total);
    return;
  }

  const int expected = cfg.expected_loops(name);
  if (expected > 0 && expected != static_cast<int>(loops.size())) {
    OP2CA_LOG_WARN << "chain '" << name << "' configured with " << expected
                   << " loops but captured " << loops.size();
  }

  if (loops.empty()) return;  // an empty CA chain runs no epoch

  // Effective tile size: a per-chain tile= entry overrides the world
  // default. tile <= 1 is the per-invocation executor, bitwise-identical
  // to previous builds.
  const int chain_tile = cfg.tile(name);
  const int tile =
      std::max(1, chain_tile > 0 ? chain_tile : world_->config().tile);
  if (tile <= 1) {
    detail::run_chain(*state_, name, name, loops, 1);
    return;
  }

  // Temporal tiling: accumulate this invocation into the tile window. A
  // window already holding a different chain — or the same name reused
  // with a different loop structure — flushes first.
  detail::RankState& st = *state_;
  if (!st.tile_queue.empty() &&
      (st.tile_chain != name ||
       detail::chain_structural_hash(st.tile_queue.front().data(),
                                     st.tile_queue.front().size()) !=
           detail::chain_structural_hash(loops.data(), loops.size())))
    detail::flush_tiles(st);
  st.tile_chain = name;
  st.tile_target = tile;
  st.tile_queue.push_back(std::move(loops));
  if (static_cast<int>(st.tile_queue.size()) >= st.tile_target)
    detail::flush_tiles(st);
}

void Runtime::flush() { detail::flush_deferred(*state_); }

namespace detail {

std::uint64_t chain_structural_hash(const LoopRecord* loops, std::size_t n) {
  // FNV-1a over every structural feature of the window: loop names, sets,
  // and each access descriptor. Kernel bodies are deliberately excluded —
  // the analysis only depends on the access pattern.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t l = 0; l < n; ++l) {
    const LoopRecord& rec = loops[l];
    for (char c : rec.spec.name) mix(static_cast<unsigned char>(c));
    mix(0x7f01);
    mix(static_cast<std::uint64_t>(rec.spec.set));
    for (const ArgSpec& a : rec.spec.args) {
      mix(static_cast<std::uint64_t>(a.dat));
      mix(static_cast<std::uint64_t>(a.mode));
      mix(a.indirect ? 1 : 0);
      mix(static_cast<std::uint64_t>(a.map));
      mix(static_cast<std::uint64_t>(a.map_idx));
    }
    mix(0x7f02);
  }
  return h;
}

namespace {

/// Structural signature of a queued program fragment, so repeated phases
/// of a lazy application hit the analysis cache.
std::string lazy_signature(const LoopRecord* loops, std::size_t n) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    chain_structural_hash(loops, n)));
  return std::string("lazy:") + buf;
}

/// Feasibility of a window of loops as one CA chain cached under `key`:
/// accepted by the inspector AND within the halo plan's depth AND within
/// `cap` halo layers (0 = uncapped). The inspection stays cached in
/// st.chain_windows under `key`, so a feasible window's later execution
/// (and every repeat of the same window) skips the inspector entirely.
bool window_feasible_as(RankState& st, const std::string& key,
                        const LoopRecord* loops, std::size_t n, int cap) {
  try {
    const int required =
        chain_window(st, key, loops, n).analysis.required_depth;
    return required <= st.world->plan().depth &&
           (cap == 0 || required <= cap);
  } catch (const Error&) {
    return false;  // inspector rejected (e.g. unregenerable direct write)
  }
}

/// Lazy-mode wrapper: keys the cache by the window's structural signature.
bool window_feasible(RankState& st, const LoopRecord* loops, std::size_t n,
                     std::string* name_out) {
  *name_out = lazy_signature(loops, n);
  return window_feasible_as(st, *name_out, loops, n, /*cap=*/0);
}

}  // namespace

void flush_lazy(RankState& st) {
  if (st.lazy_queue.empty()) return;
  std::vector<LoopRecord> loops = std::move(st.lazy_queue);
  st.lazy_queue.clear();

  // Greedy segmentation: grow each window while it stays CA-feasible;
  // flush it as an auto-formed chain (>= 2 loops) or a plain loop.
  std::size_t i = 0;
  while (i < loops.size()) {
    std::size_t j = i + 1;
    std::string name = lazy_signature(loops.data() + i, 1);
    while (j < loops.size()) {
      std::string candidate;
      if (!window_feasible(st, loops.data() + i, j + 1 - i, &candidate))
        break;
      name = std::move(candidate);
      ++j;
    }
    if (j - i >= 2) {
      // Each record executes exactly once, so the window can steal the
      // queue's records instead of copying their type-erased bodies.
      std::vector<LoopRecord> window(
          std::make_move_iterator(loops.begin() + static_cast<long>(i)),
          std::make_move_iterator(loops.begin() + static_cast<long>(j)));
      run_chain(st, name, name, window, 1);
    } else {
      run_loop(st, loops[i]);
    }
    i = j;
  }
}

void flush_tiles(RankState& st) {
  if (st.tile_queue.empty()) return;
  std::vector<std::vector<LoopRecord>> invs = std::move(st.tile_queue);
  st.tile_queue.clear();
  const std::string name = st.tile_chain;
  const int n_inv = static_cast<int>(invs.size());
  // chain_end only appends structure-equal invocations, so every
  // invocation in the window has the same loop count.
  const std::size_t per_inv = invs.front().size();

  std::vector<LoopRecord> fused;
  fused.reserve(per_inv * static_cast<std::size_t>(n_inv));
  for (auto& inv : invs)
    std::move(inv.begin(), inv.end(), std::back_inserter(fused));

  if (n_inv >= 2) {
    // The plan key carries the tile geometry: a full tile and a partial
    // tile flushed at a sync point cache distinct plans and exchanges,
    // and repeating the same geometry hits the cache.
    const std::string key = name + "#tile" + std::to_string(n_inv);
    const int cap = st.world->config().chains.max_depth(name);
    if (window_feasible_as(st, key, fused.data(), fused.size(), cap)) {
      run_chain(st, name, key, fused, n_inv);
      return;
    }
    if (st.tile_fallbacks.insert(key).second) {
      OP2CA_LOG_WARN << "chain '" << name << "': fused tile of " << n_inv
                     << " invocations is infeasible (inspector rejection, "
                        "halo plan too shallow, or over the chain's depth "
                        "cap) — falling back to per-invocation execution";
    }
  }

  // Per-invocation execution: a single queued invocation, or the loud
  // fallback for an infeasible fused window. Runs under the chain's own
  // plan key, identical to the untiled executor.
  for (int i = 0; i < n_inv; ++i) {
    const auto b = fused.begin() + static_cast<long>(i) *
                                       static_cast<long>(per_inv);
    std::vector<LoopRecord> window(std::make_move_iterator(b),
                                   std::make_move_iterator(
                                       b + static_cast<long>(per_inv)));
    run_chain(st, name, name, window, 1);
  }
}

void flush_deferred(RankState& st) {
  // Tiles always predate lazy entries: chain_begin drains the lazy queue
  // before capturing, and a lazily-queued loose loop flushes the tile
  // window first (see Runtime::submit) — so tiles-first is program order.
  flush_tiles(st);
  flush_lazy(st);
}

}  // namespace detail

}  // namespace op2ca::core
