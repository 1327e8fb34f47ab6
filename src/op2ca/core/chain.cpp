// The deferred window: chain capture, lazy loops and temporal tiles queue
// loops in program order, and one flush runs the window's one unit as CA
// epochs or plain OP2 loops.
#include <cstdio>
#include <iterator>
#include <utility>

#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/log.hpp"

namespace op2ca::core {

void Runtime::chain_begin(const std::string& name) {
  detail::Deferred& d = state_->deferred;
  OP2CA_REQUIRE(!d.open_chain, "chain_begin('" + name + "') while chain '" +
                                   *d.open_chain + "' is still open");
  // Only a tile of this chain can take the bracket; a lazy run or another
  // chain's partial tile runs now.
  if (d.unit && d.unit->chain != name)
    detail::flush_deferred(*state_, "chain_begin");
  d.open_chain = name;
}

void Runtime::chain_end() {
  detail::Deferred& d = state_->deferred;
  OP2CA_REQUIRE(d.open_chain.has_value(), "chain_end without chain_begin");
  const std::string name = std::move(*d.open_chain);
  d.open_chain.reset();
  const std::size_t begin = d.unit ? d.unit->end : 0;
  const std::size_t n = d.loops.size() - begin;

  const ChainConfig& cfg = world_->config().chains;
  const bool enabled = cfg.enabled(name);
  const int expected = cfg.expected_loops(name);
  if (enabled && expected > 0 && expected != static_cast<int>(n)) {
    OP2CA_LOG_WARN << "chain '" << name << "' configured with " << expected
                   << " loops but captured " << n;
  }
  // An empty CA invocation runs no epoch and leaves its own tile open.
  if (enabled && n == 0) return;

  // A unit still here is a tile of this chain with room left. A
  // structure-equal invocation joins it; any other runs the tile first
  // and opens a unit of its own.
  if (d.unit && detail::chain_structural_hash(
                    d.loops.data(),
                    begin / static_cast<std::size_t>(d.unit->invocations)) ==
                    detail::chain_structural_hash(d.loops.data() + begin, n)) {
    d.unit->end += n;
    ++d.unit->invocations;
  } else {
    if (d.unit) {
      std::vector<detail::LoopRecord> inv(
          std::make_move_iterator(d.loops.begin() +
                                  static_cast<std::ptrdiff_t>(begin)),
          std::make_move_iterator(d.loops.end()));
      d.loops.resize(begin);
      detail::flush_deferred(*state_, "chain_end");
      d.loops = std::move(inv);
    }
    d.unit = detail::DeferredUnit{name, n, 1};
  }
  if (!enabled || d.unit->invocations >= cfg.tile(name))
    detail::flush_deferred(*state_, "chain_end");
}

void Runtime::flush() { detail::flush_deferred(*state_, "Runtime::flush"); }

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

/// Feasibility of loops[0, n) as one CA chain cached under `key`:
/// accepted by the inspector AND within the halo plan's depth AND within
/// `cap` halo layers (0 = uncapped). The inspection stays cached in
/// st.chain_windows under `key`, so a feasible window's later execution
/// (and every repeat of the same window) skips the inspector entirely.
bool feasible(RankState& st, const std::string& key, const LoopRecord* loops,
              std::size_t n, int cap) {
  try {
    const int required =
        chain_window(st, key, loops, n).analysis.required_depth;
    return required <= st.world->plan().depth &&
           (cap == 0 || required <= cap);
  } catch (const Error&) {
    return false;  // inspector rejected (e.g. unregenerable direct write)
  }
}

/// Loose lazy loops: each window grows while it stays CA-feasible and
/// runs as an auto-formed chain (>= 2 loops) or a plain loop.
void run_lazy(RankState& st, const LoopRecord* loops, std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    std::string name;
    for (; j < n; ++j) {
      std::string candidate = lazy_signature(loops + i, j + 1 - i);
      if (!feasible(st, candidate, loops + i, j + 1 - i, /*cap=*/0)) break;
      name = std::move(candidate);
    }
    if (j - i >= 2)
      run_chain(st, name, name, loops + i, j - i, 1);
    else
      run_loop(st, loops[i]);
    i = j;
  }
}

/// A disabled chain runs its loops as standard OP2 loops, metered under
/// the chain's name too, so benches can compare the two execution modes
/// of the same chain. One invocation is one call, untiled by definition,
/// and max_rank_bytes stays the bytes this rank sent over the whole
/// invocation.
void run_disabled(RankState& st, const std::string& name,
                  const LoopRecord* loops, std::size_t n) {
  LoopMetrics chain_total;
  std::int64_t rank_bytes = 0;
  for (std::size_t l = 0; l < n; ++l) {
    const LoopMetrics m = run_loop(st, loops[l]);
    chain_total.merge_from(m);
    rank_bytes += m.max_rank_bytes;
  }
  chain_total.tile = 1;
  chain_total.max_rank_bytes = rank_bytes;
  add_call(st.chain_metrics[name], chain_total);
}

/// `inv` structure-equal invocations of a CA-enabled chain. The plan key
/// of a fused tile carries its geometry: a full tile and a partial tile
/// flushed at a sync point cache distinct plans and exchanges, and
/// repeating the same geometry hits the cache. One invocation, or the
/// loud fallback for an infeasible fused window, runs each invocation
/// under the chain's own plan key, as the untiled executor does. Every
/// rank reaches the same structural fallback, so rank 0 warns for the
/// World.
void run_invocations(RankState& st, const std::string& name,
                     const LoopRecord* loops, std::size_t n, int inv) {
  if (inv >= 2) {
    const std::string key = name + "#tile" + std::to_string(inv);
    const int cap = st.world->config().chains.max_depth(name);
    if (feasible(st, key, loops, n, cap)) {
      run_chain(st, name, key, loops, n, inv);
      return;
    }
    if (st.tile_fallbacks.insert(key).second && st.rank == 0) {
      OP2CA_LOG_WARN << "chain '" << name << "': fused tile of " << inv
                     << " invocations is infeasible (inspector rejection, "
                        "halo plan too shallow, or over the chain's depth "
                        "cap) — falling back to per-invocation execution";
    }
  }
  const std::size_t per_inv = n / static_cast<std::size_t>(inv);
  for (std::size_t b = 0; b < n; b += per_inv)
    run_chain(st, name, name, loops + b, per_inv, 1);
}

}  // namespace

void flush_deferred(RankState& st, const char* at) {
  Deferred& d = st.deferred;
  if (d.open_chain)
    raise("chain '" + *d.open_chain + "' is still open at " + at +
          ": a loop-chain holds no synchronisation point (call chain_end "
          "first)");
  if (!d.unit) return;
  // Taken out first, so an epoch that raises drops the unit.
  const Deferred taken = std::exchange(d, Deferred{});
  const DeferredUnit& u = *taken.unit;
  const LoopRecord* loops = taken.loops.data();
  if (!u.chain)
    run_lazy(st, loops, u.end);
  else if (!st.world->config().chains.enabled(*u.chain))
    run_disabled(st, *u.chain, loops, u.end);
  else
    run_invocations(st, *u.chain, loops, u.end, u.invocations);
}

}  // namespace detail

}  // namespace op2ca::core
