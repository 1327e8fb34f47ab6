#include "op2ca/model/perf_model.hpp"

#include <algorithm>

namespace op2ca::model {

double t_op2_loop(const Machine& mach, const LoopTerms& t) {
  const double L = mach.effective_latency();
  // The modelled rail count folds into Eq (1) as an effective bandwidth
  // on the serialisation term: a message >= Machine::stripe_min_bytes
  // moves over net_rails links concurrently. The per-dat level-1
  // messages are usually latency-bound and stay below it.
  const double B =
      mach.effective_bandwidth(static_cast<std::size_t>(t.m1));
  const double compute_core = t.g * static_cast<double>(t.core_iters);
  const double comm = static_cast<double>(t.msgs_per_neighbor) * t.p *
                      (L + static_cast<double>(t.m1) / B);
  return std::max(compute_core, comm) +
         t.g * static_cast<double>(t.halo_iters);
}

double t_op2_chain(const Machine& mach, const std::vector<LoopTerms>& ts) {
  double total = 0.0;
  for (const LoopTerms& t : ts) total += t_op2_loop(mach, t);
  return total;
}

double t_ca_chain(const Machine& mach, const ChainTerms& t) {
  const double L = mach.effective_latency();
  // The grouped message m_r is the natural striping beneficiary: one
  // large message per neighbour clears the threshold where the baseline's
  // many small per-dat messages do not — Eq (3)'s m_r/B term shrinks by
  // the rail count while Eq (1) keeps flat bandwidth.
  const double B =
      mach.effective_bandwidth(static_cast<std::size_t>(t.m_r));
  double compute_core = 0.0, compute_halo = 0.0;
  for (const LoopTerms& lt : t.loops) {
    compute_core += lt.g * static_cast<double>(lt.core_iters);
    compute_halo += lt.g * static_cast<double>(lt.halo_iters);
  }
  // c: the EXTRA staging cost of the grouped message relative to the
  // baseline. Both executors pack their sends; only the receiver-side
  // unpack (copying each dat's rows out of the combined buffer) is new,
  // and it runs at chunked-memcpy bandwidth — the paper's observation
  // that the unpacking cost "becomes negligible due to the chunk memcopy
  // operations" relative to multiple message exchanges.
  const double c = mach.net.pack_time(t.m_r);
  const double comm = t.p * (L + static_cast<double>(t.m_r) / B + c);
  return std::max(compute_core, comm) + compute_halo;
}

double t_ca_chain_tiled(const Machine& mach, const ChainTerms& t, int tile) {
  const int k = std::max(1, tile);
  // The fused epoch's grouped message carries every skipped exchange's
  // layers: ~k times the per-invocation m_r, priced at that size's
  // effective bandwidth (striping engages sooner on the bigger message).
  const std::int64_t m_tile = t.m_r * static_cast<std::int64_t>(k);
  const double L = mach.effective_latency();
  const double B =
      mach.effective_bandwidth(static_cast<std::size_t>(m_tile));
  double compute_core = 0.0, compute_halo = 0.0;
  for (const LoopTerms& lt : t.loops) {
    compute_core += lt.g * static_cast<double>(lt.core_iters);
    compute_halo += lt.g * static_cast<double>(lt.halo_iters);
  }
  const double c = mach.net.pack_time(m_tile);
  const double comm = t.p * (L + static_cast<double>(m_tile) / B + c);
  // One exchange per k invocations; cores of all k invocations overlap
  // it. The j-th fused invocation's halo region reaches ~j layer-bands
  // deep (slice shrink grows along the unrolled window), so the tile's
  // total halo compute is sum_{j=1..k} j * halo = k(k+1)/2 * halo —
  // (k+1)/2 per invocation. At k = 1 every term collapses to Eq (3).
  const double per_tile =
      std::max(static_cast<double>(k) * compute_core, comm) +
      static_cast<double>(k) * compute_halo *
          (static_cast<double>(k) + 1.0) / 2.0;
  return per_tile / static_cast<double>(k);
}

double gain_percent(double t_op2, double t_ca) {
  if (t_op2 <= 0.0) return 0.0;
  return 100.0 * (t_op2 - t_ca) / t_op2;
}

}  // namespace op2ca::model
