// MG-CFD kernel bodies. The physics is a compact inviscid-flow
// finite-volume scheme: enough arithmetic per iteration to be
// representative of the real mini-app's flux kernels, fully
// deterministic, and order-independent where executed redundantly
// (increments commute; direct writes touch each element once).
//
// Every kernel is a function object with a templated call operator.
// The runtime passes one `double*` row per argument (a dat element's
// `dim` contiguous components, or a gbl buffer), as do the direct calls
// in tests and benches; bodies index components with arg[k].
#pragma once

#include <cmath>

namespace op2ca::apps::mgcfd::kernels {

inline constexpr int kQDim = 5;  // rho, rho*u, rho*v, rho*w, rho*E
inline constexpr double kGamma = 1.4;
inline constexpr double kCfl = 0.9;

/// adt = local pseudo-timestep scale from the flow state (nodes, direct).
struct StepFactor {
  template <typename Q, typename A>
  void operator()(Q&& q, A&& adt) const {
    const double rho = q[0] > 1e-12 ? q[0] : 1e-12;
    const double inv_rho = 1.0 / rho;
    const double u = q[1] * inv_rho, v = q[2] * inv_rho,
                 w = q[3] * inv_rho;
    const double ke = 0.5 * (u * u + v * v + w * w);
    double p = (kGamma - 1.0) * (q[4] - rho * ke);
    if (p < 1e-12) p = 1e-12;
    const double c = std::sqrt(kGamma * p * inv_rho);
    const double speed = std::sqrt(u * u + v * v + w * w) + c;
    adt[0] = kCfl / (speed + 1e-12);
  }
};
inline constexpr StepFactor step_factor{};

/// Central flux with scalar dissipation along an edge; increments the
/// residuals of both end nodes (edges; q READ indirect, res INC indirect,
/// ewt READ direct).
struct ComputeFluxEdge {
  template <typename Q1, typename Q2, typename E, typename R1, typename R2>
  void operator()(Q1&& q1, Q2&& q2, E&& ewt, R1&& res1, R2&& res2) const {
    const double inv_r1 = 1.0 / (q1[0] > 1e-12 ? q1[0] : 1e-12);
    const double inv_r2 = 1.0 / (q2[0] > 1e-12 ? q2[0] : 1e-12);
    double vel1[3] = {q1[1] * inv_r1, q1[2] * inv_r1, q1[3] * inv_r1};
    double vel2[3] = {q2[1] * inv_r2, q2[2] * inv_r2, q2[3] * inv_r2};
    const double ke1 =
        0.5 * (vel1[0] * vel1[0] + vel1[1] * vel1[1] + vel1[2] * vel1[2]);
    const double ke2 =
        0.5 * (vel2[0] * vel2[0] + vel2[1] * vel2[1] + vel2[2] * vel2[2]);
    double p1 = (kGamma - 1.0) * (q1[4] - q1[0] * ke1);
    double p2 = (kGamma - 1.0) * (q2[4] - q2[0] * ke2);
    const double vn1 =
        vel1[0] * ewt[0] + vel1[1] * ewt[1] + vel1[2] * ewt[2];
    const double vn2 =
        vel2[0] * ewt[0] + vel2[1] * ewt[1] + vel2[2] * ewt[2];

    double flux[kQDim];
    flux[0] = 0.5 * (q1[0] * vn1 + q2[0] * vn2);
    flux[1] = 0.5 * (q1[1] * vn1 + q2[1] * vn2 + (p1 + p2) * ewt[0]);
    flux[2] = 0.5 * (q1[2] * vn1 + q2[2] * vn2 + (p1 + p2) * ewt[1]);
    flux[3] = 0.5 * (q1[3] * vn1 + q2[3] * vn2 + (p1 + p2) * ewt[2]);
    flux[4] = 0.5 * ((q1[4] + p1) * vn1 + (q2[4] + p2) * vn2);

    // Scalar (Rusanov-style) dissipation.
    const double diss = 0.05 * (std::abs(vn1) + std::abs(vn2) + 1.0);
    for (int k = 0; k < kQDim; ++k) {
      const double d = diss * (q2[k] - q1[k]);
      res1[k] += flux[k] + d;
      res2[k] -= flux[k] + d;
    }
  }
};
inline constexpr ComputeFluxEdge compute_flux_edge{};

/// Explicit update consuming (and zeroing) the residual (nodes; q RW
/// direct, adt READ direct, res RW direct).
struct TimeStep {
  template <typename Q, typename A, typename R>
  void operator()(Q&& q, A&& adt, R&& res) const {
    for (int k = 0; k < kQDim; ++k) {
      q[k] -= 1e-3 * adt[0] * res[k];
      res[k] = 0.0;
    }
  }
};
inline constexpr TimeStep time_step{};

/// Residual L2 contribution (nodes direct; gbl INC).
struct ResidualRms {
  template <typename R, typename G>
  void operator()(R&& res, G&& rms) const {
    double s = 0.0;
    for (int k = 0; k < kQDim; ++k) s += res[k] * res[k];
    rms[0] += s;
  }
};
inline constexpr ResidualRms residual_rms{};

/// Fine-to-coarse restriction: accumulate fine q onto the mapped coarse
/// node (fine nodes; coarse q INC indirect, fine q READ direct).
struct RestrictQ {
  template <typename F, typename C>
  void operator()(F&& fine_q, C&& coarse_q) const {
    for (int k = 0; k < kQDim; ++k) coarse_q[k] += 0.125 * fine_q[k];
  }
};
inline constexpr RestrictQ restrict_q{};

/// Coarse-to-fine injection (coarse nodes; fine q RW indirect arity 1 —
/// each fine node is targeted by at most one coarse node).
struct ProlongQ {
  template <typename C, typename F>
  void operator()(C&& coarse_q, F&& fine_q) const {
    for (int k = 0; k < kQDim; ++k)
      fine_q[k] += 1e-3 * (coarse_q[k] - 8.0 * fine_q[k] * 0.125);
  }
};
inline constexpr ProlongQ prolong_q{};

/// Zero a node dat (direct WRITE).
struct Zero5 {
  template <typename V>
  void operator()(V&& v) const {
    for (int k = 0; k < kQDim; ++k) v[k] = 0.0;
  }
};
inline constexpr Zero5 zero5{};

// ---- Synthetic chain kernels (Fig 2/3 of the paper). ------------------

/// update: indirect INC of res from indirect READs of pres. (pres must
/// stay read-only inside the chain: evolving it here would make its
/// value feed res across elements, which deepens the halo requirement
/// by one layer per loop pair — the r = n worst case of Section 3.1
/// instead of the paper's r = 2.)
struct SynthUpdate {
  template <typename R1, typename R2, typename P1, typename P2>
  void operator()(R1&& res1, R2&& res2, P1&& pres1, P2&& pres2) const {
    res1[0] += pres1[0] - pres1[1];
    res1[1] += pres2[0] - pres2[1];
    res2[0] += pres2[1] - pres2[0];
    res2[1] += pres1[1] - pres1[0];
  }
};
inline constexpr SynthUpdate synth_update{};

/// edge_flux: replica of the costly flux kernel's access pattern —
/// indirect READ of res, direct READ of edge weights, indirect INC of
/// flux. Arithmetic density mirrors compute_flux_edge.
struct SynthEdgeFlux {
  template <typename F1, typename F2, typename R1, typename R2, typename E>
  void operator()(F1&& flux1, F2&& flux2, R1&& res1, R2&& res2,
                  E&& ewt) const {
    const double a = res1[0] * ewt[0] - res1[1] * ewt[1];
    const double b = res2[1] * ewt[2] - res2[0] * ewt[3];
    const double c = std::sqrt(std::abs(a * b) + 1.0);
    flux1[0] += a + 0.5 * c;
    flux1[1] += b - 0.5 * c;
    flux2[0] += res2[1] * ewt[2] - res1[1] * ewt[3] + 0.25 * c;
    flux2[1] += res1[0] * ewt[0] - res1[1] * ewt[1] - 0.25 * c;
  }
};
inline constexpr SynthEdgeFlux synth_edge_flux{};

/// Outside-the-chain perturbation re-dirtying pres each timestep
/// (nodes; pres RW direct).
struct SynthPerturb {
  template <typename P>
  void operator()(P&& pres) const {
    pres[0] = 0.999 * pres[0] + 1e-4;
    pres[1] = 0.999 * pres[1] - 1e-4;
  }
};
inline constexpr SynthPerturb synth_perturb{};

}  // namespace op2ca::apps::mgcfd::kernels
