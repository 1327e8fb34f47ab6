// Hydra-analogue kernel bodies. Access shapes match Tables 3-4 exactly;
// arithmetic is plausible RANS-solver work with per-loop cost weights
// mirroring the paper's relative chain costs (vflux 18%, gradl 8%,
// iflux 5%, jacob 2% of runtime). Kernels executed redundantly are
// order-independent: increments commute, RW-combines use max/avg forms
// whose targets are touched once per loop (pedges/cbnd) or combined
// monotonically (edges).
//
// Every kernel is a function object with a templated call operator.
// The runtime passes one `double*` row per argument (a dat element's
// `dim` contiguous components, or a gbl buffer), as do the direct calls
// in tests and benches; bodies index components with arg[k].
#pragma once

#include <algorithm>
#include <cmath>

namespace op2ca::apps::hydra::kernels {

inline constexpr int kQ = 6;
inline constexpr int kJ = 9;

// ---- weight chain ------------------------------------------------------

/// sumbwts (bnd): qo INC indirect, bwts READ direct.
struct Sumbwts {
  template <typename Q, typename B>
  void operator()(Q&& qo, B&& bwts) const {
    for (int k = 0; k < kQ; ++k) qo[k] += 0.01 * bwts[0] * (k + 1);
  }
};
inline constexpr Sumbwts sumbwts{};

/// periodsym (pedges): qo RW indirect on both periodic partners. Damped
/// relaxation toward the periodic reference state; self-combine form
/// (each node's new value depends only on its own old value), keeping
/// the loop order-independent and its upstream halo needs local.
struct Periodsym {
  template <typename A, typename B>
  void operator()(A&& qo_a, B&& qo_b) const {
    for (int k = 0; k < kQ; ++k) {
      qo_a[k] = 0.995 * qo_a[k] + 5e-3 * (k + 1);
      qo_b[k] = 0.995 * qo_b[k] + 5e-3 * (k + 1);
    }
  }
};
inline constexpr Periodsym periodsym{};

/// centreline (cbnd): qo WRITE indirect, cbv READ direct.
struct Centreline {
  template <typename Q, typename C>
  void operator()(Q&& qo, C&& cbv) const {
    for (int k = 0; k < kQ; ++k) qo[k] = cbv[k];
  }
};
inline constexpr Centreline centreline{};

/// edgelength (edges): qo RW indirect both ends, ewk READ direct. The
/// combine is a max against an edge-local value only — never against the
/// partner's qo — so the result is independent of edge execution order
/// (sparse tiling's order-independence requirement).
struct Edgelength {
  template <typename A, typename B, typename E>
  void operator()(A&& qo_a, B&& qo_b, E&& ewk) const {
    for (int k = 0; k < kQ; ++k) {
      const double w = std::abs(ewk[0]) * 1e-3 * (k + 1);
      qo_a[k] = std::max<double>(qo_a[k], w);
      qo_b[k] = std::max<double>(qo_b[k], w);
    }
  }
};
inline constexpr Edgelength edgelength{};

/// periodicity (pedges): qo RW indirect; clamps each periodic node's
/// state to a floor (self-combine form).
struct Periodicity {
  template <typename A, typename B>
  void operator()(A&& qo_a, B&& qo_b) const {
    for (int k = 0; k < kQ; ++k) {
      const double floor_k = 1e-3 * (k + 1);
      qo_a[k] = std::max<double>(qo_a[k], floor_k);
      qo_b[k] = std::max<double>(qo_b[k], floor_k);
    }
  }
};
inline constexpr Periodicity periodicity{};

// ---- period chain ------------------------------------------------------

/// negflag (pedges): vol RW indirect both partners (self-combine: flip
/// negative volumes), pwk WRITE direct (pedge-local flag reset; does not
/// consume vol, keeping the self-combine contract).
struct Negflag {
  template <typename A, typename B, typename P>
  void operator()(A&& vol_a, B&& vol_b, P&& pwk) const {
    vol_a[0] = std::abs(vol_a[0]) + 1e-9;
    vol_b[0] = std::abs(vol_b[0]) + 1e-9;
    pwk[0] = 1.0;
    pwk[1] = -1.0;
  }
};
inline constexpr Negflag negflag{};

/// limxp (edges): qo RW indirect both ends, vol READ indirect both ends.
/// Monotone max against an edge-local limiter value (order-independent:
/// vol is not written by this loop and qo is only max-combined).
struct Limxp {
  template <typename A, typename B, typename VA, typename VB>
  void operator()(A&& qo_a, B&& qo_b, VA&& vol_a, VB&& vol_b) const {
    const double w =
        1.0 / (std::abs(vol_a[0]) + std::abs(vol_b[0]) + 1e-9);
    for (int k = 0; k < kQ; ++k) {
      const double lim = w * 1e-4 * (k + 1);
      qo_a[k] = std::max<double>(qo_a[k], lim);
      qo_b[k] = std::max<double>(qo_b[k], lim);
    }
  }
};
inline constexpr Limxp limxp{};

// ---- gradl chain -------------------------------------------------------

/// edgecon (edges): qp INC indirect both ends, ql INC indirect both
/// ends, ewk READ direct. Gradient contribution accumulation.
struct Edgecon {
  template <typename PA, typename PB, typename LA, typename LB, typename E>
  void operator()(PA&& qp_a, PB&& qp_b, LA&& ql_a, LB&& ql_b,
                  E&& ewk) const {
    for (int k = 0; k < kQ; ++k) {
      const double g = ewk[0] * 1e-3 * (k + 1);
      qp_a[k] += g;
      qp_b[k] -= g;
      ql_a[k] += 0.5 * g;
      ql_b[k] -= 0.5 * g;
    }
  }
};
inline constexpr Edgecon edgecon{};

/// period (pedges): qp RW indirect, ql RW indirect (self-combine damped
/// periodic correction).
struct PeriodGradl {
  template <typename PA, typename PB, typename LA, typename LB>
  void operator()(PA&& qp_a, PB&& qp_b, LA&& ql_a, LB&& ql_b) const {
    for (int k = 0; k < kQ; ++k) {
      qp_a[k] = 0.99 * qp_a[k] + 1e-3;
      qp_b[k] = 0.99 * qp_b[k] + 1e-3;
      ql_a[k] = 0.99 * ql_a[k] - 1e-3;
      ql_b[k] = 0.99 * ql_b[k] - 1e-3;
    }
  }
};
inline constexpr PeriodGradl period_gradl{};

// ---- vflux chain (the most expensive in Hydra) --------------------------

/// initres (nodes): res WRITE direct.
struct Initres {
  template <typename R>
  void operator()(R&& res) const {
    for (int k = 0; k < kQ; ++k) res[k] = 0.0;
  }
};
inline constexpr Initres initres{};

/// vflux_edge (edges): qp/xp/ql/qmu/qrg READ indirect both ends, res INC
/// indirect both ends. Viscous-flux-like arithmetic (heavy).
struct VfluxEdge {
  template <typename PA, typename PB, typename XA, typename XB,
            typename LA, typename LB, typename MA, typename MB,
            typename GA, typename GB, typename RA, typename RB>
  void operator()(PA&& qp_a, PB&& qp_b, XA&& xp_a, XB&& xp_b, LA&& ql_a,
                  LB&& ql_b, MA&& qmu_a, MB&& qmu_b, GA&& qrg_a,
                  GB&& qrg_b, RA&& res_a, RB&& res_b) const {
    double dx[3];
    for (int d = 0; d < 3; ++d) dx[d] = xp_b[d] - xp_a[d];
    const double len2 =
        dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + 1e-12;
    const double inv_len = 1.0 / std::sqrt(len2);
    const double mu = 0.5 * (qmu_a[0] + qmu_b[0]);
    const double rg = 0.5 * (qrg_a[0] + qrg_b[0]);
    for (int k = 0; k < kQ; ++k) {
      const double grad = (qp_b[k] - qp_a[k]) * inv_len;
      const double lim = 0.5 * (ql_a[k] + ql_b[k]);
      const double stress = mu * grad * (1.0 + 0.1 * lim);
      const double heat = rg * grad * grad / (std::abs(grad) + 1.0);
      const double f = stress + 0.01 * heat;
      res_a[k] += f;
      res_b[k] -= f;
    }
  }
};
inline constexpr VfluxEdge vflux_edge{};

// ---- iflux chain ---------------------------------------------------------

/// initviscres (nodes): visres WRITE direct.
struct Initviscres {
  template <typename V>
  void operator()(V&& visres) const {
    for (int k = 0; k < kQ; ++k) visres[k] = 0.0;
  }
};
inline constexpr Initviscres initviscres{};

/// iflux_edge (edges): qrg READ indirect both ends, visres INC indirect.
struct IfluxEdge {
  template <typename GA, typename GB, typename VA, typename VB>
  void operator()(GA&& qrg_a, GB&& qrg_b, VA&& visres_a,
                  VB&& visres_b) const {
    const double f = 0.5 * (qrg_a[0] - qrg_b[0]);
    for (int k = 0; k < kQ; ++k) {
      visres_a[k] += f * (k + 1);
      visres_b[k] -= f * (k + 1);
    }
  }
};
inline constexpr IfluxEdge iflux_edge{};

// ---- jacob chain ---------------------------------------------------------

/// jac_period (pedges): jacp/jaca READ indirect both partners, pwk WRITE
/// direct.
struct JacPeriod {
  template <typename PA, typename PB, typename AA, typename AB, typename W>
  void operator()(PA&& jacp_a, PB&& jacp_b, AA&& jaca_a, AB&& jaca_b,
                  W&& pwk) const {
    double s = 0.0;
    for (int k = 0; k < kJ; ++k)
      s += jacp_a[k] * jaca_b[k] - jacp_b[k] * jaca_a[k];
    pwk[0] = s;
    pwk[1] = -s;
  }
};
inline constexpr JacPeriod jac_period{};

/// jac_centreline (cbnd): cbv RW direct.
struct JacCentreline {
  template <typename C>
  void operator()(C&& cbv) const {
    for (int k = 0; k < kQ; ++k) cbv[k] = 0.5 * cbv[k] + 1e-3;
  }
};
inline constexpr JacCentreline jac_centreline{};

/// jac_corrections (bnd): jacb READ indirect, bwk WRITE direct.
struct JacCorrections {
  template <typename J, typename B>
  void operator()(J&& jacb, B&& bwk) const {
    double s = 0.0;
    for (int k = 0; k < kJ; ++k) s += jacb[k];
    bwk[0] = s / kJ;
  }
};
inline constexpr JacCorrections jac_corrections{};

// ---- inter-iteration state update ---------------------------------------

/// rk_update (nodes, all direct): consumes the residuals and re-dirties
/// every dat the chains read, like an RK stage of the real solver
/// (including xp — the paper's vflux row lists xp among the exchanged
/// dats, i.e. the mesh metric terms are refreshed every iteration).
struct RkUpdate {
  template <typename QO, typename QP, typename QL, typename QG,
            typename QM, typename V, typename X, typename JP, typename JA,
            typename JB, typename R, typename VR>
  void operator()(QO&& qo, QP&& qp, QL&& ql, QG&& qrg, QM&& qmu, V&& vol,
                  X&& xp, JP&& jacp, JA&& jaca, JB&& jacb, R&& res,
                  VR&& visres) const {
    for (int k = 0; k < kQ; ++k) {
      qo[k] = 0.999 * qo[k] - 1e-4 * (res[k] + visres[k]);
      qp[k] = 0.999 * qp[k] + 1e-4 * res[k];
      ql[k] = 0.999 * ql[k] + 1e-4 * visres[k];
    }
    qrg[0] = 0.999 * qrg[0] + 1e-5 * res[0];
    qmu[0] = 0.999 * qmu[0] + 1e-5 * visres[0];
    vol[0] = std::abs(0.999 * vol[0]) + 1e-6;
    xp[3] = 0.999 * xp[3] + 1e-6 * res[0];  // metric terms, not coordinates
    xp[4] = 0.999 * xp[4] + 1e-6 * res[1];
    xp[5] = 0.999 * xp[5] - 1e-6 * res[2];
    for (int k = 0; k < kJ; ++k) {
      jacp[k] = 0.999 * jacp[k] + 1e-5 * res[k % kQ];
      jaca[k] = 0.999 * jaca[k] - 1e-5 * res[k % kQ];
      jacb[k] = 0.999 * jacb[k] + 1e-5 * visres[k % kQ];
    }
  }
};
inline constexpr RkUpdate rk_update{};

/// rk_stage (nodes, all direct): stage-weighted Runge-Kutta update. The
/// stage coefficient arrives as a global READ argument.
struct RkStage {
  template <typename QO, typename QP, typename QL, typename R,
            typename VR, typename A>
  void operator()(QO&& qo, QP&& qp, QL&& ql, R&& res, VR&& visres,
                  A&& alpha) const {
    for (int k = 0; k < kQ; ++k) {
      const double dq = alpha[0] * 1e-4 * (res[k] + visres[k]);
      qo[k] -= dq;
      qp[k] = 0.999 * qp[k] + dq;
      ql[k] = 0.999 * ql[k] - 0.5 * dq;
    }
  }
};
inline constexpr RkStage rk_stage{};

}  // namespace op2ca::apps::hydra::kernels
