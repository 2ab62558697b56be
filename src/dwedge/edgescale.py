"""Edge rescaling calculus for the deformed law and its flow in time.

Given a potential measure nu and coupling lam, the rightmost spectral edge
is encoded by

    zeta:  largest solution of  integral dnu(v)/(lam v - zeta)^2 = 1,
    gamma: ( - integral dnu(v)/(lam v - zeta)^3 )^(-1/3),  in (0, 1],
    E+   : zeta - integral dnu(v)/(lam v - zeta),
    tau  = gamma * zeta,   L+ = gamma * E+,

so that the gamma-rescaled law has a square-root edge at L+ with the
semicircle's 1/pi amplitude.  zeta, E+ and the lower edge E- come from
freeconv._edge_roots, the one place edge data is computed; build adds the
rescaling on top and solves no edge root of its own.  The resolvent
expansions along the flow are driven by the edge moments

    A_n  = integral dnu(v) / (lam gamma v - tau)^n,
    A'_n = integral v dnu(v) / (lam gamma v - tau)^n,

whose algebra (A2 = gamma^-2, A3 = -gamma^-6, the three-term recurrence,
and the vanishing of the flow coefficients C2, C3, C0') is checked here
numerically with finite-difference time derivatives rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import freeconv as fc
from . import measure as ms

_FD_STEP = 1e-5  # the time step of the central differences in coefficients


@dataclass(frozen=True)
class EdgeScaling:
    nu: ms.Measure
    lam: float
    zeta: float
    gamma: float
    tau: float
    l_plus: float
    e_plus: float
    e_minus: float
    A: dict[int, float]
    Ap: dict[int, float]


def build(nu: ms.Measure, lam: float) -> EdgeScaling:
    """Edge scaling data for (nu, lam); lam = 0 degenerates to the semicircle."""
    _, zeta, e_minus, e_plus = fc._edge_roots(nu, lam)
    _, vmax = ms.support_interval(nu)
    if zeta - lam * vmax <= 1e-6:
        raise fc.AssumptionViolatedError(
            f"edge root zeta = {zeta:.6g} sits within 1e-6 of the deformed support")
    third = ms.deformed_power(nu, lam, zeta, 3)
    gamma = (-third) ** (-1.0 / 3.0)
    tau = gamma * zeta
    l_plus = gamma * e_plus
    s = lam * gamma
    A = {n: ms.deformed_power(nu, s, tau, n) for n in range(1, 5)}
    Ap = {n: ms.deformed_power(nu, s, tau, n, weight=1) for n in range(2, 5)}
    return EdgeScaling(nu=nu, lam=lam, zeta=zeta, gamma=gamma, tau=tau,
                       l_plus=l_plus, e_plus=e_plus, e_minus=e_minus, A=A, Ap=Ap)


def flow_scaling(nu: ms.Measure, lam0: float, t: float) -> EdgeScaling:
    """Scaling with the flow coupling lam(t) = lam0 exp(-t/2)."""
    if not 0 <= t < np.inf:
        raise ValueError(f"need a finite time t >= 0, got {t}")
    return build(nu, lam0 * np.exp(-t / 2.0))


def _flow_derivatives(nu: ms.Measure, lam0: float, t: float):
    """Scaling at t with central differences in t of gamma, lam * gamma and
    L+ under lam(t) = lam0 exp(-t/2); the lower node may sit below t = 0."""
    h = _FD_STEP
    mid = flow_scaling(nu, lam0, t)
    up, dn = (build(nu, lam0 * np.exp(-s / 2.0)) for s in (t + h, t - h))
    gdot = (up.gamma - dn.gamma) / (2 * h)
    lgdot = (up.lam * up.gamma - dn.lam * dn.gamma) / (2 * h)
    zdot = (up.l_plus - dn.l_plus) / (2 * h)
    return mid, gdot, lgdot, zdot


def coefficients(nu: ms.Measure, lam0: float,
                 t: float) -> tuple[float, float, float, float]:
    """(C2, C3, C0, C0') of the flow expansion at time t.

    C2, C3, C0' vanish identically (the cancellation that closes the edge
    evolution), while C0 equals d/dt of m_fc-hat at the moving edge.  All
    time derivatives are central finite differences, and the edge velocity
    entering C2 is the independent finite difference of L+(t), so the
    vanishing is a genuine numerical statement.
    """
    mid, gdot, lgdot, zdot = _flow_derivatives(nu, lam0, t)
    g, A, Ap = mid.gamma, mid.A, mid.Ap
    c2 = -lgdot * g**2 * Ap[2] + zdot + 2.0 * gdot * g * A[1]
    bracket = -lgdot * (Ap[3] - A[3] * Ap[4] / A[4]) \
        + gdot / g * (1.0 / g**2 - 2.0 * A[3] ** 2 / A[4])
    c3 = 2.0 * g**2 * bracket
    c0p = bracket
    c0 = -lgdot * (Ap[2] - A[2] * Ap[4] / A[4]) \
        - 2.0 * gdot * A[2] * A[3] / (g * A[4])
    return c2, c3, c0, c0p


def to_json(s: EdgeScaling) -> dict:
    recur = max(abs(s.lam * s.gamma * s.Ap[n] - s.tau * s.A[n] - s.A[n - 1])
                for n in (2, 3, 4))
    return {
        "measure": ms.to_json(s.nu),
        "lam": s.lam,
        "zeta": s.zeta,
        "gamma": s.gamma,
        "tau": s.tau,
        "l_plus": s.l_plus,
        "e_plus": s.e_plus,
        "A": {str(n): s.A[n] for n in sorted(s.A)},
        "A_prime": {str(n): s.Ap[n] for n in sorted(s.Ap)},
        "residuals": {
            # gamma = (- integral dnu/(lam gamma v - tau)^3)^(-1/6)
            "gamma_relation": abs(s.gamma - (-s.A[3]) ** (-1.0 / 6.0)),
            "tau_identity": abs(s.tau - s.gamma * s.zeta),
            "recurrence": recur,
            "a2_identity": abs(s.A[2] - s.gamma**-2),
            "a3_identity": abs(s.A[3] + s.gamma**-6),
        },
    }
