"""Deformed semicircle law via its self-consistent Stieltjes equation.

The central object is the fixed point

    m(z) = integral dnu(v) / (lam*gamma*v - z - gamma^2 m(z)),   Im m >= 0,

whose gamma = 1 case is the free convolution of lam-scaled nu with the
semicircle law, and whose gamma < 1 case is the edge-rescaled variant used
along the matrix flow.  Densities come from Stieltjes inversion, support
endpoints from the defining equation of the rightmost edge:

    integral dnu(v) / (lam v - theta)^2 = 1,   theta > lam v_max,
    E_plus = theta - integral dnu(v) / (lam v - theta),

and its mirror image on the left.  _edge_roots is the one place that edge
data is computed: it checks the regularity assumption once and solves both
roots, and support_endpoints and edgescale.build both read it.

Iteration scheme: Newton on G(m) = m - F(m) from m = i, which is Newton in
the subordination variable omega = z + gamma^2 m (affine in m), where the
equation reads z = omega - gamma^2 g(omega) with g(omega) = integral
dnu(v) / (lam gamma v - omega) (Biane 1997).  Each point takes the step
t * (-G/G'); t halves when the candidate leaves the closed upper half plane
or fails to lower |G|, and doubles back towards 1 after each accepted step.
G is analytic, so wherever G' != 0 a short enough Newton step lowers |G|
and the halving ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import measure as ms


class IterationError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, msg: str, residual: float, index: int | None = None):
        super().__init__(msg)
        self.residual = residual
        self.index = index


class AssumptionViolatedError(ValueError):
    """The (nu, lam) pair admits no regular square-root edge."""


class InsufficientPointsError(ValueError):
    """Grid too coarse near the edge for a power-law fit."""


@dataclass(frozen=True)
class FreeConvolutionSolution:
    """Solved law on an energy grid at a fixed spectral height eta."""

    nu: ms.Measure
    lam: float
    gamma: float
    grid: np.ndarray
    m: np.ndarray
    eta: float
    density: np.ndarray

    @property
    def support(self) -> tuple[float, float]:
        """(gamma E_minus, gamma E_plus), unchecked: a split support gives
        the outer hull."""
        _, _, e_m, e_p = _outer_roots(self.nu, self.lam)
        return self.gamma * e_m, self.gamma * e_p


def _maps(nu, lam, gamma, z, m):
    """F(m) and F'(m) for the fixed-point map."""
    g2 = gamma * gamma
    s = lam * gamma
    if s < 1e-50:
        # coupling this small is indistinguishable from zero at tolerance
        d = -(z + g2 * m)
        return 1.0 / d, g2 / (d * d)
    # multiply by 1/s one factor at a time: s^2 can underflow even when the
    # mathematical results are well scaled
    inv = 1.0 / s
    w = (z + g2 * m) * inv
    f = ms.stieltjes_power_array(nu, w, 1) * inv
    fp = g2 * (ms.stieltjes_power_array(nu, w, 2) * inv) * inv
    return f, fp


def _solve_many(nu, lam, gamma, z, tol, max_iter):
    """Vectorized Newton solve from m = i; returns m with |m - F(m)| < tol."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(z.shape, dtype=complex)
    idx = np.arange(z.size)
    zi = z.ravel()
    mi = np.full(zi.shape, 1j)
    f, fp = _maps(nu, lam, gamma, zi, mi)
    r = np.abs(mi - f)
    t = np.ones(zi.shape)

    for it in range(max_iter):
        # step t * (-G/G') on G(m) = m - F(m); halve t on a candidate that
        # leaves the closed upper half plane or does not lower |G|
        cand = mi - t * (mi - f) / (1.0 - fp)
        f_c, fp_c = _maps(nu, lam, gamma, zi, cand)
        r_c = np.abs(cand - f_c)
        ok = (cand.imag >= 0.0) & (r_c < r)
        mi, f, fp, r = (np.where(ok, new, old) for new, old in
                        ((cand, mi), (f_c, f), (fp_c, fp), (r_c, r)))
        t = np.where(ok, np.minimum(1.0, 2.0 * t), 0.5 * t)
        done = r < tol
        if done.any():
            out.ravel()[idx[done]] = mi[done]
            keep = ~done
            idx, zi, mi, f, fp, r, t = (a[keep] for a in (idx, zi, mi, f, fp, r, t))
            if idx.size == 0:
                return out, it + 1

    worst = int(np.argmax(r))
    raise IterationError(
        f"no convergence after {max_iter} iterations (residual {r[worst]:.3e})",
        residual=float(r[worst]), index=int(idx[worst]))


def solve_point(nu: ms.Measure, lam: float, gamma: float, z,
                tol: float = 1e-12, max_iter: int = 10_000) -> complex:
    """Solve the self-consistent equation at one spectral point."""
    zc = ms.as_upper_half(z)
    out, _ = _solve_many(nu, lam, gamma, np.array([zc]), tol, max_iter)
    return complex(out[0])


def _outer_roots(nu: ms.Measure, lam: float) -> tuple[float, float, float, float]:
    """(theta_minus, theta_plus, E_minus, E_plus) for the gamma = 1 law."""
    if lam < 1e-50:
        return -1.0, 1.0, -2.0, 2.0
    # imported on use: loading scipy.optimize ahead of measure's
    # scipy.special made `import dwedge.cli` about 0.1 s slower
    from scipy.optimize import brentq

    def phi(theta):
        # integral dnu / (lam v - theta)^2, real theta outside lam * support
        return ms.deformed_power(nu, lam, theta, 2)

    vmin, vmax = ms.support_interval(nu)
    out = []
    for side in (+1, -1):
        edge = lam * (vmax if side > 0 else vmin)
        near = edge + side * 1e-12
        far = edge + side * (10.0 + 10.0 * lam)
        if not phi(near) > 1.0:
            raise AssumptionViolatedError(
                f"no edge root above {edge:.6g}: the deformation is too strong "
                "for a square-root edge on this side")
        # phi decreases monotonically away from the support, so the bracket
        # holds exactly one root of phi = 1
        theta = brentq(lambda th: phi(th) - 1.0, *sorted((near, far)), xtol=1e-15)
        mval = ms.deformed_power(nu, lam, theta, 1)
        out.append((theta, theta - mval))
    (th_p, e_p), (th_m, e_m) = out
    return th_m, th_p, e_m, e_p


def assumption_margin(nu: ms.Measure, lam: float) -> float:
    """min over the support hull of integral dnu/(v-x)^2 minus lam^2.

    Nonnegative margin is the regularity assumption behind a square-root
    edge; checked on a 10^4-point grid (atoms give +inf at their own
    locations, which never attains the min)."""
    vmin, vmax = ms.support_interval(nu)
    if vmax - vmin < 1e-30:
        return np.inf
    xs = np.linspace(vmin, vmax, 10_000)
    xq, wq = ms._quad_nodes(nu)
    with np.errstate(divide="ignore"):
        vals = np.sum(wq / (xq[None, :] - xs[:, None]) ** 2, axis=1)
    return float(np.min(vals) - lam * lam)


def _edge_roots(nu: ms.Measure, lam: float) -> tuple[float, float, float, float]:
    """_outer_roots after the regularity check on (nu, lam)."""
    if lam < 0:
        raise ValueError("need lam >= 0")
    if lam > 0 and assumption_margin(nu, lam) < 0:
        raise AssumptionViolatedError(
            "min over the support hull of integral dnu/(v-x)^2 is below lam^2")
    return _outer_roots(nu, lam)


def support_endpoints(nu: ms.Measure, lam: float) -> tuple[float, float]:
    """(E_minus, E_plus) for the gamma = 1 deformed law."""
    _, _, e_m, e_p = _edge_roots(nu, lam)
    return e_m, e_p


def solve_grid(nu: ms.Measure, lam: float, gamma: float, lo: float, hi: float,
               n: int, eta: float, tol: float = 1e-12,
               max_iter: int = 10_000) -> FreeConvolutionSolution:
    """Solve along linspace(lo, hi, n) + i*eta."""
    if not (lo < hi and n >= 2 and eta > 0):
        raise ValueError("need lo < hi, n >= 2, eta > 0")
    grid = np.linspace(lo, hi, n)
    m, _ = _solve_many(nu, lam, gamma, grid + 1j * eta, tol, max_iter)
    return FreeConvolutionSolution(nu=nu, lam=lam, gamma=gamma, grid=grid,
                                   m=m, eta=eta, density=m.imag / np.pi)


def density_at(nu: ms.Measure, lam: float, gamma: float, E: float,
               tol: float = 1e-12, max_iter: int = 10_000) -> float:
    """Density by Richardson extrapolation of Im m over eta in {1e-5, 5e-6}.

    Im m(E + i eta) = pi rho(E) + O(eta^2) inside the support and O(eta)
    outside; the two-point combination cancels the leading error both ways.
    """
    m1 = solve_point(nu, lam, gamma, complex(E, 1e-5), tol, max_iter)
    m2 = solve_point(nu, lam, gamma, complex(E, 5e-6), tol, max_iter)
    return (2.0 * m2.imag - m1.imag) / np.pi


def asymptotic_eplus(nu: ms.Measure, lam0: float) -> float:
    """Small-coupling expansion of the upper edge through fourth order."""
    if lam0 < 0:
        raise ValueError("need lam0 >= 0")
    m1 = ms.mean(nu)
    c2 = ms.central_moment(nu, 2)
    c3 = ms.central_moment(nu, 3)
    c4 = ms.central_moment(nu, 4)
    return 2.0 + lam0 * m1 + lam0**2 * c2 + lam0**3 * c3 \
        + lam0**4 * (c4 - 9.0 * c2 * c2 / 4.0)


def edge_exponent_fit(sol: FreeConvolutionSolution,
                      lo: float = 1e-4, hi: float = 1e-2) -> tuple[float, float]:
    """(amplitude, exponent) of density ~ amplitude * kappa^exponent at the
    upper edge, fit by least squares in log-log over kappa in [lo, hi]."""
    e_plus = sol.support[1]
    near = np.abs(sol.grid - e_plus) < 0.05
    if np.count_nonzero(near) < 20:
        raise InsufficientPointsError(
            f"only {np.count_nonzero(near)} grid points within 0.05 of the edge")
    kappa = e_plus - sol.grid
    pick = (kappa >= lo) & (kappa <= hi) & (sol.density > 0)
    if np.count_nonzero(pick) < 5:
        raise InsufficientPointsError("fewer than 5 usable points in the fit window")
    x = np.log(kappa[pick])
    y = np.log(sol.density[pick])
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(intercept)), float(slope)


def solution_to_json(sol: FreeConvolutionSolution) -> dict:
    return {
        "measure": ms.to_json(sol.nu),
        "lam": sol.lam,
        "gamma": sol.gamma,
        "eta": sol.eta,
        "support": [sol.support[0], sol.support[1]],
        "grid": sol.grid.tolist(),
        "m_re": sol.m.real.tolist(),
        "m_im": sol.m.imag.tolist(),
        "density": sol.density.tolist(),
    }


def solution_from_json(obj: dict) -> FreeConvolutionSolution:
    return FreeConvolutionSolution(
        nu=ms.from_json(obj["measure"]), lam=float(obj["lam"]),
        gamma=float(obj["gamma"]),
        grid=np.asarray(obj["grid"], dtype=float),
        m=np.asarray(obj["m_re"], dtype=float) + 1j * np.asarray(obj["m_im"], dtype=float),
        eta=float(obj["eta"]),
        density=np.asarray(obj["density"], dtype=float))


def solution_to_csv(sol: FreeConvolutionSolution) -> str:
    lines = ["E,re_m,im_m,density"]
    for e, mv, d in zip(sol.grid, sol.m, sol.density):
        lines.append(f"{float(e)!r},{float(mv.real)!r},{float(mv.imag)!r},{float(d)!r}")
    return "\n".join(lines) + "\n"


def dump_solution(sol: FreeConvolutionSolution, path: str) -> None:
    if path.endswith(".csv"):
        with open(path, "w") as fh:
            fh.write(solution_to_csv(sol))
    else:
        with open(path, "w") as fh:
            json.dump(solution_to_json(sol), fh)
