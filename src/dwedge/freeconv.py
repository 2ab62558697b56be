"""Deformed semicircle law via its self-consistent Stieltjes equation.

The central object is the fixed point

    m(z) = integral dnu(v) / (lam*gamma*v - z - gamma^2 m(z)),   Im m >= 0,

whose gamma = 1 case is the free convolution of lam-scaled nu with the
semicircle law, and whose gamma < 1 case is the edge-rescaled variant used
along the matrix flow.  Densities come from Stieltjes inversion, support
endpoints from the defining equation of the rightmost edge:

    integral dnu(v) / (lam v - theta)^2 = 1,   theta > lam v_max,
    E_plus = theta - integral dnu(v) / (lam v - theta),

and its mirror image on the left.  Both are the one integral against nu,
measure.deformed_power(nu, s, p, n) = integral dnu(v) / (s v - p)^n: the
fixed point at the complex pole p = z + gamma^2 m with s = lam gamma (n = 1
for the map, n = 2 for its derivative), the edge at the real pole p = theta
with s = lam.  _outer_roots is the one place that edge data is computed:
it refuses a lam outside [0, inf) and solves both roots without the
regularity check, so fc-solve reads a split support as its outer hull;
_edge_roots runs the regularity check once before it, and
support_endpoints and edgescale.build both read that.  phi(theta) = integral
dnu/(lam v - theta)^2 falls monotonically away from the support, and
phi^(-1/2), a power mean of the distances |lam v - theta|, is concave and
nearly linear there, so Newton on phi^(-1/2) = 1 climbs to the root from
the support side.  Each step reads phi and phi' = 2 integral dnu/(lam v -
theta)^3 from deformed_power; a step out of the bracket [edge + 1e-12,
edge + 10 + 10 lam] (phi is infinite at an atom on the edge) bisects it,
and the solve stops after a step of at most 1e-15 + 4 eps |theta|.  solve_grid
gives the law on an energy grid at a fixed spectral height (the solution
records its Newton iteration count), and density_at extrapolates the
density of such a solution to the real axis from one more grid solve at
half that height.  These and solve_point share one Newton
solve, at the fixed residual _TOL and step cap _MAX_ITER, that refuses a
non-finite lam or gamma before its first step.

Regularity check: assumption_margin is the exact minimum over the support
hull of integral dnu/(v-x)^2, minus lam^2: for a density, which makes it
infinite inside, the smaller endpoint value; for atoms, the smaller of the
hull-endpoint values and the minima on the convex gaps between atoms.  A
closed-form two-atom lower bound per gap skips every gap that cannot hold
the minimum, so a typical empirical measure costs a pass over its N atoms,
a sort of the N - 1 bounds and one or two short Newton solves.

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

from dataclasses import dataclass

import numpy as np

from . import measure as ms

_TOL = 1e-12  # Newton stops once |m - F(m)| < _TOL at every point,
_MAX_ITER = 10_000  # or fails after _MAX_ITER steps
_FIT_WINDOW = (1e-4, 1e-2)  # the kappa range of edge_exponent_fit


class IterationError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, msg: str, residual: float, index: int | None = None):
        super().__init__(msg)
        self.residual = residual
        self.index = index

    def __reduce__(self):
        # all three arguments, so that it unpickles after crossing a pool's pipe
        return type(self), (self.args[0], self.residual, self.index)


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
    iterations: int = 0  # Newton steps until every grid point converged


def _maps(nu, lam, gamma, z, m):
    """F(m) = g(omega) and F'(m) = gamma^2 g'(omega) at omega = z + gamma^2 m."""
    omega = z + gamma * gamma * m
    s = lam * gamma
    return (ms.deformed_power(nu, s, omega, 1),
            gamma * gamma * ms.deformed_power(nu, s, omega, 2))


def _solve_many(nu, lam, gamma, z):
    """Vectorized Newton solve from m = i; returns m and the steps taken."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"need a finite lam >= 0, got {lam}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"need a finite gamma > 0, got {gamma}")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(z.shape, dtype=complex)
    idx = np.arange(z.size)
    zi = z.ravel()
    mi = np.full(zi.shape, 1j)
    f, fp = _maps(nu, lam, gamma, zi, mi)
    r = np.abs(mi - f)
    t = np.ones(zi.shape)

    for it in range(_MAX_ITER):
        # step t * (-G/G') on G(m) = m - F(m); halve t on a candidate that
        # leaves the closed upper half plane or does not lower |G|
        cand = mi - t * (mi - f) / (1.0 - fp)
        f_c, fp_c = _maps(nu, lam, gamma, zi, cand)
        r_c = np.abs(cand - f_c)
        ok = (cand.imag >= 0.0) & (r_c < r)
        mi, f, fp, r = (np.where(ok, new, old) for new, old in
                        ((cand, mi), (f_c, f), (fp_c, fp), (r_c, r)))
        t = np.where(ok, np.minimum(1.0, 2.0 * t), 0.5 * t)
        done = r < _TOL
        if done.any():
            out.ravel()[idx[done]] = mi[done]
            keep = ~done
            idx, zi, mi, f, fp, r, t = (a[keep] for a in (idx, zi, mi, f, fp, r, t))
            if idx.size == 0:
                return out, it + 1

    worst = int(np.argmax(r))
    raise IterationError(
        f"no convergence after {_MAX_ITER} iterations (residual {r[worst]:.3e})",
        residual=float(r[worst]), index=int(idx[worst]))


def solve_point(nu: ms.Measure, lam: float, gamma: float, z) -> complex:
    """Solve the self-consistent equation at one spectral point."""
    out, _ = _solve_many(nu, lam, gamma, np.array([ms.as_upper_half(z)]))
    return complex(out[0])


def _outer_roots(nu: ms.Measure, lam: float) -> tuple[float, float, float, float]:
    """(theta_minus, theta_plus, E_minus, E_plus) for the gamma = 1 law."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"need a finite lam >= 0, got {lam}")
    if lam < 1e-50:
        return -1.0, 1.0, -2.0, 2.0

    def phi(theta):  # integral dnu / (lam v - theta)^2 and its theta-derivative
        return (float(ms.deformed_power(nu, lam, theta, 2)),
                2.0 * float(ms.deformed_power(nu, lam, theta, 3)))

    vmin, vmax = ms.support_interval(nu)
    out = []
    for side in (+1, -1):
        edge = lam * (vmax if side > 0 else vmin)
        near = edge + side * 1e-12 * max(1.0, abs(edge))
        far = edge + side * (10.0 + 10.0 * lam)
        f, fp = phi(near)
        if not f > 1.0:
            raise AssumptionViolatedError(
                f"no edge root {'above' if side > 0 else 'below'} {edge:.6g}: the "
                "deformation is too strong for a square-root edge on this side")
        theta = near
        for _ in range(100):
            # Newton on phi^(-1/2) = 1 inside [near, far], else bisection
            near, far = (theta, far) if f > 1.0 else (near, theta)
            step = 2.0 * f * (1.0 - f ** 0.5) / fp
            theta += step
            if abs(step) <= 1e-15 + 4.0 * np.finfo(float).eps * abs(theta):
                break
            if not min(near, far) < theta < max(near, far):
                theta = 0.5 * (near + far)
            f, fp = phi(theta)
        else:
            raise IterationError("no edge root after 100 Newton steps", abs(f - 1.0))
        mval = ms.deformed_power(nu, lam, theta, 1)
        out.append((theta, theta - mval))
    (th_p, e_p), (th_m, e_m) = out
    return th_m, th_p, e_m, e_p


def assumption_margin(nu: ms.Measure, lam: float) -> float:
    """min over the support hull of f(x) = integral dnu/(v-x)^2, minus lam^2.

    A nonnegative margin is the regularity assumption behind a square-root
    edge.  A Jacobi(a, b) density makes f infinite inside [-1, 1]; f(1) =
    G(a+b+2) G(b-1) / (4 G(a+b) G(b+1)) by Gauss's sum for b > 1, +inf for
    b <= 1, and f(-1) swaps a and b.  Atoms (x_i, w_i) with w_i > 0 leave f
    monotone outside their hull and convex on each gap, infinite at its
    ends.  Two atoms alone bound f on their gap of width g from below by
    (w_k^(1/3) + w_(k+1)^(1/3))^3 / g^2; gaps are visited in ascending order
    of that bound until it reaches the best value found, each by a
    safeguarded Newton solve of f' = 0 vectorized over a batch of gaps.
    The bound only prunes: the result is always f at a concrete point."""
    if isinstance(nu, ms.Jacobi):  # f(1), and f(-1) as f(1) of the mirror law
        return float(min(ms.deformed_power(law, 1.0, 1.0, 2)
                         for law in (nu, ms.Jacobi(nu.b, nu.a)))) - lam * lam
    vmin, vmax = ms.support_interval(nu)
    if vmax - vmin < 1e-30:
        return np.inf
    pos = nu.weights > 0
    x, w = nu.locations[pos], nu.weights[pos]
    with np.errstate(divide="ignore"):
        # +inf where an atom sits on the endpoint
        best = float(min(np.sum(w / (x - e) ** 2) for e in (vmin, vmax)))
    c = np.cbrt(w)
    bound = (c[:-1] + c[1:]) ** 3 / np.diff(x) ** 2
    order = np.argsort(bound)
    order = order[bound[order] < best]
    # batches of 1, 2, 4, ... gaps, at most 64: the first solves usually
    # prune the rest, and the temporaries stay at 64 x len(x)
    size = 1
    while order.size:
        batch, order = order[:size], order[size:]
        best = min(best, float(np.min(_gap_minima(x, w, batch, c))))
        order = order[bound[order] < best]
        size = min(2 * size, 64)
    return best - lam * lam


def _gap_minima(x, w, gaps, c):
    """min of f(t) = sum_i w_i/(x_i-t)^2 on each gap (x_k, x_(k+1)), k in gaps.

    Safeguarded Newton on f' from the two-atom minimiser: a step that leaves
    the bracket on which f' changes sign, or is longer than half the
    previous step, becomes a bisection, so the steps shrink geometrically."""
    lo, hi = x[gaps], x[gaps + 1]
    width = hi - lo
    t = lo + width * (c[gaps] / (c[gaps] + c[gaps + 1]))
    step_old = width
    for _ in range(100):
        inv = 1.0 / (x[None, :] - t[:, None])
        inv2 = inv * inv
        f, fp, fpp = inv2 @ w, 2.0 * ((inv2 * inv) @ w), 6.0 * ((inv2 * inv2) @ w)
        step = fp / fpp
        done = np.abs(step) <= 1e-10 * width
        if done.all():
            return f
        # f' = 2 sum w/(x_i - t)^3 increases through zero on the gap
        lo, hi = np.where(fp < 0, t, lo), np.where(fp > 0, t, hi)
        newton = t - step
        use = (newton > lo) & (newton < hi) & (2.0 * np.abs(step) <= np.abs(step_old))
        step_old = np.where(use, step, 0.5 * (hi - lo))
        t = np.where(done, t, np.where(use, newton, 0.5 * (lo + hi)))
    raise IterationError("no gap minimum after 100 Newton steps",
                         residual=float(np.max(np.abs(step))))


def _edge_roots(nu: ms.Measure, lam: float) -> tuple[float, float, float, float]:
    """_outer_roots after the regularity check on (nu, lam); a lam out of
    range skips the check and fails in _outer_roots."""
    if 0 < lam < np.inf and assumption_margin(nu, lam) < 0:
        raise AssumptionViolatedError(
            "min over the support hull of integral dnu/(v-x)^2 is below lam^2")
    return _outer_roots(nu, lam)


def support_endpoints(nu: ms.Measure, lam: float) -> tuple[float, float]:
    """(E_minus, E_plus) for the gamma = 1 deformed law."""
    _, _, e_m, e_p = _edge_roots(nu, lam)
    return e_m, e_p


def solve_grid(nu: ms.Measure, lam: float, gamma: float, lo: float, hi: float,
               n: int, eta: float) -> FreeConvolutionSolution:
    """Solve along linspace(lo, hi, n) + i*eta."""
    if not (lo < hi and n >= 2 and eta > 0):
        raise ValueError("need lo < hi, n >= 2, eta > 0")
    grid = np.linspace(lo, hi, n)
    m, iterations = _solve_many(nu, lam, gamma, grid + 1j * eta)
    return FreeConvolutionSolution(nu=nu, lam=lam, gamma=gamma, grid=grid,
                                   m=m, eta=eta, density=m.imag / np.pi,
                                   iterations=iterations)


def density_at(sol: FreeConvolutionSolution) -> np.ndarray:
    """Density on the grid of sol by Richardson extrapolation of Im m over
    spectral heights sol.eta, already solved, and sol.eta/2.

    Im m(E + i eta) = pi rho(E) + O(eta^2) inside the support and O(eta)
    outside; the two-point combination cancels the leading error both ways.
    """
    half, _ = _solve_many(sol.nu, sol.lam, sol.gamma, sol.grid + 1j * (sol.eta / 2.0))
    return (2.0 * half.imag - sol.m.imag) / np.pi


def asymptotic_eplus(nu: ms.Measure, lam0: float) -> float:
    """Small-coupling expansion of the upper edge through fourth order."""
    if not 0 <= lam0 < np.inf:
        raise ValueError(f"need a finite lam0 >= 0, got {lam0}")
    m1 = ms.mean(nu)
    c2 = ms.central_moment(nu, 2)
    c3 = ms.central_moment(nu, 3)
    c4 = ms.central_moment(nu, 4)
    return 2.0 + lam0 * m1 + lam0**2 * c2 + lam0**3 * c3 \
        + lam0**4 * (c4 - 9.0 * c2 * c2 / 4.0)


def edge_exponent_fit(sol: FreeConvolutionSolution,
                      e_plus: float) -> tuple[float, float]:
    """(amplitude, exponent) of density ~ amplitude * kappa^exponent at the
    upper edge e_plus of sol's law, fit by least squares in log-log over
    kappa = e_plus - E in _FIT_WINDOW."""
    near = np.abs(sol.grid - e_plus) < 0.05
    if np.count_nonzero(near) < 20:
        raise InsufficientPointsError(
            f"only {np.count_nonzero(near)} grid points within 0.05 of the edge")
    kappa = e_plus - sol.grid
    lo, hi = _FIT_WINDOW
    pick = (kappa >= lo) & (kappa <= hi) & (sol.density > 0)
    if np.count_nonzero(pick) < 5:
        raise InsufficientPointsError("fewer than 5 usable points in the fit window")
    x = np.log(kappa[pick])
    y = np.log(sol.density[pick])
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(intercept)), float(slope)

