"""Probability measures on the real line and their Stieltjes transforms.

Three measure variants cover every experiment in the package:

* ``Atomic``: finitely many weighted point masses, the carrier of empirical
  potential distributions.
* ``GridDensity``: a density sampled on a uniform grid, integrated as the
  piecewise linear interpolant (so Stieltjes-type integrals stay exact for
  the interpolant at any spectral height, however small).
* ``Jacobi``: density proportional to (1+v)^a (1-v)^b on [-1, 1] with
  a, b > -1, integrated by Gauss-Jacobi rules that absorb the endpoint
  singularities exactly.

Every pole integral against a measure is one function, deformed_power:
integral v^w dnu(v) / (s v - p)^n, at the complex pole p = z + gamma^2 m
of freeconv's self-consistent equation and at the real poles of the edge
equations in freeconv and edgescale.  Its s = 1, n = 1 case is the
Stieltjes transform m(z) = integral dnu(v) / (v - z), Im z > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betaln, roots_jacobi


class MeasureFormatError(ValueError):
    """Raised when a serialized measure is structurally invalid."""


def as_upper_half(z) -> complex:
    """Coerce to complex and demand Im z > 0."""
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"spectral point needs Im z > 0, got Im z = {z.imag}")
    return z


@dataclass(frozen=True)
class Atomic:
    """Point masses at strictly increasing locations, weights summing to 1."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)
        if loc.ndim != 1 or loc.shape != w.shape or loc.size == 0:
            raise ValueError("atoms need matching nonempty location/weight arrays")
        if np.any(np.diff(loc) <= 0):
            raise ValueError("atom locations must be strictly increasing")
        if np.any(w < 0):
            raise ValueError("atom weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {w.sum()}, not 1")


@dataclass(frozen=True)
class GridDensity:
    """Density values on the uniform grid linspace(lo, hi, len(values)).

    Values are normalized at construction so the trapezoid integral is 1.
    """

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not self.lo < self.hi:
            raise ValueError("grid needs lo < hi")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("grid density needs at least two values")
        if np.any(vals < 0):
            raise ValueError("density values must be nonnegative")
        mass = np.trapezoid(vals, dx=(self.hi - self.lo) / (vals.size - 1))
        if mass <= 0:
            raise ValueError("density has zero mass")
        object.__setattr__(self, "values", vals / mass)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.values.size)


@dataclass(frozen=True)
class Jacobi:
    """Density (1+v)^a (1-v)^b / Z on [-1, 1], a, b > -1."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > -1 and self.b > -1):
            raise ValueError("Jacobi exponents must exceed -1")

    @property
    def log_norm(self) -> float:
        # Z = 2^(a+b+1) B(a+1, b+1)
        return (self.a + self.b + 1) * np.log(2.0) + betaln(self.a + 1, self.b + 1)

    def density(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore"):
            logd = self.a * np.log1p(v) + self.b * np.log1p(-v) - self.log_norm
        return np.exp(logd)


Measure = Atomic | GridDensity | Jacobi


@lru_cache(maxsize=32)
def _jacobi_nodes(a: float, b: float, n: int = 160):
    # roots_jacobi uses weight (1-x)^alpha (1+x)^beta, so alpha=b, beta=a.
    x, w = roots_jacobi(n, b, a)
    m = Jacobi(a, b)
    return x, w / np.exp(m.log_norm)


def _quad_nodes(m: Measure):
    """Discrete nodes (x, w) with sum(w f(x)) = integral f dnu, exact for
    polynomials up to degree 9 at least."""
    if isinstance(m, Atomic):
        return m.locations, m.weights
    if isinstance(m, Jacobi):
        return _jacobi_nodes(m.a, m.b)
    # per-cell 5-point Gauss-Legendre against the linear interpolant
    g, q = np.polynomial.legendre.leggauss(5)
    grid = m.grid
    h = grid[1] - grid[0]
    mid = 0.5 * (grid[:-1] + grid[1:])
    x = (mid[:, None] + 0.5 * h * g[None, :]).ravel()
    rho = np.interp(x, grid, m.values)
    w = (0.5 * h * np.broadcast_to(q, (mid.size, 5))).ravel() * rho
    return x, w


def support_interval(m: Measure) -> tuple[float, float]:
    """Smallest closed interval containing the support."""
    if isinstance(m, Atomic):
        return float(m.locations[0]), float(m.locations[-1])
    if isinstance(m, Jacobi):
        return -1.0, 1.0
    return float(m.lo), float(m.hi)


def stieltjes(m: Measure, z) -> complex:
    """m_nu(z) = integral dnu(v) / (v - z), Im z > 0."""
    return complex(deformed_power(m, 1.0, as_upper_half(z), 1))


def deformed_power(m: Measure, scale: float, pole, n: int, weight: int = 0):
    """integral v^weight dnu(v) / (scale*v - pole)^n, weight 0 or 1,
    elementwise over a real or complex pole array kept off scale*support;
    a real pole gives a real value.  Atoms and Jacobi nodes are summed as
    written, so any scale >= 0 is stable; only the exact cell integral of a
    grid density divides by the scale."""
    p = np.asarray(pole)
    if not isinstance(m, GridDensity):
        x, w = _quad_nodes(m)
        if weight:
            w = w * x
        val = np.sum(w / (scale * x - p[..., None]) ** n, axis=-1)
    elif scale < 1e-50:
        # a scale this small is indistinguishable from zero at double precision
        val = (-p) ** float(-n) * (mean(m) if weight else 1.0)
    else:
        # (scale*v - p)^n = scale^n (v - q)^n with q = p/scale, and
        # v/(v - q)^n = 1/(v - q)^(n-1) + q/(v - q)^n; the 1/scale factors
        # are applied one at a time to dodge under/overflow
        inv = 1.0 / scale
        q = p * inv
        val = _grid_pole_integral(m, q, n)
        if weight:
            val = (_grid_pole_integral(m, q, n - 1) if n > 1 else 1.0) + q * val
        for _ in range(n):
            val = val * inv
    return val.real if np.isrealobj(p) else val


def _grid_pole_integral(m: GridDensity, p: np.ndarray, n: int) -> np.ndarray:
    """integral rho(v) / (v - p)^n dv for the piecewise linear rho, exact.

    On a cell [v1, v2] with rho = alpha + beta v, substituting u = v - p
    gives integral (alpha + beta p + beta u) / u^n du in closed form.
    """
    p = np.asarray(p, dtype=complex)[..., None]
    grid = m.grid
    v1, v2 = grid[:-1], grid[1:]
    r1, r2 = m.values[:-1], m.values[1:]
    beta = (r2 - r1) / (v2 - v1)
    alpha = r1 - beta * v1
    u1, u2 = v1 - p, v2 - p
    c = alpha + beta * p
    if n == 1:
        cell = c * (np.log(u2) - np.log(u1)) + beta * (u2 - u1)
    elif n == 2:
        cell = c * (1.0 / u1 - 1.0 / u2) + beta * (np.log(u2) - np.log(u1))
    else:
        k = 1 - n
        cell = c * (u2**k - u1**k) / k + beta * (u2 ** (k + 1) - u1 ** (k + 1)) / (k + 1)
    return np.sum(cell, axis=-1)


def mean(m: Measure) -> float:
    x, w = _quad_nodes(m)
    return float(np.dot(w, x))


def central_moment(m: Measure, k: int) -> float:
    """k-th central moment, k <= 8 (exact for atoms, node-exact otherwise)."""
    if not 0 <= k <= 8:
        raise ValueError("central moments supported for k <= 8")
    if k == 0:
        return 1.0
    x, w = _quad_nodes(m)
    mu = np.dot(w, x)
    return float(np.dot(w, (x - mu) ** k))


def empirical_from_values(values) -> Atomic:
    """Equal-weight atoms at the sorted values; duplicates merged."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise ValueError("empirical measure needs at least one value")
    # group values closer than 1e-12 into one atom with summed weight
    brk = np.flatnonzero(np.diff(vals) > 1e-12)
    starts = np.concatenate(([0], brk + 1))
    counts = np.diff(np.append(starts, vals.size))
    return Atomic(np.add.reduceat(vals, starts) / counts, counts / vals.size)


def sample(m: Measure, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid draws by inverse CDF."""
    if n < 1:
        raise ValueError("need n >= 1")
    u = rng.random(n)
    if isinstance(m, Atomic):
        cum = np.cumsum(m.weights)
        cum[-1] = 1.0
        return m.locations[np.searchsorted(cum, u, side="right").clip(0, m.locations.size - 1)]
    grid, cdf = _cdf_table(m)
    return np.interp(u, cdf, grid)


def _cdf_table(m: Measure):
    if isinstance(m, GridDensity):
        grid = m.grid
        cdf = np.concatenate(([0.0], np.cumsum(
            0.5 * (m.values[:-1] + m.values[1:]) * np.diff(grid))))
    else:
        grid, cdf = _jacobi_cdf(m.a, m.b)
    cdf = cdf / cdf[-1]
    return grid, cdf


@lru_cache(maxsize=32)
def _jacobi_cdf(a: float, b: float):
    """Cumulative trapezoid table for Jacobi(a, b) with geometric endpoint
    refinement (factor 2, 8 levels) and analytic slivers for the integrable
    endpoint singularities."""
    base = np.linspace(-1.0, 1.0, 513)[1:-1]
    d0 = 1.0 + base[0]
    ref = d0 * 0.5 ** np.arange(1, 9)
    grid = np.unique(np.concatenate((-1.0 + ref, base, 1.0 - ref)))
    med = Jacobi(a, b)
    rho = med.density(grid)
    inner = np.concatenate(([0.0], np.cumsum(0.5 * (rho[:-1] + rho[1:]) * np.diff(grid))))
    # sliver [-1, grid[0]]: rho ~ (2^b/Z)(1+v)^a, mass d^(a+1) 2^b / ((a+1) Z)
    d_lo = 1.0 + grid[0]
    d_hi = 1.0 - grid[-1]
    z = np.exp(med.log_norm)
    m_lo = d_lo ** (a + 1) * 2.0**b / ((a + 1) * z)
    m_hi = d_hi ** (b + 1) * 2.0**a / ((b + 1) * z)
    grid = np.concatenate(([-1.0], grid, [1.0]))
    cdf = np.concatenate(([0.0], m_lo + inner, [m_lo + inner[-1] + m_hi]))
    return grid, cdf


def to_json(m: Measure) -> dict:
    if isinstance(m, Atomic):
        return {"type": "atomic",
                "atoms": [[float(x), float(w)] for x, w in zip(m.locations, m.weights)]}
    if isinstance(m, GridDensity):
        return {"type": "grid", "lo": m.lo, "hi": m.hi,
                "values": [float(v) for v in m.values]}
    return {"type": "jacobi", "a": m.a, "b": m.b}


def from_json(obj) -> Measure:
    if not isinstance(obj, dict):
        raise MeasureFormatError("measure: expected a JSON object")
    kind = obj.get("type")
    if kind == "atomic":
        atoms = obj.get("atoms")
        if not isinstance(atoms, list) or not atoms or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 for p in atoms):
            raise MeasureFormatError("measure.atoms: expected a nonempty list of [x, w] pairs")
        try:
            return Atomic(np.array([p[0] for p in atoms], dtype=float),
                          np.array([p[1] for p in atoms], dtype=float))
        except (TypeError, ValueError) as e:
            raise MeasureFormatError(f"measure.atoms: {e}") from e
    if kind == "grid":
        for field in ("lo", "hi", "values"):
            if field not in obj:
                raise MeasureFormatError(f"measure.{field}: missing")
        try:
            return GridDensity(float(obj["lo"]), float(obj["hi"]),
                               np.asarray(obj["values"], dtype=float))
        except (TypeError, ValueError) as e:
            raise MeasureFormatError(f"measure.values: {e}") from e
    if kind == "jacobi":
        for field in ("a", "b"):
            if field not in obj:
                raise MeasureFormatError(f"measure.{field}: missing")
        try:
            return Jacobi(float(obj["a"]), float(obj["b"]))
        except (TypeError, ValueError) as e:
            raise MeasureFormatError(f"measure.a/b: {e}") from e
    raise MeasureFormatError(f"measure.type: unknown variant {kind!r}")
