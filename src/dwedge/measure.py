"""Probability measures on the real line and their Stieltjes transforms.

Two measure variants cover every experiment in the package:

* ``Atomic``: finitely many weighted point masses, the carrier of empirical
  potential distributions.
* ``Jacobi``: density proportional to (1+v)^a (1-v)^b on [-1, 1] with
  a, b > -1, integrated in closed form ((1+v)/2 is Beta(a+1, b+1)) with
  scipy's hyp2f1 at real and near poles, and by a Golub-Welsch (1969)
  Gauss-Jacobi rule on numpy alone at far complex poles.

Every pole integral against a measure is one function, deformed_power:
integral v^w dnu(v) / (s v - p)^n, at the complex pole p = z + gamma^2 m
of freeconv's self-consistent equation and at the real poles of the edge
equations in freeconv and edgescale.  Its s = 1, n = 1 case is the
Stieltjes transform m(z) = integral dnu(v) / (v - z), Im z > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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
        if not (np.isfinite(loc).all() and np.isfinite(w).all()):
            raise ValueError("atom locations and weights must be finite")
        if np.any(np.diff(loc) <= 0):
            raise ValueError("atom locations must be strictly increasing")
        if np.any(w < 0):
            raise ValueError("atom weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {w.sum()}, not 1")


@dataclass(frozen=True)
class Jacobi:
    """Density (1+v)^a (1-v)^b / Z on [-1, 1], a, b > -1."""

    a: float
    b: float

    def __post_init__(self):
        if not (-1 < self.a < np.inf and -1 < self.b < np.inf):
            raise ValueError(f"Jacobi exponents must be finite and exceed -1, "
                             f"got a = {self.a}, b = {self.b}")

    @property
    def log_norm(self) -> float:
        # Z = 2^(a+b+1) B(a+1, b+1)
        a, b = self.a, self.b
        return ((a + b + 1) * math.log(2.0) + math.lgamma(a + 1) + math.lgamma(b + 1)
                - math.lgamma(a + b + 2))

    def density(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore"):
            logd = self.a * np.log1p(v) + self.b * np.log1p(-v) - self.log_norm
        return np.exp(logd)


Measure = Atomic | Jacobi


def support_interval(m: Measure) -> tuple[float, float]:
    """Smallest closed interval containing the support."""
    if isinstance(m, Atomic):
        return float(m.locations[0]), float(m.locations[-1])
    return -1.0, 1.0


def stieltjes(m: Measure, z) -> complex:
    """m_nu(z) = integral dnu(v) / (v - z), Im z > 0."""
    return complex(deformed_power(m, 1.0, as_upper_half(z), 1))


def deformed_power(m: Measure, scale: float, pole, n: int, weight: int = 0):
    """integral v^weight dnu(v) / (scale*v - pole)^n, weight 0 or 1,
    elementwise over a real or complex pole array kept off scale*support;
    a real pole gives a real value, and neither form divides by the scale.
    A Jacobi law is Euler's integral (DLMF 15.6.1), also at a pole on an
    end (Gauss's sum, DLMF 15.4.20, or +inf): with x = 2 scale/(pole +
    scale), (-1)^n (pole + scale)^(-n) 2F1(n, a+1; a+b+2; x); weight 1 is
    2(a+1)/(a+b+2) times that with (a+2; a+b+3), minus the weight-0 value.
    scipy's complex 2F1 fails near x = exp(+-i pi/3), so it sees only real
    poles and those of Bernstein radius rho(pole/scale) < 1.5; the rest take
    the 40-node Gauss-Jacobi rule, whose relative error just outside rho = 1.5
    measured 2e-14, 1.4e-12 and 1.5e-10 at n = 1, 2, 3.  The complex-pole
    callers (freeconv's maps, stieltjes) take n <= 2."""
    p = np.asarray(pole)
    if isinstance(m, Atomic):
        d = scale * m.locations - p[..., None]
        t = (m.weights * m.locations if weight else m.weights) / d
        for _ in range(n - 1):
            t /= d
        val = np.sum(t, axis=-1)
    else:
        # rho(w) + 1/rho(w) = |w - 1| + |w + 1|, at w = p / scale
        far = (p.imag != 0) & (abs(p - scale) + abs(p + scale)
                               >= (1.5 + 1 / 1.5) * abs(scale))
        val = np.zeros(p.shape, np.result_type(p, float))
        if not far.all():
            from scipy.special import hyp2f1
            y, a1, c = p[~far] + scale, m.a + 1.0, m.a + m.b + 2.0
            front, x = (-1.0 / y) ** n, 2.0 * scale / y
            near = front * hyp2f1(n, a1, c, x)
            if weight:
                near = 2.0 * a1 / c * front * hyp2f1(n, a1 + 1.0, c + 1.0, x) - near
            val[~far] = near
        if far.any():
            v, q = _gauss_jacobi(m.a, m.b)
            val[far] = (q * v ** weight / (scale * v - p[far][:, None]) ** n).sum(-1)
        val = val[()]
    return val.real if np.isrealobj(p) else val


@lru_cache(maxsize=32)
def _gauss_jacobi(a: float, b: float):
    """40-node Gauss-Jacobi rule for Jacobi(a, b), weights summing to 1, by
    Golub-Welsch: the eigenvalues and squared first eigenvector entries of the
    monic recurrence matrix for the weight (1-v)^al (1+v)^be, al = b, be = a.
    Its k = 0 diagonal and k = 1 off-diagonal are in cancelled form, so
    al + be = 0 or -1 needs no branch."""
    al, be, k = b, a, np.arange(1.0, 40.0)
    s = 2 * k + al + be
    diag = np.append((be - al) / s[0], (be - al) * (be + al) / (s * (s + 2)))
    off2 = 4 * k * (k + al) * (k + be) * (k + al + be)
    off2[1:] /= s[1:] * s[1:] * (s[1:] + 1) * (s[1:] - 1)
    off2[0] = 4 * (1 + al) * (1 + be) / (s[0] ** 2 * (s[0] + 1))
    v, u = np.linalg.eigh(np.diag(diag) + np.diag(np.sqrt(off2), -1))
    return v, u[0] ** 2 / (u[0] ** 2).sum()


def mean(m: Measure) -> float:
    if isinstance(m, Atomic):
        return float(np.dot(m.weights, m.locations))
    return (m.a - m.b) / (m.a + m.b + 2.0)


def central_moment(m: Measure, k: int) -> float:
    """k-th central moment, k <= 8, exact for atoms and Jacobi laws alike."""
    if not 0 <= k <= 8:
        raise ValueError("central moments supported for k <= 8")
    if k == 0:
        return 1.0
    mu = mean(m)
    if isinstance(m, Atomic):
        return float(np.dot(m.weights, (m.locations - mu) ** k))
    # d_k = integral (v - mu)^k dnu; integrating (1 - v^2) (v - mu)^k times the
    # density by parts gives d_(j+1) = j ((1 - mu^2) d_(j-1) - 2 mu d_j) / (a+b+2+j)
    d = [1.0, 0.0]
    for j in range(1, k):
        d.append(j * ((1.0 - mu * mu) * d[-2] - 2.0 * mu * d[-1]) / (m.a + m.b + 2.0 + j))
    return d[k]


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
    grid, cdf = _jacobi_cdf(m.a, m.b)
    return np.interp(u, cdf / cdf[-1], grid)


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
    return {"type": "jacobi", "a": m.a, "b": m.b}


def from_json(obj) -> Measure:
    if not isinstance(obj, dict):
        raise MeasureFormatError("measure: expected a JSON object")
    kind = obj.get("type")
    if kind == "atomic":
        atoms = obj.get("atoms")
        if not isinstance(atoms, list) or not atoms or not all(
                isinstance(p, (list, tuple)) and len(p) == 2
                and not any(isinstance(x, bool) for x in p) for p in atoms):
            raise MeasureFormatError(
                "measure.atoms: expected a nonempty list of [x, w] number pairs")
        try:
            return Atomic(np.array([p[0] for p in atoms], dtype=float),
                          np.array([p[1] for p in atoms], dtype=float))
        except (TypeError, ValueError) as e:
            raise MeasureFormatError(f"measure.atoms: {e}") from e
    if kind == "jacobi":
        if any(isinstance(obj.get(key), bool) for key in "ab"):
            raise MeasureFormatError("measure.a/b: expected numbers, got a boolean")
        try:
            return Jacobi(float(obj["a"]), float(obj["b"]))
        except KeyError as e:
            raise MeasureFormatError(f"measure.{e.args[0]}: missing") from None
        except (TypeError, ValueError) as e:
            raise MeasureFormatError(f"measure.a/b: {e}") from e
    raise MeasureFormatError(f"measure.type: unknown variant {kind!r}")
