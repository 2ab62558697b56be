"""Tracy-Widom laws, classical locations, rigidity metrics, and the Monte
Carlo edge harness.

The Tracy-Widom CDFs come from the Painleve II route: the Hastings-McLeod
solution of q'' = s q + 2 q^3 with Airy initial data is integrated right to
left (the decaying direction, where it is stable), carrying the three tail
integrals that make up F_1 and F_2 alongside q itself.  The integrator is
a fixed-step classical RK4 (h = 0.0025) in plain floats, so no part of the
package loads scipy.integrate; F_1 and F_2 are stored on its lattice and
read by linear interpolation, within 2.6e-7 of the exact CDFs and within
2.0e-10 at the nodes.  The Airy initial data at s = 8 is five stored
numbers (_AIRY_DATA), which the tests recompute from scipy.special.airy.
The tests pin the result against an independent Ferrari-Spohn Fredholm
determinant, which agrees to 2e-10 at the points they check.

tw_cdf reads the lattice directly.  Limit laws cache a CDF table read from
the same lattice on [-10, 6] at step 0.01 and evaluate by interpolation;
the Tracy-Widom plus Gaussian mixture is a 64-node Gauss-Hermite
convolution of the table.

The edge harness rescales every sample with constants recomputed from the
realized potential, which is what makes finite-N fits tight; see mc_edge.
Classical locations follow the descending-eigenvalue convention used across
the package: gamma_1 is the near-top quantile, solving the upper-tail
equation  integral_{gamma_k}^{inf} rho-hat = (k - 1/2)/N.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import edgescale as es
from . import ensemble as ens
from . import freeconv as fc
from . import measure as ms
from . import rngstream

__all__ = [
    "TW1", "GAUSS", "TW1_GAUSS_CONV", "LimitLaw", "MCRunResult",
    "tw_cdf", "law_cdf", "ks_statistic", "classical_locations",
    "rigidity_report", "mc_edge", "regime_test",
]

TW1 = "tw1"
GAUSS = "gaussian"
TW1_GAUSS_CONV = "tw1_gauss_conv"
_VARIANTS = (TW1, GAUSS, TW1_GAUSS_CONV)

# ---------------------------------------------------------------------------
# Painleve II route to the Tracy-Widom CDFs.

_S_RIGHT = 8.0
_S_LEFT = -8.3
_H = 0.0025
# q = Ai(8), q' = Ai'(8) and, with q ~ Ai, the tail integrals J, R, I of
# _painleve on [8, 14] (beyond, the integrands are below 1e-16) by 64-node
# Gauss-Legendre; test_twstats recomputes them from scipy.special.airy.
_AIRY_DATA = (4.6922076160992236e-08, -1.3414392979067844e-07,
              1.609084973298268e-08, 3.8114404962281043e-16, 6.533563206931577e-17)


@functools.lru_cache(maxsize=1)
def _painleve() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, F1, F2) on the lattice s = 8 - n h, n = 0..6520, ascending in s.

    State is [q, q', J, R, I] with J = int_s^inf q, R = int_s^inf q^2,
    I = int_s^inf (x - s) q^2, so that F2 = exp(-I) and
    F1 = exp(-J/2) sqrt(F2).  The initial state at s = 8 is _AIRY_DATA, the
    Airy approximation q ~ Ai with its tail integrals.

    The system is stepped by classical fourth-order Runge-Kutta with the
    fixed step h = 0.0025, four steps per 0.01 of _GRID, in plain floats.
    Each node is computed as 8 - n h, not summed, so every fourth one
    lands on _GRID.  Against a converged Fredholm determinant both CDFs
    are within 2.0e-10 on _GRID; linear interpolation between nodes adds
    at most h^2 max|F''| / 8 = 2.6e-7.

    The Hastings-McLeod solution is a separatrix: backward integration
    amplifies roundoff like exp((2 sqrt(2)/3)|s|^{3/2}), which reaches
    O(1) near s = -8.6 in double precision and then hits a pole of the
    general Painleve II solution.  The integration therefore stops at
    -8.3; both CDFs are below 1e-8 there, so values further left are
    pinned to zero (well inside the 1e-6 accuracy contract).
    """
    q, p, j, r, i = _AIRY_DATA
    n_steps = round((_S_RIGHT - _S_LEFT) / _H)
    h, hh, h6 = -_H, -0.5 * _H, -_H / 6.0
    js, is_ = [j], [i]
    # q' = p, p' = s q + 2 q^3, J' = -q, R' = -q^2, I' = -R
    for n in range(n_steps):
        s = _S_RIGHT - n * _H
        sm = s + hh
        dp1 = s * q + 2.0 * q * q * q
        q2, p2, r2 = q + hh * p, p + hh * dp1, r - hh * q * q
        dp2 = sm * q2 + 2.0 * q2 * q2 * q2
        q3, p3, r3 = q + hh * p2, p + hh * dp2, r - hh * q2 * q2
        dp3 = sm * q3 + 2.0 * q3 * q3 * q3
        q4, p4, r4 = q + h * p3, p + h * dp3, r - h * q3 * q3
        dp4 = (_S_RIGHT - (n + 1) * _H) * q4 + 2.0 * q4 * q4 * q4
        j -= h6 * (q + 2.0 * (q2 + q3) + q4)
        i -= h6 * (r + 2.0 * (r2 + r3) + r4)
        r -= h6 * (q * q + 2.0 * (q2 * q2 + q3 * q3) + q4 * q4)
        q += h6 * (p + 2.0 * (p2 + p3) + p4)
        p += h6 * (dp1 + 2.0 * (dp2 + dp3) + dp4)
        js.append(j)
        is_.append(i)
    f2 = np.exp(-np.array(is_))
    f1 = np.exp(-0.5 * np.array(js)) * np.sqrt(f2)
    lattice = _S_RIGHT - np.arange(n_steps + 1) * _H
    return lattice[::-1], f1[::-1], f2[::-1]


def _tw_pair(s) -> tuple[np.ndarray, np.ndarray]:
    """(F1, F2) at the points of s, each inside [-10, 8]."""
    lattice, f1, f2 = _painleve()
    return (np.interp(s, lattice, f1, left=0.0),
            np.interp(s, lattice, f2, left=0.0))


def _clamp_s(s: float) -> float:
    s = float(s)
    if not abs(s) < math.inf:
        raise ValueError(f"need a finite s, got {s}")
    if s < -10.0 or s > 6.0:
        warnings.warn(f"s = {s:g} outside [-10, 6], clamped", stacklevel=3)
        return min(max(s, -10.0), 6.0)
    return s


def tw_cdf(beta: int, s: float) -> float:
    """Tracy-Widom CDF F_beta(s) for beta in {1, 2}.

    Out-of-range s is clamped to [-10, 6] with a warning and a non-finite
    s is refused; within range the absolute accuracy is about 1e-6 (a
    Fredholm determinant agrees to 2e-10 at the checked points).
    """
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 or 2, got {beta}")
    f1, f2 = _tw_pair(_clamp_s(s))
    return float(f2 if beta == 2 else f1)


# ---------------------------------------------------------------------------
# Limit laws with cached CDF tables.

_GRID = np.linspace(-10.0, 6.0, 1601)
_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class LimitLaw:
    """One of the limiting edge laws.

    variant "tw1" ignores sigma2; "gaussian" is the centered normal with
    variance sigma2; "tw1_gauss_conv" is the law of a TW1 variable plus an
    independent centered Gaussian with variance sigma2 (sigma2 = 0
    degenerates to TW1 exactly).  F_2 has no limit law here; tw_cdf reads it.
    """
    variant: str
    sigma2: float = 0.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.sigma2 < math.inf:
            raise ValueError(f"need a finite sigma2 >= 0, got {self.sigma2}")
        if self.variant == GAUSS and not self.sigma2 > 0.0:
            raise ValueError("gaussian law needs sigma2 > 0")


@functools.lru_cache(maxsize=16)
def _law_table(variant: str, sigma2: float) -> np.ndarray:
    if variant == TW1:
        vals = _tw_pair(_GRID)[0]
    else:
        base = _law_table(TW1, 0.0)
        if sigma2 == 0.0:
            return base
        nodes, wts = np.polynomial.hermite.hermgauss(64)
        shift = math.sqrt(2.0 * sigma2) * nodes
        args = (_GRID[:, None] - shift[None, :]).ravel()
        f1 = np.interp(args, _GRID, base, left=0.0, right=1.0)
        vals = f1.reshape(len(_GRID), len(nodes)) @ (wts / math.sqrt(math.pi))
    return np.clip(np.maximum.accumulate(vals), 0.0, 1.0)


def law_cdf(law: LimitLaw, s):
    """CDF of a limit law at s (scalar or array)."""
    if law.variant == GAUSS:
        out = 0.5 * _erfc(-np.asarray(s, dtype=float) / math.sqrt(2.0 * law.sigma2))
    else:
        table = _law_table(law.variant, float(law.sigma2))
        out = np.interp(s, _GRID, table, left=0.0, right=1.0)
    return float(out) if np.ndim(s) == 0 else out


# ---------------------------------------------------------------------------
# Goodness of fit.

def ks_statistic(samples, law: LimitLaw) -> float:
    """One-sample Kolmogorov-Smirnov distance to a limit law: with F its
    CDF, sup over the sorted samples of max(i/n - F(x_i), F(x_i) - (i-1)/n).
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    f = law_cdf(law, x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


# ---------------------------------------------------------------------------
# Classical locations and rigidity.

def classical_locations(solution: fc.FreeConvolutionSolution, N: int,
                        ks) -> list[float]:
    """Quantiles gamma_k of a solved density, upper-tail convention.

    gamma_k solves  integral_{gamma_k}^{inf} density = (k - 1/2)/N  by
    cumulative trapezoid on the solution grid and linear inversion, so
    gamma_1 sits near the upper edge (eigenvalues are indexed descending
    throughout the package; the half shift is the usual finite-N
    midpoint convention).  The grid must cover the support.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    ks = [int(k) for k in np.atleast_1d(ks)]
    if any(k < 1 or k > N for k in ks):
        raise ValueError(f"need 1 <= k <= N = {N}")
    grid = np.asarray(solution.grid, dtype=float)
    dens = np.maximum(np.asarray(solution.density, dtype=float), 0.0)
    peak = float(dens.max())
    if peak <= 0.0:
        raise ValueError("density vanishes on the grid")
    occupied = np.flatnonzero(dens > 1e-4 * peak)
    if not np.all(dens[occupied[0]:occupied[-1] + 1] > 1e-4 * peak):
        raise ValueError("multi-cut support: classical locations undefined")
    # scipy's cumulative_trapezoid(dens, grid, initial=0), term for term
    cum = np.concatenate(
        ([0.0], np.cumsum(np.diff(grid) * (dens[1:] + dens[:-1]) / 2.0)))
    tail = cum[-1] - cum
    targets = (np.asarray(ks, dtype=float) - 0.5) / N
    # tail is nonincreasing in grid; invert on the reversed arrays
    out = np.interp(targets, tail[::-1], grid[::-1])
    return [float(v) for v in out]


def _check_n_samples(n_samples) -> None:
    if not (isinstance(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValueError(f"need an integer n_samples >= 1, got {n_samples!r}")


def _top_draws(spec: ens.EnsembleSpec, label: str, n_samples: int, k: int,
               rescale=None) -> list:
    """(top k eigenvalues, whether a top-1 solve fell back to dsyevr,
    rescale(nu-hat)) per draw, in sample order.

    Sample j draws (H, V) through rngstream.draws on the stream
    (spec.seed, label, j), so no row depends on another.  rescale of the
    empirical potential measure nu-hat is built once under a Fixed
    potential and once per draw otherwise; without rescale it is None."""
    fixed = rescale is not None and isinstance(spec.potential, ens.Fixed)
    shared = rescale(ms.empirical_from_values(spec.potential.values)) if fixed else None

    def one(rng) -> tuple:
        h, v = ens.sample_deformed(spec, rng)
        aux = shared if fixed or rescale is None else rescale(ms.empirical_from_values(v))
        return (*ens._top_eigenvalues(h, k), aux)

    return rngstream.draws(spec.seed, label, range(n_samples), one)


_RIG_ETA = 1e-7
_RIG_PAD = 1e-3
_RIG_POINTS = 2001


def rigidity_report(spec: ens.EnsembleSpec, n_samples: int, k_max: int) -> dict:
    """Monte Carlo check of eigenvalue rigidity near the upper edge.

    For each sample the spectrum is rescaled by the gamma built from the
    realized potential and compared against the classical locations of the
    same rescaled density; the summary reports per-k median and 95th
    percentile of  N^{2/3} k-hat^{1/3} |mu_k - gamma_k|  with
    k-hat = min(k, N - k), flagging if any 95th percentile exceeds N^0.2.
    """
    n = spec.N
    if not 1 <= k_max <= n // 2:
        raise ValueError(f"need 1 <= k_max <= N/2 = {n // 2}")
    _check_n_samples(n_samples)
    ks = np.arange(1, k_max + 1)
    khat = np.minimum(ks, n - ks)
    pref = n ** (2.0 / 3.0) * khat ** (1.0 / 3.0)

    # a function of nu-hat alone, so solved once under a Fixed potential
    def locations(nu_hat):
        sc = es.build(nu_hat, spec.lam0)
        sol = fc.solve_grid(nu_hat, spec.lam0, sc.gamma,
                            sc.gamma * sc.e_minus - _RIG_PAD,
                            sc.l_plus + _RIG_PAD, _RIG_POINTS, _RIG_ETA)
        return sc.gamma, np.asarray(classical_locations(sol, n, ks))

    stats = np.array([pref * np.abs(gamma * mu - gam) for mu, _, (gamma, gam)
                      in _top_draws(spec, "rigidity", n_samples, k_max, locations)])
    med = np.median(stats, axis=0)
    p95 = np.quantile(stats, 0.95, axis=0)
    thr = n ** 0.2
    return {
        "N": n, "lam0": spec.lam0, "n_samples": n_samples,
        "ks": ks, "median": med, "p95": p95,
        "threshold": thr, "flag": bool(np.any(p95 > thr)),
    }


# ---------------------------------------------------------------------------
# Monte Carlo edge harness.

@dataclass(frozen=True)
class MCRunResult:
    """Rescaled edge samples, shape (n_samples, top_k) with rows descending,
    the per-sample constants e_plus and gamma0 (recomputed from each
    potential draw, constant under a Fixed potential), and ks, the distance
    of the first column to TW1; dsyevr_fallbacks counts the top-1 solves
    whose float32 certificate failed (ensemble._top_eigenvalues)."""
    samples: np.ndarray
    e_plus: np.ndarray
    gamma0: np.ndarray
    ks: float
    dsyevr_fallbacks: int
    runtime: float


def mc_edge(spec: ens.EnsembleSpec, n_samples: int, top_k: int = 1) -> MCRunResult:
    """Monte Carlo of the rescaled top eigenvalues.

    Each sample draws its own potential, rebuilds (gamma0, E-plus-hat)
    from the empirical potential measure, and emits
    gamma0 N^{2/3} (mu_j - E-plus-hat) for j <= top_k, one row of an
    (n_samples, top_k) array.  Sample j uses the RNG stream
    (spec.seed, "mc_edge", j), so a rerun is byte-identical.
    """
    _check_n_samples(n_samples)
    if not 1 <= top_k <= spec.N:
        raise ValueError(f"need 1 <= top_k <= N = {spec.N}")
    t0 = time.perf_counter()
    n23 = spec.N ** (2.0 / 3.0)
    rows = _top_draws(spec, "mc_edge", n_samples, top_k,
                      lambda nu_hat: es.build(nu_hat, spec.lam0))
    samples = np.array([sc.gamma * n23 * (mu - sc.e_plus) for mu, _, sc in rows])
    return MCRunResult(samples=samples,
                       e_plus=np.array([sc.e_plus for _, _, sc in rows]),
                       gamma0=np.array([sc.gamma for _, _, sc in rows]),
                       ks=ks_statistic(samples[:, 0], LimitLaw(TW1)),
                       dsyevr_fallbacks=sum(fell for _, fell, _ in rows),
                       runtime=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Regime trichotomy.

_DELTA_STAR = 1.0 / 6.0
_DELTA_TOL = 1e-4


def _regime_case(delta: float) -> str:
    if abs(delta - _DELTA_STAR) < _DELTA_TOL:
        return "ii"
    return "i" if delta > _DELTA_STAR else "iii"


def regime_test(nu: ms.Measure, sigma0: float, delta: float, n_list,
                n_samples: int, seed: int) -> list[dict]:
    """Edge statistics across the coupling-strength trichotomy.

    Sets lam0 = sigma0 N^{-delta} per size.  Above the threshold
    (delta > 1/6) the top eigenvalue is rescaled as N^{2/3}(mu_1 - E_plus)
    around the population edge and compared to TW1; at the threshold
    (delta = 1/6 within 1e-4) to the TW1-Gaussian convolution with
    sigma2 = sigma0^2 times the central second moment of nu.  Below the
    threshold the edge location itself fluctuates on the larger scale
    N^{-1/2} lam0, so the statistic is the edge functional of the realized
    potential, N^{1/2} lam0^{-1} (E-plus-hat(nu-hat) - E_plus), compared to
    the centered Gaussian with sigma2 = lam0^{-2}(1 - m_fc(E_plus)^2)
    evaluated at the run's lam0; no eigensolve is involved in that case.
    """
    for name, val in (("sigma0", sigma0), ("delta", delta)):
        if not 0.0 <= val < math.inf:
            raise ValueError(f"need a finite {name} >= 0, got {val}")
    _check_n_samples(n_samples)
    n_list = [int(n) for n in n_list]
    if min(n_list) < 2:
        raise ValueError(f"need every N >= 2, got {n_list}")
    out = []
    for n in n_list:
        lam0 = sigma0 * n ** (-delta)
        case = _regime_case(delta)
        sc = es.build(nu, lam0)
        e_plus = sc.e_plus
        if case == "iii":
            if lam0 <= 0.0:
                raise ValueError("case iii needs sigma0 > 0")
            # exact at the edge root zeta: m_fc(E_plus) = zeta - E_plus
            m_edge = sc.zeta - e_plus
            sigma2 = (1.0 - m_edge ** 2) / lam0 ** 2
            law = LimitLaw(GAUSS, sigma2)
            pref = math.sqrt(n) / lam0
            e_hat = rngstream.draws(seed, f"regime{n}", range(n_samples), lambda rng: es.build(
                ms.empirical_from_values(ms.sample(nu, n, rng)), lam0).e_plus)
            stats, fallbacks = pref * (np.array(e_hat) - e_plus), 0
        else:
            if case == "ii":
                law = LimitLaw(TW1_GAUSS_CONV,
                               sigma0 ** 2 * ms.central_moment(nu, 2))
            else:
                law = LimitLaw(TW1)
            # Matched diagonal: keeps the finite-N edge shift at the GOE
            # value, which is what the TW1-family comparison assumes.
            spec = ens.EnsembleSpec(N=n, lam0=lam0, potential=ens.IIDFrom(nu),
                                    c2=ens.edge_matched_c2(ens.GAUSSIAN),
                                    seed=seed)
            pref = n ** (2.0 / 3.0)
            rows = _top_draws(spec, f"regime{n}", n_samples, 1)
            stats = np.array([pref * (mu[0] - e_plus) for mu, _, _ in rows])
            fallbacks = sum(fell for _, fell, _ in rows)
        out.append({
            "N": n, "lam0": lam0, "case": case, "law": law,
            "n_samples": n_samples, "e_plus": e_plus,
            "ks": ks_statistic(stats, law), "samples": stats,
            "dsyevr_fallbacks": fallbacks,
        })
    return out
