"""Tracy-Widom laws, classical locations, rigidity metrics, and the Monte
Carlo edge harness.

The Tracy-Widom CDFs come from the Painleve II route: the Hastings-McLeod
solution of q'' = s q + 2 q^3 with Airy initial data is integrated right to
left (the decaying direction, where it is stable), carrying the three tail
integrals that make up F_1 and F_2 alongside q itself.  The Airy initial
data comes from scipy.special.airy.  An independent Fredholm-determinant
oracle (scripts/gen_tw_oracle.py) pins the result in tests/data/tw_oracle.json.

Limit laws cache a CDF table on [-10, 6] at step 0.01 and evaluate by
interpolation; the Tracy-Widom plus Gaussian mixture is a 64-node
Gauss-Hermite convolution of the table.

The edge harness rescales every sample with constants recomputed from the
realized potential, which is what makes finite-N fits tight; see mc_edge.
Classical locations follow the descending-eigenvalue convention used across
the package: gamma_1 is the near-top quantile, solving the upper-tail
equation  integral_{gamma_k}^{inf} rho-hat = (k - 1/2)/N.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.special import airy, ndtr

from . import edgescale as es
from . import ensemble as ens
from . import freeconv as fc
from . import measure as ms
from . import rngstream

__all__ = [
    "TW1", "TW2", "GAUSS", "TW1_GAUSS_CONV", "LimitLaw", "MCRunResult",
    "tw_cdf", "law_cdf", "ks_statistic", "classical_locations",
    "rigidity_report", "mc_edge", "regime_test",
]

TW1 = "tw1"
TW2 = "tw2"
GAUSS = "gaussian"
TW1_GAUSS_CONV = "tw1_gauss_conv"
_VARIANTS = (TW1, TW2, GAUSS, TW1_GAUSS_CONV)

# ---------------------------------------------------------------------------
# Painleve II route to the Tracy-Widom CDFs.

_S_RIGHT = 8.0
_S_LEFT = -8.3
_S_TAIL = 14.0


@functools.lru_cache(maxsize=1)
def _painleve():
    """Dense solution of the augmented Hastings-McLeod system.

    State is [q, q', J, R, I] with J = int_s^inf q, R = int_s^inf q^2,
    I = int_s^inf (x - s) q^2, so that F2 = exp(-I) and
    F1 = exp(-J/2) sqrt(F2).  Initial tail integrals at s = 8 use the
    Airy approximation q ~ Ai (scipy.special.airy), integrated to 14 by
    64-node Gauss-Legendre (beyond 14 the integrands are below 1e-16).

    The Hastings-McLeod solution is a separatrix: backward integration
    amplifies roundoff like exp((2 sqrt(2)/3)|s|^{3/2}), which reaches
    O(1) near s = -8.6 in double precision and then hits a pole of the
    general Painleve II solution.  The integration therefore stops at
    -8.3; both CDFs are below 1e-8 there, so values further left are
    pinned to zero (well inside the 1e-6 accuracy contract).
    """
    ai0, aip0, _, _ = airy(_S_RIGHT)
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (_S_TAIL - _S_RIGHT)
    xs = _S_RIGHT + half * (x + 1.0)
    vals = airy(xs)[0]
    j0 = half * float(w @ vals)
    r0 = half * float(w @ (vals * vals))
    i0 = half * float(w @ ((xs - _S_RIGHT) * vals * vals))

    def rhs(s, y):
        q = y[0]
        return [y[1], s * q + 2.0 * q ** 3, -q, -q * q, -y[3]]

    # atol must sit below rtol * Ai(8) ~ 1e-17: absolute error injected
    # where q is tiny seeds the unstable mode
    sol = solve_ivp(rhs, (_S_RIGHT, _S_LEFT), [ai0, aip0, j0, r0, i0],
                    method="RK45", rtol=1e-10, atol=1e-16, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"Painleve integration failed: {sol.message}")
    return sol.sol


def _tw_pair(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F1, F2) at the points of s, each inside [-10, 8]."""
    s = np.asarray(s, dtype=float)
    f1 = np.zeros(s.shape)
    f2 = np.zeros(s.shape)
    live = s >= _S_LEFT
    if np.any(live):
        y = _painleve()(s[live])
        f2[live] = np.exp(-y[4])
        f1[live] = np.exp(-0.5 * y[2]) * np.sqrt(f2[live])
    return f1, f2


def _clamp_s(s: float) -> float:
    s = float(s)
    if s < -10.0 or s > 6.0:
        warnings.warn(f"s = {s:g} outside [-10, 6], clamped", stacklevel=3)
        return min(max(s, -10.0), 6.0)
    return s


def tw_cdf(beta: int, s: float) -> float:
    """Tracy-Widom CDF F_beta(s) for beta in {1, 2}.

    Out-of-range s is clamped to [-10, 6] with a warning; within range the
    absolute accuracy is about 1e-6 (the Fredholm oracle agrees to 9e-9 at
    its checked points).
    """
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 or 2, got {beta}")
    s = _clamp_s(s)
    f1, f2 = _tw_pair(np.array([s]))
    return float(f2[0] if beta == 2 else f1[0])


# ---------------------------------------------------------------------------
# Limit laws with cached CDF tables.

_GRID = np.linspace(-10.0, 6.0, 1601)


@dataclass(frozen=True)
class LimitLaw:
    """One of the limiting edge laws.

    variant "tw1" or "tw2" ignores sigma2; "gaussian" is the centered
    normal with variance sigma2; "tw1_gauss_conv" is the law of a TW1
    variable plus an independent centered Gaussian with variance sigma2
    (sigma2 = 0 degenerates to TW1 exactly).
    """
    variant: str
    sigma2: float = 0.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.sigma2 < 0.0:
            raise ValueError("need sigma2 >= 0")
        if self.variant == GAUSS and not self.sigma2 > 0.0:
            raise ValueError("gaussian law needs sigma2 > 0")


@functools.lru_cache(maxsize=16)
def _law_table(variant: str, sigma2: float) -> np.ndarray:
    if variant in (TW1, TW2):
        f1, f2 = _tw_pair(_GRID)
        vals = f2 if variant == TW2 else f1
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
        out = ndtr(np.asarray(s, dtype=float) / math.sqrt(law.sigma2))
    else:
        table = _law_table(law.variant, float(law.sigma2))
        out = np.interp(s, _GRID, table, left=0.0, right=1.0)
    return float(out) if np.ndim(s) == 0 else out


# ---------------------------------------------------------------------------
# Goodness of fit.

def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance.

    cdf may be a LimitLaw or any callable mapping reals to [0, 1];
    sup over the sorted samples of max(i/n - F(x_i), F(x_i) - (i-1)/n).
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    if isinstance(cdf, LimitLaw):
        f = law_cdf(cdf, x)
    else:
        f = np.asarray(cdf(x), dtype=float)
        if f.shape != x.shape:
            f = np.array([float(cdf(v)) for v in x])
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
    cum = cumulative_trapezoid(dens, grid, initial=0.0)
    tail = cum[-1] - cum
    targets = (np.asarray(ks, dtype=float) - 0.5) / N
    # tail is nonincreasing in grid; invert on the reversed arrays
    out = np.interp(targets, tail[::-1], grid[::-1])
    return [float(v) for v in out]


_RIG_ETA = 1e-7
_RIG_PAD = 1e-3
_RIG_POINTS = 2001


def _scaling_and_locations(nu_hat: ms.Measure, lam0: float, n: int,
                           k_max: int) -> tuple[es.EdgeScaling, np.ndarray]:
    sc = es.build(nu_hat, lam0)
    sol = fc.solve_grid(nu_hat, lam0, sc.gamma,
                        sc.gamma * sc.e_minus - _RIG_PAD, sc.l_plus + _RIG_PAD,
                        _RIG_POINTS, _RIG_ETA)
    gam = classical_locations(sol, n, list(range(1, k_max + 1)))
    return sc, np.asarray(gam)


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
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    ks = np.arange(1, k_max + 1)
    khat = np.minimum(ks, n - ks)
    pref = n ** (2.0 / 3.0) * khat ** (1.0 / 3.0)
    # the rescaled law depends on the sample only through nu-hat, so the
    # grid solve is shared whenever the potential draw is degenerate
    shared = isinstance(spec.potential, ens.Fixed) or spec.lam0 == 0.0
    cached = None
    stats = np.empty((n_samples, k_max))
    for j in range(n_samples):
        rng = rngstream.stream(spec.seed, "rigidity", j)
        h, v = ens.sample_deformed(spec, rng)
        if cached is None or not shared:
            cached = _scaling_and_locations(
                ms.empirical_from_values(v), spec.lam0, n, k_max)
        sc, gam = cached
        mu = sc.gamma * ens._top_eigenvalues(h, k_max)
        stats[j] = pref * np.abs(mu - gam)
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
    """Rescaled edge samples plus the per-sample scaling constants.

    samples has shape (n_samples,) for top_k = 1 and (n_samples, top_k)
    otherwise, rows descending; ks is the distance of the first marginal
    to TW1.  e_plus and gamma0 hold the per-sample constants (recomputed
    from each potential draw; constant columns under a Fixed potential).
    """
    spec: ens.EnsembleSpec
    n_samples: int
    samples: np.ndarray
    e_plus: np.ndarray
    gamma0: np.ndarray
    ks: float
    runtime: float

    def __post_init__(self):
        if len(self.samples) != self.n_samples:
            raise ValueError("sample count does not match n_samples")


def mc_edge(spec: ens.EnsembleSpec, n_samples: int, top_k: int = 1,
            parallel: int = 1) -> MCRunResult:
    """Monte Carlo of the rescaled top eigenvalues.

    Each sample draws its own potential, rebuilds (gamma0, E-plus-hat)
    from the empirical potential measure, and emits
    gamma0 N^{2/3} (mu_j - E-plus-hat) for j <= top_k.  Sample j uses the
    RNG stream (spec.seed, "mc_edge", j), so the output is byte-identical
    for any thread count.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    if not 1 <= top_k <= spec.N:
        raise ValueError(f"need 1 <= top_k <= N = {spec.N}")
    if parallel < 1:
        raise ValueError("need parallel >= 1")
    t0 = time.perf_counter()
    n23 = spec.N ** (2.0 / 3.0)
    fixed_sc = None
    if isinstance(spec.potential, ens.Fixed):
        fixed_sc = es.build(
            ms.empirical_from_values(spec.potential.values), spec.lam0)

    def one(j: int) -> tuple[float, float, np.ndarray]:
        rng = rngstream.stream(spec.seed, "mc_edge", j)
        h, v = ens.sample_deformed(spec, rng)
        sc = fixed_sc
        if sc is None:
            sc = es.build(ms.empirical_from_values(v), spec.lam0)
        mu = ens._top_eigenvalues(h, top_k)
        return sc.e_plus, sc.gamma, sc.gamma * n23 * (mu - sc.e_plus)

    if parallel == 1:
        rows = [one(j) for j in range(n_samples)]
    else:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            rows = list(pool.map(one, range(n_samples)))
    e_plus = np.array([r[0] for r in rows])
    gamma0 = np.array([r[1] for r in rows])
    samples = np.array([r[2] for r in rows])
    if top_k == 1:
        samples = samples[:, 0]
        first = samples
    else:
        first = samples[:, 0]
    ks = ks_statistic(first, LimitLaw(TW1))
    return MCRunResult(spec=spec, n_samples=n_samples, samples=samples,
                       e_plus=e_plus, gamma0=gamma0, ks=ks,
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
                n_samples: int, seed: int = 0) -> list[dict]:
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
    if sigma0 < 0.0 or delta < 0.0:
        raise ValueError("need sigma0 >= 0 and delta >= 0")
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    n_list = [int(n) for n in n_list]
    if min(n_list) < 2:
        raise ValueError(f"need every N >= 2, got {n_list}")
    out = []
    for n in n_list:
        lam0 = sigma0 * n ** (-delta)
        case = _regime_case(delta)
        sc = es.build(nu, lam0)
        e_plus = sc.e_plus
        stats = np.empty(n_samples)
        if case == "iii":
            if lam0 <= 0.0:
                raise ValueError("case iii needs sigma0 > 0")
            # exact at the edge root zeta: m_fc(E_plus) = zeta - E_plus
            m_edge = sc.zeta - e_plus
            sigma2 = (1.0 - m_edge ** 2) / lam0 ** 2
            law = LimitLaw(GAUSS, sigma2)
            pref = math.sqrt(n) / lam0
            for j in range(n_samples):
                rng = rngstream.stream(seed, f"regime{n}", j)
                vhat = ms.empirical_from_values(ms.sample(nu, n, rng))
                stats[j] = pref * (es.build(vhat, lam0).e_plus - e_plus)
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
                                    zero_diagonal=False, seed=seed)
            pref = n ** (2.0 / 3.0)
            for j in range(n_samples):
                rng = rngstream.stream(seed, f"regime{n}", j)
                h, _ = ens.sample_deformed(spec, rng)
                mu1 = ens._top_eigenvalues(h, 1)[0]
                stats[j] = pref * (mu1 - e_plus)
        out.append({
            "N": n, "lam0": lam0, "case": case, "law": law,
            "n_samples": n_samples, "e_plus": e_plus,
            "ks": ks_statistic(stats, law), "samples": stats,
        })
    return out
