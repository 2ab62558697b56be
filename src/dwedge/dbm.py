"""Ornstein-Uhlenbeck matrix flow toward the zero-diagonal GOE.

The flow dh_ij = dB_ij/sqrt(N) - h_ij dt/2 (no Brownian term on the
diagonal) is linear, so the transition over any time step is sampled
exactly:

    h_ij <- e^{-dt/2} h_ij + sqrt((1 - e^{-dt})/N) xi_ij,   xi_ji = xi_ij,
    h_ii <- e^{-dt/2} h_ii,

with iid standard normal xi.  There is no step-size parameter and no
discretization error; long flows are single jumps.  evolve and flow consume
rng in time order, so one generator serves one trajectory.  Entry variances
are constant in time when started from Wigner variances, and the fixed-time
marginal started from the deformed ensemble is the three-component
interpolation that ensemble.sample_interpolated draws directly, which the
tests use as a cross-module oracle.  The canonical terminal time for
"flow to GOE" comparisons is 4 log N, where the initial condition has
decayed to the N^{-2} scale.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import edgescale as es
from . import ensemble as ens
from . import measure as ms

__all__ = ["evolve", "flow", "flow_times", "flow_edge_track",
           "goe_invariance_check", "ks_two_sample"]

EDGE_EPS = 0.01  # eta exponent for edge tracking, as elsewhere


def evolve(h: np.ndarray, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Exact transition of h over dt > 0; h itself is left unchanged.

    The noise matrix reuses the Wigner sampler with a zeroed diagonal, so
    the diagonal is damped without noise and bitwise symmetry is free.
    """
    if not dt > 0.0:
        raise ValueError(f"need dt > 0, got {dt}")
    decay = math.exp(-dt / 2.0)
    fresh = math.sqrt(-math.expm1(-dt))
    xi = ens.sample_wigner(h.shape[0], ens.GAUSSIAN, -1.0, rng)
    return decay * h + fresh * xi


def flow(h: np.ndarray, times, rng: np.random.Generator
         ) -> Iterator[tuple[float, np.ndarray]]:
    """(t, h(t)) at each observation time of the flow from h at t = 0, with
    one evolve jump per interval; a time 0 yields h itself."""
    now = 0.0
    for t in flow_times(times):
        if t > now:
            h = evolve(h, t - now, rng)
            now = t
        yield t, h


def flow_times(times) -> list[float]:
    """Observation times as floats: nonempty, finite, nonnegative, strictly
    increasing."""
    ts = [float(t) for t in times]
    if not ts:
        raise ValueError("need at least one time")
    if not (0.0 <= ts[0] and ts[-1] < math.inf
            and all(a < b for a, b in zip(ts, ts[1:]))):
        raise ValueError("times must be finite, nonnegative and strictly "
                         f"increasing, got {ts}")
    return ts


def flow_edge_track(spec: ens.EnsembleSpec, times,
                    rng: np.random.Generator) -> list[tuple[float, complex]]:
    """m(t, z(t)) of the rescaled matrix along one trajectory.

    At each requested time the matrix is gamma(t) H(t) and the spectral
    point is the moving edge z(t) = L+(t) + i eta with eta = N^(-2/3-eps);
    the rescaling constants follow the decayed coupling lam0 e^{-t/2}
    against the empirical potential measure of the realized draw.  m is
    mean_k 1/(mu_k - z) over the eigenvalues mu_k of gamma(t) H(t).
    """
    eta = spec.N ** (-2.0 / 3.0 - EDGE_EPS)
    h, v = ens.sample_deformed(spec, rng)
    nu_hat = ms.empirical_from_values(v)
    out = []
    for t, ht in flow(h, times, rng):
        sc = es.flow_scaling(nu_hat, spec.lam0, t)
        mu = ens.eigenvalues(sc.gamma * ht)
        out.append((t, complex(np.mean(1.0 / (mu - (sc.l_plus + 1j * eta))))))
    return out


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("need nonempty samples")
    allx = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, allx, side="right") / xa.size
    fb = np.searchsorted(xb, allx, side="right") / xb.size
    return float(np.abs(fa - fb).max())


def goe_invariance_check(n: int, t: float, n_samples: int,
                         rng: np.random.Generator) -> float:
    """KS distance between largest eigenvalues at time 0 and at time t.

    The initial law is the zero-diagonal GOE, the stationary law of the
    flow, so the distance should sit inside the two-sample KS band
    1.36 sqrt(2/n_samples) (plus slack) for every t.  The two batches are
    independent; at t = 0 the check degenerates to two fresh batches of
    the same law.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples per batch")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"need a finite t >= 0, got {t}")
    top0, topt = [], []
    for _ in range(n_samples):
        h0 = ens.sample_wigner(n, ens.GAUSSIAN, -1.0, rng)
        top0.append(ens.eigenvalues(h0, top=1)[0])
        ht = ens.sample_wigner(n, ens.GAUSSIAN, -1.0, rng)
        if t > 0.0:
            ht = evolve(ht, t, rng)
        topt.append(ens.eigenvalues(ht, top=1)[0])
    return ks_two_sample(top0, topt)
