"""Green function diagnostics: identities, local law, optical cancellation.

Everything here works on the resolvent G(z) = (A - z)^(-1) of a real
symmetric matrix at a spectral point in the upper half plane.  The module
provides

  * green: the resolvent itself, with its trace average m = (1/N) tr G,
  * verify_identities: the four exact algebraic relations between G and
    the resolvents of its minors (Schur complement, minor expansion, and
    the one- and two-sided expansions in the removed rows),
  * local_law_residuals: distance of m and of the matrix entries from the
    deterministic profile predicted by the rescaled free convolution,
    normalized by the control parameter Pi,
  * optical_window: the two-resolvent sum rule, centered by the
    self-pairing offset of its index sums and averaged over an edge
    window, which is the form whose seed averages exhibit the
    cancellation rate.

The resolvent is computed through one complex symmetric-indefinite
factorization per spectral point; optical_window alone diagonalizes, since
it evaluates the sum rule at many spectral points of one matrix, and then
one real matrix product gives the diagonals it needs at every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import edgescale as es
from . import freeconv as fc
from . import measure as ms

__all__ = [
    "GreenEvaluation",
    "green",
    "verify_identities",
    "local_law_residuals",
    "optical_window",
]


@dataclass(frozen=True)
class GreenEvaluation:
    """Resolvent G = (A - z)^(-1) with its normalized trace m."""

    z: complex
    G: np.ndarray
    m: complex


def _square_real(h) -> np.ndarray:
    arr = np.asarray(h, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def green(h, z) -> GreenEvaluation:
    """Resolvent of a real symmetric matrix at Im z > 0.

    One complex symmetric-indefinite solve against the identity; no
    eigendecomposition.
    """
    arr = _square_real(h)
    zc = ms.as_upper_half(z)
    n = arr.shape[0]
    a = arr.astype(complex)
    a[np.diag_indices(n)] -= zc
    g = scipy.linalg.solve(a, np.eye(n, dtype=complex),
                           assume_a="sym", check_finite=False)
    if not np.all(np.isfinite(g)):
        raise np.linalg.LinAlgError("resolvent solve produced non-finite entries")
    return GreenEvaluation(z=zc, G=g, m=complex(np.trace(g)) / n)


def _potential_values(arr: np.ndarray, lam: float, potential) -> np.ndarray:
    """The given potential values, checked against N, or diag(H) / lam."""
    n = arr.shape[0]
    if potential is None:
        return np.diag(arr) / lam if lam >= 1e-50 else np.zeros(n)
    v = np.asarray(potential, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"potential must have shape ({n},), got {v.shape}")
    return v


def verify_identities(h, z, i: int, j: int, k: int) -> dict[str, float]:
    """Absolute residuals of the four exact resolvent identities.

    schur     : G_ii = 1 / (h_ii - z - sum_{s,t != i} h_is G^(i)_st h_ti)
    basic     : G_ij = G^(k)_ij + G_ik G_kj / G_kk
    onesided  : G_ij = -G_ii sum_{s != i} h_is G^(i)_sj
    twosided  : G_ij = -G_ii G^(i)_jj (h_ij - sum_{s,t != i,j} h_is G^(ij)_st h_tj)

    The indices must be pairwise distinct; each identity demands it for
    at least one pair.
    """
    arr = _square_real(h)
    n = arr.shape[0]
    if len({int(i), int(j), int(k)}) < 3:
        raise ValueError(f"indices must be pairwise distinct, got ({i}, {j}, {k})")
    for idx in (i, j, k):
        if not 0 <= idx < n:
            raise IndexError(f"index {idx} out of range for size {n}")
    zc = ms.as_upper_half(z)
    g = green(arr, zc).G

    keep_i = [s for s in range(n) if s != i]
    g_i = green(arr[np.ix_(keep_i, keep_i)], zc).G
    row_i = arr[i, keep_i].astype(complex)
    schur = abs(g[i, i] - 1.0 / (arr[i, i] - zc - row_i @ g_i @ row_i))

    keep_k = [s for s in range(n) if s != k]
    pos_k = {s: p for p, s in enumerate(keep_k)}
    g_k = green(arr[np.ix_(keep_k, keep_k)], zc).G
    basic = abs(g[i, j] - g_k[pos_k[i], pos_k[j]] - g[i, k] * g[k, j] / g[k, k])

    pos_i = {s: p for p, s in enumerate(keep_i)}
    onesided = abs(g[i, j] + g[i, i] * (row_i @ g_i[:, pos_i[j]]))

    keep_ij = [s for s in range(n) if s != i and s != j]
    g_ij = green(arr[np.ix_(keep_ij, keep_ij)], zc).G
    quad = arr[i, keep_ij].astype(complex) @ g_ij @ arr[keep_ij, j].astype(complex)
    twosided = abs(g[i, j] + g[i, i] * g_i[pos_i[j], pos_i[j]] * (arr[i, j] - quad))

    return {"schur": schur, "basic": basic, "onesided": onesided, "twosided": twosided}


def local_law_residuals(h, scaling: es.EdgeScaling, z,
                        potential=None) -> tuple[float, float, float, float]:
    """Local-law residuals of the rescaled matrix gamma*H at one point.

    Returns (r_m, r_offdiag, r_diag, Pi) with

        r_m       = |m - m_fc(z)| * N eta,
        r_offdiag = max_{i != j} |G_ij| / Pi,
        r_diag    = max_i |G_ii - g_i| / Pi,
        g_i       = 1 / (lam gamma v_i - z - gamma^2 m_fc(z)),
        Pi        = sqrt(im m_fc / (N eta)) + 1 / (N eta),

    where m_fc is the Stieltjes transform of the rescaled deformed law.
    The potential values v_i are read off the diagonal of H (exact when
    the noise diagonal is zeroed); pass them explicitly otherwise.
    """
    arr = _square_real(h)
    n = arr.shape[0]
    zc = ms.as_upper_half(z)
    eta = zc.imag
    if eta < n ** (-1.0 + 0.01):
        raise ValueError(f"eta = {eta:.3e} below the resolution floor N^(-0.99)")
    ev = green(scaling.gamma * arr, zc)
    mhat = fc.solve_point(scaling.nu, scaling.lam, scaling.gamma, zc)
    v = _potential_values(arr, scaling.lam, potential)
    profile = 1.0 / (scaling.lam * scaling.gamma * v - zc - scaling.gamma**2 * mhat)
    pi = math.sqrt(mhat.imag / (n * eta)) + 1.0 / (n * eta)
    r_m = abs(ev.m - mhat) * n * eta
    off = np.abs(ev.G).copy()
    np.fill_diagonal(off, 0.0)
    r_offdiag = float(off.max()) / pi
    r_diag = float(np.abs(np.diag(ev.G) - profile).max()) / pi
    return r_m, r_offdiag, r_diag, pi


def optical_window(h, scaling: es.EdgeScaling, eta: float,
                   halfwidth: float = 3.0, points: int = 13,
                   potential=None) -> complex:
    """Centered two-resolvent sum rule averaged over an edge window.

    For the rescaled matrix gamma*H with resolvent G and m = tr G / N,

        R(z) = mean_i [ (z + gamma^2 m - tau) (G^2)_ii + (G^3)_ii / N ]
             + mean_i [ G_ii^2 - (lam gamma v_i - tau)^(-2) (G^2)_ii / N ] / (2 A_3).

    The two terms of the first mean are each of order one at edge scale
    and cancel down to the fluctuation scale.  The self-pairing terms of
    their index sums leave an order-one expectation (squared diagonal
    entries against the profile weights) that would swamp that
    cancellation.  The second term, with A_3 = -gamma^-6 < 0, is the sample
    plug-in estimate of minus that offset, so R is centered.

    The result averages R over points values of z with real part within
    halfwidth * N^(-2/3) of the upper edge, all at the given eta.  Per
    sample it still fluctuates at order one; averages over seeds decay at
    the fluctuation scale, which is what the acceptance diagnostics fit.
    One eigendecomposition serves the whole window, and one real matrix
    product serves all of its points: with H = U diag(mu) U^T, G_ii and
    (G^2)_ii at every z are (U*U) applied to the columns 1/(mu - z) and
    1/(mu - z)^2, stacked and read as real numbers.
    """
    arr = _square_real(h)
    n = arr.shape[0]
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if points < 1:
        raise ValueError(f"need at least one window point, got {points}")
    v = _potential_values(arr, scaling.lam, potential)
    mu, vec = scipy.linalg.eigh(scaling.gamma * arr)
    w = (scaling.lam * scaling.gamma * v - scaling.tau) ** (-2.0)
    z = scaling.l_plus + np.linspace(-halfwidth, halfwidth, points) \
        * n ** (-2.0 / 3.0) + 1j * eta
    r = 1.0 / (mu[:, None] - z)
    r2 = r * r
    m = r.mean(axis=0)
    bracket = (z + scaling.gamma**2 * m - scaling.tau) * r2.mean(axis=0) \
        + (r2 * r).mean(axis=0) / n
    diags = ((vec * vec) @ np.hstack([r, r2]).view(float)).view(complex)
    gii, d2 = diags[:, :points], diags[:, points:]
    centered = (gii * gii - w[:, None] * d2 / n).mean(axis=0)
    return complex(np.mean(bracket + centered / (2.0 * scaling.A[3])))
