"""Green function diagnostics: identities, local law, optical cancellation.

Everything here works on the resolvent G(z) = (A - z)^(-1) of a real
symmetric matrix at a spectral point in the upper half plane.  The module
provides

  * green: the resolvent itself,
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

Each public function checks its matrix as ensemble.eigenvalues does.
Every quantity comes from one real eigendecomposition A = U diag(mu) U^T,
numpy's dsyevd (see ensemble): green returns U diag(1/(mu - z)) U^T, and
optical_window, which evaluates the sum rule at many spectral points of one
matrix, reads the diagonals it needs at every point from one matrix product.
"""

from __future__ import annotations

import math

import numpy as np

from . import edgescale as es
from . import ensemble as ens
from . import freeconv as fc
from . import measure as ms

__all__ = [
    "green",
    "verify_identities",
    "local_law_residuals",
    "optical_window",
]

_HALFWIDTH = 3.0  # optical_window's half-width, in units of N^(-2/3),
_POINTS = 13  # and its number of spectral points


def green(h, z) -> np.ndarray:
    """Resolvent (h - z)^(-1) of a real symmetric matrix at Im z > 0.

    U diag(1/(mu - z)) U^T from the eigendecomposition h = U diag(mu) U^T,
    the same numpy.linalg.eigh call that optical_window makes.  The complex
    right factor diag(1/(mu - z)) U^T is built C-ordered, so it can be read
    as real pairs and the product is one real matrix product.
    """
    arr = ens._symmetric(h)
    zc = ms.as_upper_half(z)
    mu, vec = np.linalg.eigh(arr)
    g = (vec @ np.divide(vec.T, (mu - zc)[:, None], order="C").view(float)).view(complex)
    if not np.all(np.isfinite(g)):
        raise np.linalg.LinAlgError("resolvent has non-finite entries")
    return g


def _potential_values(arr: np.ndarray, potential) -> np.ndarray:
    """The potential values v_i of the sample, checked against N."""
    v = np.asarray(potential, dtype=float)
    if v.shape != arr.shape[:1]:
        raise ValueError(f"potential must have shape {arr.shape[:1]}, got {v.shape}")
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
    arr = ens._symmetric(h)
    n = arr.shape[0]
    if len({int(i), int(j), int(k)}) < 3:
        raise ValueError(f"indices must be pairwise distinct, got ({i}, {j}, {k})")
    for idx in (i, j, k):
        if not 0 <= idx < n:
            raise IndexError(f"index {idx} out of range for size {n}")
    zc = ms.as_upper_half(z)
    g = green(arr, zc)

    def minor(*rows):
        """Resolvent of arr with the given rows and columns removed; an
        index s then sits at s - #(removed rows below s)."""
        return green(np.delete(np.delete(arr, rows, 0), rows, 1), zc)

    g_i = minor(i)
    row_i = np.delete(arr[i], i).astype(complex)
    schur = abs(g[i, i] - 1.0 / (arr[i, i] - zc - row_i @ g_i @ row_i))

    g_k = minor(k)
    basic = abs(g[i, j] - g_k[i - (i > k), j - (j > k)] - g[i, k] * g[k, j] / g[k, k])

    ji = j - (j > i)
    onesided = abs(g[i, j] + g[i, i] * (row_i @ g_i[:, ji]))

    g_ij = minor(i, j)
    quad = np.delete(arr[i], (i, j)).astype(complex) @ g_ij \
        @ np.delete(arr[:, j], (i, j)).astype(complex)
    twosided = abs(g[i, j] + g[i, i] * g_i[ji, ji] * (arr[i, j] - quad))

    return {"schur": schur, "basic": basic, "onesided": onesided, "twosided": twosided}


def local_law_residuals(h, scaling: es.EdgeScaling, z,
                        potential) -> tuple[float, float, float, float]:
    """Local-law residuals of the rescaled matrix gamma*H at one point.

    Returns (r_m, r_offdiag, r_diag, Pi) with

        r_m       = |m - m_fc(z)| * N eta,
        r_offdiag = max_{i != j} |G_ij| / Pi,
        r_diag    = max_i |G_ii - g_i| / Pi,
        g_i       = 1 / (lam gamma v_i - z - gamma^2 m_fc(z)),
        Pi        = sqrt(im m_fc / (N eta)) + 1 / (N eta),

    where m_fc is the Stieltjes transform of the rescaled deformed law and
    v_i are the potential values the sample H was drawn with.
    """
    arr = ens._symmetric(h)
    n = arr.shape[0]
    zc = ms.as_upper_half(z)
    eta = zc.imag
    if eta < n ** (-1.0 + 0.01):
        raise ValueError(f"eta = {eta:.3e} below the resolution floor N^(-0.99)")
    g = green(scaling.gamma * arr, zc)
    mhat = fc.solve_point(scaling.nu, scaling.lam, scaling.gamma, zc)
    v = _potential_values(arr, potential)
    profile = 1.0 / (scaling.lam * scaling.gamma * v - zc - scaling.gamma**2 * mhat)
    pi = math.sqrt(mhat.imag / (n * eta)) + 1.0 / (n * eta)
    r_m = abs(complex(np.trace(g)) / n - mhat) * n * eta
    off = np.abs(g)
    np.fill_diagonal(off, 0.0)
    r_offdiag = float(off.max()) / pi
    r_diag = float(np.abs(np.diag(g) - profile).max()) / pi
    return r_m, r_offdiag, r_diag, pi


def optical_window(h, scaling: es.EdgeScaling, eta: float,
                   potential) -> complex:
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

    The result averages R over _POINTS values of z with real part within
    _HALFWIDTH * N^(-2/3) of the upper edge, all at the given eta, where
    v_i are the potential values the sample H was drawn with.  Per
    sample it still fluctuates at order one; averages over seeds decay at
    the fluctuation scale, which is what the acceptance diagnostics fit.
    One eigendecomposition serves the whole window, and one real matrix
    product serves all of its points: with H = U diag(mu) U^T, G_ii and
    (G^2)_ii at every z are (U*U) applied to the columns 1/(mu - z) and
    1/(mu - z)^2, stacked and read as real numbers.
    """
    arr = ens._symmetric(h)
    n = arr.shape[0]
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    v = _potential_values(arr, potential)
    mu, vec = np.linalg.eigh(scaling.gamma * arr)
    w = (scaling.lam * scaling.gamma * v - scaling.tau) ** (-2.0)
    z = scaling.l_plus + np.linspace(-_HALFWIDTH, _HALFWIDTH, _POINTS) \
        * n ** (-2.0 / 3.0) + 1j * eta
    r = 1.0 / (mu[:, None] - z)
    r2 = r * r
    m = r.mean(axis=0)
    bracket = (z + scaling.gamma**2 * m - scaling.tau) * r2.mean(axis=0) \
        + (r2 * r).mean(axis=0) / n
    diags = ((vec * vec) @ np.hstack([r, r2]).view(float)).view(complex)
    gii, d2 = diags[:, :_POINTS], diags[:, _POINTS:]
    centered = (gii * gii - w[:, None] * d2 / n).mean(axis=0)
    return complex(np.mean(bracket + centered / (2.0 * scaling.A[3])))
