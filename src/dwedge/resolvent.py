"""Green function diagnostics: identities, local law, optical cancellation.

Everything here works on the resolvent G(z) = (A - z)^(-1) of a real
symmetric matrix at a spectral point in the upper half plane.  The module
provides

  * green / minor: the resolvent itself and principal submatrices, with
    the trace average m = (1/N) tr G kept at the ambient normalization
    even for minors,
  * verify_identities: the four exact algebraic relations between G and
    the resolvents of its minors (Schur complement, minor expansion, and
    the one- and two-sided expansions in the removed rows),
  * local_law_residuals: distance of m and of the matrix entries from the
    deterministic profile predicted by the rescaled free convolution,
    normalized by the control parameter Pi,
  * optical_residual: the two-resolvent sum rule whose summands are
    individually O(1) but cancel to the fluctuation scale,
  * optical_window: the same residual, centered by the self-pairing
    offset of its index sums and averaged over an edge window, which is
    the form whose seed averages actually exhibit the cancellation rate,
  * dos_window: smoothed (Poisson-kernel, in closed form) versus exact
    eigenvalue counts on an interval,
  * cumulant_expansion_residual: exact-moment verification of the
    integration-by-parts expansion used for non-Gaussian entries.

The resolvent is computed through one complex symmetric-indefinite
factorization per spectral point; the only routines that diagonalize a
matrix are dos_window, whose closed-form count needs only the spectrum,
and optical_window, which evaluates the residual at many spectral points
at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import edgescale as es
from . import ensemble as ens
from . import freeconv as fc
from . import measure as ms

__all__ = [
    "GreenEvaluation",
    "green",
    "minor",
    "verify_identities",
    "local_law_residuals",
    "optical_residual",
    "optical_window",
    "dos_window",
    "cumulant_expansion_residual",
    "ward_residual",
    "smooth_cutoff",
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


def green(h, z, trace_norm: int | None = None) -> GreenEvaluation:
    """Resolvent of a real symmetric matrix at Im z > 0.

    One complex symmetric-indefinite solve against the identity; no
    eigendecomposition.  trace_norm overrides the divisor of tr G so a
    minor's m can keep the ambient 1/N normalization.
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
    norm = n if trace_norm is None else int(trace_norm)
    return GreenEvaluation(z=zc, G=g, m=complex(np.trace(g)) / norm)


def minor(h, t) -> np.ndarray:
    """Submatrix with the rows and columns in t removed (0-based indices)."""
    arr = np.asarray(h)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    drop = sorted({int(i) for i in t})
    if drop and (drop[0] < 0 or drop[-1] >= n):
        raise IndexError(f"minor indices {drop} out of range for size {n}")
    keep = [i for i in range(n) if i not in set(drop)]
    return arr[np.ix_(keep, keep)]


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
    if potential is None:
        v = np.diag(arr) / scaling.lam if scaling.lam >= 1e-50 else np.zeros(n)
    else:
        v = np.asarray(potential, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"potential must have shape ({n},), got {v.shape}")
    profile = 1.0 / (scaling.lam * scaling.gamma * v - zc - scaling.gamma**2 * mhat)
    pi = math.sqrt(mhat.imag / (n * eta)) + 1.0 / (n * eta)
    r_m = abs(ev.m - mhat) * n * eta
    off = np.abs(ev.G).copy()
    np.fill_diagonal(off, 0.0)
    r_offdiag = float(off.max()) / pi
    r_diag = float(np.abs(np.diag(ev.G) - profile).max()) / pi
    return r_m, r_offdiag, r_diag, pi


def optical_residual(h, z, scaling: es.EdgeScaling, i: int | None = None) -> complex:
    """Two-resolvent sum rule for the rescaled matrix gamma*H.

        (z + gamma^2 m - tau) sum_s G_is G_si + (1/N) sum_{s,k} G_ik G_ks G_si

    averaged over i when i is None.  Both terms are O(1) individually at
    edge scale; their cancellation down to the fluctuation scale is the
    content of the diagnostic, so the residual is returned unnormalized.
    """
    arr = _square_real(h)
    n = arr.shape[0]
    ev = green(scaling.gamma * arr, z)
    g = ev.G
    pref = ev.z + scaling.gamma**2 * ev.m - scaling.tau
    g2 = g @ g
    if i is None:
        two = np.einsum("ii->i", g2)
        three = np.einsum("ij,ji->i", g2, g)
        return complex(np.mean(pref * two + three / n))
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for size {n}")
    return complex(pref * g2[i, i] + (g2[i] @ g[:, i]) / n)


def optical_window(h, scaling: es.EdgeScaling, eta: float,
                   halfwidth: float = 3.0, points: int = 13,
                   potential=None) -> complex:
    """Centered optical residual averaged over an edge window.

    optical_residual keeps the self-pairing terms of its index sums; their
    expectation is an order-one offset (squared diagonal entries against
    the profile weights) that swamps the cancellation the diagnostic is
    after.  This variant subtracts the sample plug-in estimate of that
    offset,

        mean_i [ G_ii^2 - (lam gamma v_i - tau)^(-2) (G^2)_ii / N ] / (2 A_3),

    and averages the spectral point over points values of z with real
    part within halfwidth * N^(-2/3) of the upper edge, all at the given
    eta.  Per sample the result still fluctuates at order one; averages
    over seeds decay at the fluctuation scale, which is what the
    acceptance diagnostics fit.  One eigendecomposition serves the whole
    window, since the residual is needed at many spectral points of the
    same matrix.
    """
    arr = _square_real(h)
    n = arr.shape[0]
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if points < 1:
        raise ValueError(f"need at least one window point, got {points}")
    if potential is None:
        v = np.diag(arr) / scaling.lam if scaling.lam >= 1e-50 else np.zeros(n)
    else:
        v = np.asarray(potential, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"potential must have shape ({n},), got {v.shape}")
    mu, vec = scipy.linalg.eigh(scaling.gamma * arr)
    vec_sq = vec * vec
    w = (scaling.lam * scaling.gamma * v - scaling.tau) ** (-2.0)
    offsets = np.linspace(-halfwidth, halfwidth, points) * n ** (-2.0 / 3.0)
    acc = 0.0 + 0.0j
    for y in offsets:
        z = scaling.l_plus + y + 1j * eta
        r = 1.0 / (mu - z)
        m = r.mean()
        bracket = (z + scaling.gamma**2 * m - scaling.tau) * np.mean(r**2) \
            + np.mean(r**3) / n
        gii = vec_sq @ r
        d2 = vec_sq @ (r * r)
        acc += bracket + np.mean(gii * gii - w * d2 / n) / (2.0 * scaling.A[3])
    return complex(acc / points)


def dos_window(h, e1: float, e2: float, eta: float) -> tuple[float, int]:
    """Smoothed versus exact eigenvalue count on the window (e1, e2].

    The smoothed count is (N/pi) * integral of im m(y + i eta) over the
    window, i.e. the spectral measure convolved with the Poisson kernel
    at scale eta.  The integral is exact in closed form,
    (1/pi) sum_k [arctan((e2 - mu_k)/eta) - arctan((e1 - mu_k)/eta)],
    from one eigensolve.
    """
    if not e1 < e2:
        raise ValueError(f"window needs e1 < e2, got ({e1}, {e2})")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    arr = _square_real(h)
    mu = np.linalg.eigvalsh(arr)
    smoothed = float(np.sum(np.arctan((e2 - mu) / eta)
                            - np.arctan((e1 - mu) / eta))) / math.pi
    exact = int(np.count_nonzero((mu > e1) & (mu <= e2)))
    return smoothed, exact


def _exact_moments(law: str, scale: float, upto: int) -> np.ndarray:
    """Raw moments m_0..m_upto of Gaussian(0, scale^2) or Rademacher(+-scale)."""
    if law not in (ens.GAUSSIAN, ens.RADEMACHER):
        raise ValueError(f"unsupported law {law!r}")
    mom = np.zeros(upto + 1)
    mom[0] = 1.0
    for k in range(2, upto + 1, 2):
        if law == ens.GAUSSIAN:
            mom[k] = scale**k * math.prod(range(k - 1, 0, -2))
        else:
            mom[k] = scale**k
    return mom


def _cumulants_from_moments(mom: np.ndarray) -> np.ndarray:
    """kappa_n = m_n - sum_{k=1}^{n-1} C(n-1, k-1) kappa_k m_{n-k}."""
    kap = np.zeros_like(mom)
    for n in range(1, len(mom)):
        acc = mom[n]
        for k in range(1, n):
            acc -= math.comb(n - 1, k - 1) * kap[k] * mom[n - k]
        kap[n] = acc
    return kap


def cumulant_expansion_residual(law: str, coeffs, order: int,
                                scale: float = 1.0) -> float:
    """Worst monomial residual of the order-M integration-by-parts rule

        E[dQ(h) h] = sum_{m=1}^{M} kappa^(m) / (m-1)! * E[d^m Q(h)].

    Both sides are evaluated with exact moments for every monomial h^j up
    to the degree of Q, so the residual is floating-point noise once the
    truncation order covers the degree, and exposes the first neglected
    cumulant term otherwise.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d sequence, ascending degree")
    deg = int(np.max(np.nonzero(c)[0])) if np.any(c) else 0
    if deg > 5:
        raise ValueError(f"polynomial degree must be at most 5, got {deg}")
    if order < 1:
        raise ValueError(f"expansion order must be at least 1, got {order}")
    mom = _exact_moments(law, scale, max(deg, order))
    kap = _cumulants_from_moments(mom)
    worst = 0.0
    for j in range(1, deg + 1):
        left = j * mom[j]
        right = 0.0
        for m in range(1, min(order, j) + 1):
            right += kap[m] / math.factorial(m - 1) * math.perm(j, m) * mom[j - m]
        worst = max(worst, abs(left - right))
    return worst


def ward_residual(ev: GreenEvaluation) -> float:
    """Largest row violation of sum_j |G_ij|^2 = im G_ii / eta."""
    eta = ev.z.imag
    lhs = np.sum(np.abs(ev.G) ** 2, axis=1)
    rhs = np.diag(ev.G).imag / eta
    return float(np.abs(lhs - rhs).max())


def smooth_cutoff(x):
    """Monotone C-infinity cutoff: 1 on (-inf, 1/9], 0 on [2/9, inf).

    Cubic smoothstep fed through the standard exp(-1/t) bump quotient;
    the profile is deterministic but otherwise free.
    """
    arr = np.asarray(x, dtype=float)
    s = np.clip((arr - 1.0 / 9.0) * 9.0, 0.0, 1.0)
    u = s * s * (3.0 - 2.0 * s)
    lo = np.where(u > 0.0, np.exp(-1.0 / np.where(u > 0.0, u, 1.0)), 0.0)
    hi = np.where(u < 1.0, np.exp(-1.0 / np.where(u < 1.0, 1.0 - u, 1.0)), 0.0)
    out = hi / (lo + hi)
    return float(out) if arr.ndim == 0 else out
