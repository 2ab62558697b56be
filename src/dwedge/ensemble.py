"""Matrix ensembles: Wigner noise, deformations by a random potential, and
the Ornstein-Uhlenbeck interpolation between them.

The deformed model is H = lam0 * diag(V) + W with V iid from a potential
measure (or held fixed) and W symmetric with independent centered entries,
E w_ij^2 = 1/N off the diagonal and (1 + c2)/N on it.  c2 = -1, the
default, zeroes that diagonal, and edge_matched_c2 gives 1 - s4; the choice
moves the extreme eigenvalues by O(N^(-1)) and leaves their limit law alone.

Every eigensolve runs on one OpenBLAS, the one bundled in numpy's wheel.
Full symmetric eigendecompositions, with or without vectors (eigenvalues()
and resolvent), are dsyevd through numpy.  Partial spectra are its LAPACKE
?syevr, bound with ctypes (_evr): dsyevr for the top k (the edge
statistics read mu_1 .. mu_k and nothing below), and for the top one alone
ssyevr on a float32 copy, accepted only with a double-precision
certificate that it is within 1e-10 * ||H|| of mu_1 (_top_eigenvalues),
whose norm, QR and product are numpy's too.  A numpy without that library
makes the same ?syevr calls through scipy.linalg, imported on first use.
The same ctypes open binds that library's thread-count functions, with
which rngstream.draws, the one place that forks, runs each share of its
pool at one BLAS thread: a partial spectrum's last digits depend on the
thread count, so the draws are byte-identical for every worker count at
one thread, and differ by about 1e-13 * ||H|| from a run at several.
Backward error of either double factorization is far below the contract,
and both routes are spot-checked in the tests against a high-precision
oracle at N = 50.

Checks live at the entries: _symmetric() checks any matrix handed to
eigenvalues() or to resolvent (square, finite, symmetric) and never
modifies it, and sample_deformed() checks the one part of its output that
can be non-finite, the diagonal.  The Monte Carlo draw loop,
twstats._top_draws over rngstream.draws, solves each sampled matrix with
_top_eigenvalues() and discards it: no second validation pass, and dsyevr
works on the matrix in place; the float32 route makes one float32 copy.
"""

from __future__ import annotations

import ctypes
import glob
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import measure as ms

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"

# N^2 times the fourth cumulant of one off-diagonal entry, per law.
_ENTRY_S4 = {GAUSSIAN: 0.0, RADEMACHER: -2.0}

# float32 unit roundoff, machine epsilon, smallest subnormal and largest value
_U32, _EPS32, _TINY32 = 2.0 ** -24, 2.0 ** -23, 2.0 ** -149
_F32_MAX = float(np.finfo(np.float32).max)


def edge_matched_c2(law: str) -> float:
    """Diagonal weight that equalizes the finite-N edge shift across entry laws.

    The spectral edge of a Wigner matrix sits at 2 + (c2 + s4)/N + O(N^-2),
    where s4 is N^2 times the fourth cumulant of an off-diagonal entry.
    Choosing c2 = 1 - s4 pins that shift to the GOE value 1/N for every law,
    so edge statistics from different entry laws share one finite-N
    calibration.  Gaussian entries give 1, Rademacher 3.
    """
    if law not in _ENTRY_S4:
        raise ValueError(f"unknown entry law {law!r}")
    return 1.0 - _ENTRY_S4[law]


@dataclass(frozen=True)
class IIDFrom:
    measure: ms.Measure


@dataclass(frozen=True)
class Fixed:
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True)
class EnsembleSpec:
    N: int
    lam0: float
    potential: IIDFrom | Fixed
    law: str = GAUSSIAN
    c2: float = -1.0
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails each comparison
        if self.N < 2:
            raise ValueError("need N >= 2")
        if not 0 <= self.lam0 < np.inf:
            raise ValueError(f"need a finite lam0 >= 0, got {self.lam0}")
        if self.law not in (GAUSSIAN, RADEMACHER):
            raise ValueError(f"unknown entry law {self.law!r}")
        if not -1 <= self.c2 < np.inf:
            raise ValueError(f"need a finite c2 >= -1, got {self.c2}")
        if isinstance(self.potential, Fixed):
            if self.potential.values.size != self.N:
                raise ValueError("fixed potential length must equal N")
            if not np.isfinite(self.potential.values).all():
                raise ValueError("fixed potential values must be finite")


def sample_wigner(n: int, law: str, c2: float, rng: np.random.Generator
                  ) -> np.ndarray:
    """Symmetric noise with E w_ij^2 = 1/N off-diagonal, (1+c2)/N on it; c2 = -1
    zeroes the diagonal after drawing it, so rng advances alike for every c2."""
    if n < 2:
        raise ValueError("need N >= 2")
    offdiag_sd = 1.0 / np.sqrt(n)
    diag_sd = np.sqrt((1.0 + c2) / n)
    w = np.empty((n, n))
    k = n * (n - 1) // 2
    if law == GAUSSIAN:
        off = rng.standard_normal(k) * offdiag_sd
        diag = rng.standard_normal(n) * diag_sd
    else:
        off = (2.0 * rng.integers(0, 2, size=k) - 1.0) * offdiag_sd
        diag = (2.0 * rng.integers(0, 2, size=n) - 1.0) * diag_sd
    # row i of the upper triangle and column i of the lower one take the next
    # n-1-i draws, the row-major order of np.triu_indices(n, 1)
    start = 0
    for i in range(n - 1):
        row = off[start:start + n - 1 - i]
        w[i, i + 1:] = row
        w[i + 1:, i] = row
        start += row.size
    np.fill_diagonal(w, diag)
    return w


def draw_potential(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec.potential, Fixed):
        return spec.potential.values.copy()
    return ms.sample(spec.potential.measure, spec.N, rng)


def sample_deformed(spec: EnsembleSpec, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One draw of (H, V) with H = lam0 * diag(V) + W.

    V is returned so callers can condition edge statistics on the realized
    potential (per-sample rescaling constants are functions of V).  H is
    symmetric by construction and its off-diagonal entries are finite, so
    one O(N) check of the diagonal makes it a valid input for
    _top_eigenvalues."""
    v = draw_potential(spec, rng)
    h = sample_wigner(spec.N, spec.law, spec.c2, rng)
    h[np.diag_indices(spec.N)] += spec.lam0 * v
    if not np.isfinite(h.diagonal()).all():
        raise ValueError("sampled matrix has a non-finite diagonal entry "
                         "(from lam0 * V or c2)")
    return h, v


def sample_interpolated(spec: EnsembleSpec, t: float,
                        rng: np.random.Generator) -> np.ndarray:
    """One draw of lam0 e^{-t/2} V + e^{-t/2} W + (1 - e^{-t})^{1/2} W_goe,
    the fixed-time law of the Ornstein-Uhlenbeck matrix flow started from
    the deformed ensemble; the GOE part always has a zero diagonal."""
    if not 0 <= t < np.inf:
        raise ValueError(f"need a finite t >= 0, got {t}")
    h, _ = sample_deformed(spec, rng)
    decay = np.exp(-t / 2.0)
    goe = sample_wigner(spec.N, GAUSSIAN, -1.0, rng)
    return decay * h + np.sqrt(1.0 - decay * decay) * goe


def _lapacke_syevr() -> tuple[dict, tuple]:
    """LAPACKE ?syevr of the ILP64 OpenBLAS bundled in numpy's wheel
    (numpy.libs), keyed by dtype, and that library's (get, set) thread-count
    functions; ({}, ()) when numpy was built without it."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "*openblas64_*.so*"))[0])
        fns = {np.dtype(t): getattr(lib, f"scipy_LAPACKE_{c}syevr64_")
               for c, t in (("s", np.float32), ("d", np.float64))}
        threads = (lib.scipy_openblas_get_num_threads64_,
                   lib.scipy_openblas_set_num_threads64_)
    except (IndexError, OSError, AttributeError):
        return {}, ()
    for dtype, fn in fns.items():
        i, p, x = ctypes.c_int64, ctypes.c_void_p, np.ctypeslib.as_ctypes_type(dtype)
        # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
        fn.argtypes = [ctypes.c_int, *[ctypes.c_char] * 3, i, p, i, x, x, i, i, x, p, p, p, i, p]
        fn.restype = i
    threads[0].argtypes, threads[0].restype = [], ctypes.c_int
    threads[1].argtypes, threads[1].restype = [ctypes.c_int], None
    return fns, threads


# rngstream.draws pins each share of a forked pool to one thread with _BLAS_THREADS
_SYEVR, _BLAS_THREADS = _lapacke_syevr()


def _evr(a: np.ndarray, lo: int, vectors: bool) -> tuple:
    """(w, z): eigenvalues lo .. n-1 (ascending) of the symmetric contiguous a
    and, with vectors, their eigenvectors as columns, by ?syevr on a's buffer
    read column-major (a.T = a) as scipy.linalg.eigh(a.T, driver="evr") does
    it (and does when _SYEVR is empty).  a is destroyed."""
    n, k = a.shape[0], a.shape[0] - lo
    if not (a.shape == (n, n) and a.flags.forc and a.flags.writeable):
        raise ValueError("?syevr needs a writeable contiguous square matrix")
    if not _SYEVR:
        import scipy.linalg
        out = scipy.linalg.eigh(a.T, eigvals_only=not vectors, overwrite_a=True,
                                check_finite=False, subset_by_index=[lo, n - 1], driver="evr")
        return out if vectors else (out, None)
    w, z = np.empty(n, a.dtype), np.empty((k, n), a.dtype)
    m, isuppz = np.zeros(1, np.int64), np.empty(2 * k, np.int64)
    info = _SYEVR[a.dtype](102, b"V" if vectors else b"N", b"I", b"L", n, a.ctypes.data, n,
                           0, 0, lo + 1, n, 0, m.ctypes.data, w.ctypes.data, z.ctypes.data,
                           n, isuppz.ctypes.data)
    if info:  # -6: a NaN in a (LAPACKE's scan); > 0: no convergence
        raise np.linalg.LinAlgError(f"?syevr failed with info = {info}")
    return w[:m[0]], z[:m[0]].T if vectors else None


def _top_eigenvalues(h: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """The k largest eigenvalues of a finite, exactly symmetric matrix,
    descending, and whether a k = 1 solve fell back to dsyevr.  Unchecked,
    and h may be destroyed.

    k > 1 (or N = 1) runs dsyevr in place on h (_evr), so nothing is
    copied and the result is bit-for-bit that of eigh(h, driver="evr").

    k = 1 first solves the top two pairs (mu2', mu1') of fl32(H) by ssyevr
    on one float32 copy, then takes one Rayleigh-Ritz step in double on
    their span: Q = qr(X), Y = H Q, (theta, Z) = eigh(Q^T Y), with theta1
    the top Ritz value and r = ||Y z1 - theta1 Q z1|| its residual.
    Certificate (Parlett, The Symmetric Eigenvalue Problem, ch. 10-11):
    lambda2(H) <= b = mu2' + (2^-24 + 4 * 2^-23) ||H||_F + N * 2^-149, by
    Weyl's bound with ||H - fl32(H)||_2 <= u ||H||_F (u = 2^-24), LAPACK's
    eigenvalue error eps32 ||A|| with a 4x margin, and N * 2^-149 for
    subnormal rounding.  With delta = theta1 - b > 0, Kato-Temple puts
    lambda1 in [theta1, theta1 + r^2 / delta], and |theta1| <= ||H||_2, so
    theta1 is returned only if delta > r and r^2 / delta <= 1e-10 |theta1|,
    the module's 1e-10 * ||H|| contract.  A float32 copy that would not be
    finite (||H||_F beyond float32 range), a NaN anywhere or a failed test
    falls back to the in-place dsyevr.
    """
    n = h.shape[0]
    fro = np.linalg.norm(h.ravel()) if k == 1 and n > 1 else np.inf
    if fro <= _F32_MAX:
        mu, x = _evr(h.astype(np.float32), n - 2, vectors=True)
        q, _ = np.linalg.qr(x.astype(float))
        y = h @ q
        theta, z = np.linalg.eigh(q.T @ y)
        top, z1 = theta[-1], z[:, -1]
        r = np.linalg.norm(y @ z1 - top * (q @ z1))
        delta = top - (mu[0] + (_U32 + 4.0 * _EPS32) * fro + n * _TINY32)
        if delta > r and r * r / delta <= 1e-10 * abs(top):
            return theta[-1:], False
    w, _ = _evr(np.ascontiguousarray(h, dtype=float), n - k, vectors=False)
    if w.size != k:
        raise np.linalg.LinAlgError(f"dsyevr found {w.size} of {k} eigenvalues")
    return w[::-1], k == 1


def _symmetric(h) -> np.ndarray:
    """h as floats, checked square, finite and symmetric within 1e-12 max(1, |h|_max)."""
    arr = np.asarray(h, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"need a square matrix, got shape {arr.shape}")
    tol = 1e-12 * float(np.max(np.abs(arr), initial=1.0))  # NaN propagates
    if not np.isfinite(tol):
        raise ValueError("matrix has a non-finite entry")
    if np.max(np.abs(arr - arr.T)) > tol:
        raise ValueError(f"matrix is not symmetric within {tol:.3g}")
    return arr


def eigenvalues(h: np.ndarray, top: int | None = None) -> np.ndarray:
    """Eigenvalues, descending: the full spectrum (LAPACK dsyevd through
    numpy.linalg.eigvalsh), or with top=k only the k largest (dsyevr, which
    skips the rest of the spectrum after the tridiagonal reduction; for
    top=1 a certified float32 solve first, see _top_eigenvalues).  h is
    checked and left unchanged."""
    arr = _symmetric(h)
    if top is None:
        return np.linalg.eigvalsh(arr)[::-1]
    if not 1 <= top <= arr.shape[0]:
        raise ValueError(f"need 1 <= top <= N = {arr.shape[0]}, got {top}")
    return _top_eigenvalues(np.array(arr), top)[0]


def potential_to_json(potential: IIDFrom | Fixed) -> dict:
    if isinstance(potential, Fixed):
        return {"kind": "fixed", "values": potential.values.tolist()}
    return {"kind": "iid", "measure": ms.to_json(potential.measure)}


def potential_from_json(obj) -> IIDFrom | Fixed:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ms.MeasureFormatError("potential: expected an object with a 'kind'")
    if obj["kind"] == "fixed":
        values = obj.get("values")
        if not isinstance(values, list) or any(isinstance(x, bool) for x in values):
            raise ms.MeasureFormatError("potential.values: expected a list of numbers")
        return Fixed(values)
    if obj["kind"] == "iid":
        return IIDFrom(ms.from_json(obj.get("measure")))
    raise ms.MeasureFormatError(f"potential.kind: unknown variant {obj['kind']!r}")


# binary spectra files (the cli writes the CSV form), one descending spectrum
# per row: "DWSP" | uint32 N | uint64 count | count*N little-endian f64

def write_spectra_binary(path: str, spectra: np.ndarray) -> None:
    spectra = np.asarray(spectra, dtype="<f8")
    if spectra.ndim != 2 or spectra.shape[0] == 0:
        raise ValueError("need a nonempty (count, N) array of spectra")
    count, n = spectra.shape
    with open(path, "wb") as fh:
        fh.write(b"DWSP")
        fh.write(struct.pack("<IQ", n, count))
        fh.write(spectra.tobytes())


def read_spectra_binary(path: str) -> np.ndarray:
    """(count, N) array of descending eigenvalues."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"DWSP":
            raise ValueError(f"bad magic {magic!r}")
        n, count = struct.unpack("<IQ", fh.read(12))
        data = np.frombuffer(fh.read(8 * n * count), dtype="<f8")
    return data.reshape(count, n)
