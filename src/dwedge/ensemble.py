"""Matrix ensembles: Wigner noise, deformations by a random potential, and
the Ornstein-Uhlenbeck interpolation between them.

The deformed model is H = lam0 * diag(V) + W with V iid from a potential
measure (or held fixed) and W symmetric with independent centered entries,
E w_ij^2 = 1/N off the diagonal and (1 + c2)/N on it.  The diagonal of W is
removed by default; the resulting shift of the extreme eigenvalues is
O(N^(-1)) and every experiment in the package runs in that convention.

Eigenvalues are computed with dense symmetric LAPACK solvers: dsyevd via
numpy for the full spectrum, dsyevr via scipy for only the top k (the edge
statistics read mu_1 .. mu_k and nothing below).  Backward error of either
factorization is far below the 1e-10 * ||H|| contract and is spot-checked in
the tests against an independent high-precision oracle at N = 50.

Checks live at the two entries: eigenvalues() checks any matrix it is given
(square, finite, symmetric) and never modifies it, and sample_deformed()
checks the one part of its output that can be non-finite, the diagonal.  The
Monte Carlo loops, which discard each sampled matrix after its solve, call
_top_eigenvalues() on it directly: no second validation pass, and LAPACK
overwrites the matrix in place instead of working on a copy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import measure as ms

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"

# N^2 times the fourth cumulant of one off-diagonal entry, per law.
_ENTRY_S4 = {GAUSSIAN: 0.0, RADEMACHER: -2.0}


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
    c2: float = 0.0
    zero_diagonal: bool = True
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


def _symmetric_noise(n: int, law: str, rng: np.random.Generator,
                     offdiag_sd: float, diag_sd: float) -> np.ndarray:
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


def sample_wigner(n: int, law: str, c2: float, rng: np.random.Generator,
                  zero_diagonal: bool = True) -> np.ndarray:
    """Symmetric noise with E w_ij^2 = 1/N off-diagonal, (1+c2)/N on it
    (zeroed when zero_diagonal)."""
    if n < 2:
        raise ValueError("need N >= 2")
    diag_sd = 0.0 if zero_diagonal else np.sqrt((1.0 + c2) / n)
    return _symmetric_noise(n, law, rng, 1.0 / np.sqrt(n), diag_sd)


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
    h = sample_wigner(spec.N, spec.law, spec.c2, rng, spec.zero_diagonal)
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
    if t < 0:
        raise ValueError("need t >= 0")
    h, _ = sample_deformed(spec, rng)
    decay = np.exp(-t / 2.0)
    goe = sample_wigner(spec.N, GAUSSIAN, 1.0, rng, zero_diagonal=True)
    return decay * h + np.sqrt(1.0 - decay * decay) * goe


def _top_eigenvalues(h: np.ndarray, k: int) -> np.ndarray:
    """The k largest eigenvalues of a finite, exactly symmetric matrix,
    descending, by LAPACK dsyevr.  Unchecked, and h is destroyed: the solve
    runs in place on h.T, the same matrix already in Fortran order, so
    nothing is copied and the result is bit-for-bit that of eigh(h)."""
    n = h.shape[0]
    w = scipy.linalg.eigh(h.T, eigvals_only=True, overwrite_a=True,
                          check_finite=False, subset_by_index=[n - k, n - 1],
                          driver="evr")
    if w.size != k:
        raise np.linalg.LinAlgError(f"dsyevr found {w.size} of {k} eigenvalues")
    return w[::-1]


def eigenvalues(h: np.ndarray, top: int | None = None) -> np.ndarray:
    """Eigenvalues, descending: the full spectrum (LAPACK dsyevd through
    numpy.linalg.eigvalsh), or with top=k only the k largest (dsyevr, which
    skips the rest of the spectrum after the tridiagonal reduction).  h is
    checked and left unchanged."""
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("need a square matrix")
    n = h.shape[0]
    if top is not None and not 1 <= top <= n:
        raise ValueError(f"need 1 <= top <= N = {n}, got {top}")
    scale = float(np.max(np.abs(h)))
    if not np.isfinite(scale):
        raise ValueError("matrix has a non-finite entry")
    # relative to the entry scale, so rounding in a large-norm matrix passes
    tol = 1e-12 * max(1.0, scale)
    if np.max(np.abs(h - h.T)) > tol:
        raise ValueError(f"matrix is not symmetric within {tol:.3g}")
    if top is None:
        return np.linalg.eigvalsh(h)[::-1]
    return _top_eigenvalues(np.array(h, dtype=float), top)


def potential_to_json(potential: IIDFrom | Fixed) -> dict:
    if isinstance(potential, Fixed):
        return {"kind": "fixed", "values": potential.values.tolist()}
    return {"kind": "iid", "measure": ms.to_json(potential.measure)}


def potential_from_json(obj) -> IIDFrom | Fixed:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ms.MeasureFormatError("potential: expected an object with a 'kind'")
    if obj["kind"] == "fixed":
        return Fixed(np.asarray(obj.get("values"), dtype=float))
    if obj["kind"] == "iid":
        return IIDFrom(ms.from_json(obj.get("measure")))
    raise ms.MeasureFormatError(f"potential.kind: unknown variant {obj['kind']!r}")


# spectra files from a (count, N) array, one descending spectrum per row:
# CSV rows (sample_index = row, k, mu_k), or a compact binary column format
# "DWSP" | uint32 N | uint64 count | count*N little-endian f64

def write_spectra_csv(path: str, spectra: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("sample_index,k,mu_k\n")
        for j, ev in enumerate(spectra):
            for k, mu in enumerate(ev, start=1):
                fh.write(f"{j},{k},{float(mu)!r}\n")


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
