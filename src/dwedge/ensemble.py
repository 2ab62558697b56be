"""Matrix ensembles: Wigner noise, deformations by a random potential, and
the Ornstein-Uhlenbeck interpolation between them.

The deformed model is H = lam0 * diag(V) + W with V iid from a potential
measure (or held fixed) and W symmetric with independent centered entries,
E w_ij^2 = 1/N off the diagonal and (1 + c2)/N on it.  The diagonal of W is
removed by default; the resulting shift of the extreme eigenvalues is
O(N^(-1)) and every experiment in the package runs in that convention.

Eigenvalues are computed with a dense symmetric solver (LAPACK via numpy);
backward error of the factorization is far below the 1e-10 * ||H|| contract
and is spot-checked in the tests against an independent high-precision
oracle at N = 50.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

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
        if self.N < 2:
            raise ValueError("need N >= 2")
        if self.lam0 < 0:
            raise ValueError("need lam0 >= 0")
        if self.law not in (GAUSSIAN, RADEMACHER):
            raise ValueError(f"unknown entry law {self.law!r}")
        if self.c2 < -1:
            raise ValueError("need c2 >= -1")
        if isinstance(self.potential, Fixed) and self.potential.values.size != self.N:
            raise ValueError("fixed potential length must equal N")


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray        # descending
    sample_index: int = 0

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigenvalues", ev)


def _symmetric_noise(n: int, law: str, rng: np.random.Generator,
                     offdiag_sd: float, diag_sd: float) -> np.ndarray:
    w = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    k = iu[0].size
    if law == GAUSSIAN:
        off = rng.standard_normal(k) * offdiag_sd
        diag = rng.standard_normal(n) * diag_sd
    else:
        off = (2.0 * rng.integers(0, 2, size=k) - 1.0) * offdiag_sd
        diag = (2.0 * rng.integers(0, 2, size=n) - 1.0) * diag_sd
    w[iu] = off
    w.T[iu] = off
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
    potential (per-sample rescaling constants are functions of V)."""
    v = draw_potential(spec, rng)
    h = sample_wigner(spec.N, spec.law, spec.c2, rng, spec.zero_diagonal)
    h[np.diag_indices(spec.N)] += spec.lam0 * v
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


def eigenvalues(h: np.ndarray, sample_index: int = 0) -> Spectrum:
    """Full spectrum, descending."""
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("need a square matrix")
    # relative to the entry scale, so rounding in a large-norm matrix passes
    tol = 1e-12 * max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.T)) > tol:
        raise ValueError(f"matrix is not symmetric within {tol:.3g}")
    ev = np.linalg.eigvalsh(h)[::-1]
    return Spectrum(eigenvalues=ev, sample_index=sample_index)


def spec_to_json(spec: EnsembleSpec) -> dict:
    if isinstance(spec.potential, Fixed):
        pot = {"kind": "fixed", "values": spec.potential.values.tolist()}
    else:
        pot = {"kind": "iid", "measure": ms.to_json(spec.potential.measure)}
    return {"N": spec.N, "lam0": spec.lam0, "potential": pot, "law": spec.law,
            "c2": spec.c2, "zero_diagonal": spec.zero_diagonal, "seed": spec.seed}


def spec_from_json(obj: dict) -> EnsembleSpec:
    pot = obj.get("potential")
    if not isinstance(pot, dict) or "kind" not in pot:
        raise ms.MeasureFormatError("potential: expected an object with a 'kind'")
    if pot["kind"] == "fixed":
        potential = Fixed(np.asarray(pot["values"], dtype=float))
    elif pot["kind"] == "iid":
        potential = IIDFrom(ms.from_json(pot.get("measure")))
    else:
        raise ms.MeasureFormatError(f"potential.kind: unknown variant {pot['kind']!r}")
    return EnsembleSpec(N=int(obj["N"]), lam0=float(obj["lam0"]), potential=potential,
                        law=str(obj.get("law", GAUSSIAN)), c2=float(obj.get("c2", 0.0)),
                        zero_diagonal=bool(obj.get("zero_diagonal", True)),
                        seed=int(obj.get("seed", 0)))


# spectra files: CSV rows (sample_index, k, mu_k), or a compact binary
# column format "DWSP" | uint32 N | uint64 count | count*N little-endian f64

def write_spectra_csv(path: str, spectra: list[Spectrum]) -> None:
    with open(path, "w") as fh:
        fh.write("sample_index,k,mu_k\n")
        for s in spectra:
            for k, mu in enumerate(s.eigenvalues, start=1):
                fh.write(f"{s.sample_index},{k},{float(mu)!r}\n")


def write_spectra_binary(path: str, spectra: list[Spectrum]) -> None:
    if not spectra:
        raise ValueError("no spectra to write")
    n = spectra[0].eigenvalues.size
    if any(s.eigenvalues.size != n for s in spectra):
        raise ValueError("all spectra must share one N")
    with open(path, "wb") as fh:
        fh.write(b"DWSP")
        fh.write(struct.pack("<IQ", n, len(spectra)))
        for s in spectra:
            fh.write(s.eigenvalues.astype("<f8").tobytes())


def read_spectra_binary(path: str) -> np.ndarray:
    """(count, N) array of descending eigenvalues."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"DWSP":
            raise ValueError(f"bad magic {magic!r}")
        n, count = struct.unpack("<IQ", fh.read(12))
        data = np.frombuffer(fh.read(8 * n * count), dtype="<f8")
    return data.reshape(count, n)
