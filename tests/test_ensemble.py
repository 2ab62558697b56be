"""Ensemble sampling and the dense eigensolver contract.

tests/data/eig50.json holds a 30-digit mpmath spectrum of the fixed-seed
50x50 matrix (scripts/gen_eig50.py) as an independent solver oracle.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dwedge.edgescale as es
import dwedge.ensemble as en
import dwedge.measure as ms
from dwedge.rngstream import stream

TWO = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
DATA = pathlib.Path(__file__).parent / "data"


def two_atom_spec(n=500, lam0=0.5, law=en.GAUSSIAN, seed=7):
    return en.EnsembleSpec(N=n, lam0=lam0, potential=en.IIDFrom(TWO),
                           law=law, seed=seed)


def test_wigner_symmetry_and_reproducibility():
    w1 = en.sample_wigner(2, en.GAUSSIAN, 0.0, stream(1, "w"), zero_diagonal=False)
    w2 = en.sample_wigner(2, en.GAUSSIAN, 0.0, stream(1, "w"), zero_diagonal=False)
    assert w1[0, 1] == w1[1, 0]
    np.testing.assert_array_equal(w1, w2)
    w3 = en.sample_wigner(2, en.GAUSSIAN, 0.0, stream(2, "w"), zero_diagonal=False)
    assert not np.array_equal(w1, w3)


@pytest.mark.parametrize("law", [en.GAUSSIAN, en.RADEMACHER])
def test_wigner_moments(law):
    n = 400
    w = en.sample_wigner(n, law, 0.0, stream(3, "moments"), zero_diagonal=False)
    iu = np.triu_indices(n, 1)
    off = w[iu]
    assert abs(off.mean()) < 4.0 / np.sqrt(off.size * n) * np.sqrt(n)
    assert off.var() * n == pytest.approx(1.0, rel=0.05)
    assert w[np.diag_indices(n)].var() * n == pytest.approx(1.0, rel=0.25)
    if law == en.RADEMACHER:
        assert np.all(np.isin(np.abs(off), [1.0 / np.sqrt(n)]))


def test_zero_diagonal_flag():
    w = en.sample_wigner(50, en.GAUSSIAN, 1.0, stream(4, "zd"))
    assert np.all(np.diag(w) == 0.0)


def test_edge_matched_c2():
    # c2 = 1 - s4: the diagonal weight that pins the 1/N edge shift to the
    # GOE value for each entry law
    assert en.edge_matched_c2(en.GAUSSIAN) == 1.0
    assert en.edge_matched_c2(en.RADEMACHER) == 3.0
    with pytest.raises(ValueError, match="entry law"):
        en.edge_matched_c2("cauchy")


def test_goe_edge_reaches_two():
    tops = []
    for i in range(20):
        w = en.sample_wigner(1000, en.GAUSSIAN, 1.0, stream(5, "goe-edge", i),
                             zero_diagonal=False)
        tops.append(en.eigenvalues(w).eigenvalues[0])
    assert np.mean(tops) / 2.0 == pytest.approx(1.0, abs=0.05)


def test_deformed_structure():
    spec = two_atom_spec(n=200)
    h, v = en.sample_deformed(spec, stream(spec.seed, "sample"))
    assert np.all(np.isin(v, [-1.0, 1.0]))
    np.testing.assert_allclose(np.diag(h), spec.lam0 * v)  # zero_diagonal noise
    assert np.max(np.abs(h - h.T)) == 0.0


def test_fixed_potential_is_exact_shift():
    n, c = 120, 0.37
    base = en.EnsembleSpec(N=n, lam0=0.0, potential=en.Fixed(np.zeros(n)), seed=11)
    shifted = en.EnsembleSpec(N=n, lam0=1.0, potential=en.Fixed(c * np.ones(n)), seed=11)
    h0, _ = en.sample_deformed(base, stream(11, "shift"))
    h1, _ = en.sample_deformed(shifted, stream(11, "shift"))
    ev0 = en.eigenvalues(h0).eigenvalues
    ev1 = en.eigenvalues(h1).eigenvalues
    np.testing.assert_allclose(ev1, ev0 + c, atol=1e-12)


def test_largest_eigenvalue_tracks_edge_prediction():
    spec = two_atom_spec(n=500)
    h, v = en.sample_deformed(spec, stream(spec.seed, "edge"))
    scaling = es.build(ms.empirical_from_values(v), spec.lam0)
    mu1 = en.eigenvalues(h).eigenvalues[0]
    assert abs(mu1 - scaling.e_plus) < 15.0 * spec.N ** (-2.0 / 3.0)


def test_eigenvalues_trivial_cases():
    assert en.eigenvalues(np.diag([3.0, 1.0, 2.0])).eigenvalues.tolist() == [3.0, 2.0, 1.0]
    ev = en.eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvalues
    np.testing.assert_allclose(ev, [1.0, -1.0], atol=1e-15)
    with pytest.raises(ValueError):
        en.eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetry_check_is_relative_to_entry_scale():
    # Q diag(d) Q^T with |H| ~ 3e5 is symmetric only up to rounding, which
    # is far above an absolute 1e-12 but about 1e-16 of the entries
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    d = np.linspace(-1.0, 1.0, 50) * 1e6
    h = q @ np.diag(d) @ q.T
    assert np.max(np.abs(h - h.T)) > 1e-12
    ev = en.eigenvalues(h).eigenvalues
    np.testing.assert_allclose(ev, d[::-1], rtol=0, atol=1e-9 * 1e6)
    with pytest.raises(ValueError, match="not symmetric"):
        en.eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvalues_match_high_precision_oracle():
    oracle = json.loads((DATA / "eig50.json").read_text())
    w = en.sample_wigner(50, en.GAUSSIAN, 1.0, stream(2024, "eig50"),
                         zero_diagonal=False)
    ev = en.eigenvalues(w).eigenvalues
    assert np.max(np.abs(ev - np.array(oracle["eigenvalues_desc"]))) < 1e-8


def test_trace_and_frobenius_invariance():
    spec = two_atom_spec(n=300)
    h, _ = en.sample_deformed(spec, stream(1, "inv"))
    ev = en.eigenvalues(h).eigenvalues
    assert abs(ev.sum() - np.trace(h)) < 1e-8 * spec.N
    assert abs(np.sum(ev**2) - np.sum(h * h)) < 1e-8 * spec.N


def test_backward_error_on_eigenpairs():
    h, _ = en.sample_deformed(two_atom_spec(n=150), stream(9, "bw"))
    vals, vecs = np.linalg.eigh(h)
    for k in (0, 75, 149):
        r = np.linalg.norm(h @ vecs[:, k] - vals[k] * vecs[:, k])
        assert r <= 1e-10 * np.linalg.norm(h, 2)


def test_interpolation_at_zero_matches_deformed():
    spec = two_atom_spec(n=100)
    h0 = en.sample_interpolated(spec, 0.0, stream(5, "interp"))
    h1, _ = en.sample_deformed(spec, stream(5, "interp"))
    np.testing.assert_array_equal(h0, h1)


def test_interpolation_long_time_is_goe():
    spec = two_atom_spec(n=400)
    h = en.sample_interpolated(spec, 50.0, stream(6, "interp-late"))
    iu = np.triu_indices(spec.N, 1)
    assert h[iu].var() * spec.N == pytest.approx(1.0, rel=0.08)
    assert np.max(np.abs(np.diag(h))) < 1e-9  # both components have zero diagonal


def test_spec_json_round_trip():
    spec = two_atom_spec()
    back = en.spec_from_json(en.spec_to_json(spec))
    assert back.N == spec.N and back.lam0 == spec.lam0 and back.law == spec.law
    assert back.zero_diagonal == spec.zero_diagonal and back.seed == spec.seed
    assert isinstance(back.potential, en.IIDFrom)
    assert en.spec_to_json(back) == en.spec_to_json(spec)
    fx = en.EnsembleSpec(N=3, lam0=0.1, potential=en.Fixed([1.0, 2.0, 3.0]))
    back2 = en.spec_from_json(en.spec_to_json(fx))
    np.testing.assert_array_equal(back2.potential.values, [1.0, 2.0, 3.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        en.EnsembleSpec(N=1, lam0=0.0, potential=en.Fixed([0.0]))
    with pytest.raises(ValueError):
        en.EnsembleSpec(N=4, lam0=0.0, potential=en.Fixed([0.0] * 3))
    with pytest.raises(ValueError):
        en.EnsembleSpec(N=4, lam0=0.0, potential=en.Fixed([0.0] * 4), law="cauchy")
    with pytest.raises(ValueError):
        en.EnsembleSpec(N=4, lam0=0.0, potential=en.Fixed([0.0] * 4), c2=-2.0)


def test_spectra_files_round_trip(tmp_path):
    spectra = []
    for i in range(3):
        h, _ = en.sample_deformed(two_atom_spec(n=20), stream(1, "io", i))
        spectra.append(en.eigenvalues(h, sample_index=i))
    b = tmp_path / "spectra.bin"
    en.write_spectra_binary(str(b), spectra)
    data = en.read_spectra_binary(str(b))
    assert data.shape == (3, 20)
    for i in range(3):
        np.testing.assert_array_equal(data[i], spectra[i].eigenvalues)
    c = tmp_path / "spectra.csv"
    en.write_spectra_csv(str(c), spectra)
    lines = c.read_text().splitlines()
    assert lines[0] == "sample_index,k,mu_k"
    assert len(lines) == 1 + 3 * 20
    idx, k, mu = lines[1].split(",")
    assert (idx, k) == ("0", "1") and float(mu) == spectra[0].eigenvalues[0]


@settings(max_examples=25)
@given(st.integers(2, 12), st.floats(-3, 3), st.integers(0, 2**32 - 1))
def test_shift_equivariance(n, c, seed):
    w = en.sample_wigner(n, en.GAUSSIAN, 1.0, stream(seed, "hyp"), zero_diagonal=False)
    ev = en.eigenvalues(w).eigenvalues
    ev_shift = en.eigenvalues(w + c * np.eye(n)).eigenvalues
    np.testing.assert_allclose(ev_shift, ev + c, atol=1e-10)
