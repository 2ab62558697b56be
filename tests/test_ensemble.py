"""Ensemble sampling and the dense eigensolver contract.

tests/data/eig50.json holds a 30-digit mpmath spectrum of the fixed-seed
50x50 matrix (scripts/gen_eig50.py) as an independent solver oracle.
"""

import ast
import json
import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import dwedge.edgescale as es
import dwedge.ensemble as en
import dwedge.measure as ms
from dwedge.rngstream import stream

TWO = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dwedge"


def two_atom_spec(n=500, lam0=0.5, law=en.GAUSSIAN, seed=7):
    return en.EnsembleSpec(N=n, lam0=lam0, potential=en.IIDFrom(TWO),
                           law=law, seed=seed)


def test_wigner_symmetry_and_reproducibility():
    w1 = en.sample_wigner(2, en.GAUSSIAN, 0.0, stream(1, "w"))
    w2 = en.sample_wigner(2, en.GAUSSIAN, 0.0, stream(1, "w"))
    assert w1[0, 1] == w1[1, 0]
    np.testing.assert_array_equal(w1, w2)
    w3 = en.sample_wigner(2, en.GAUSSIAN, 0.0, stream(2, "w"))
    assert not np.array_equal(w1, w3)


@pytest.mark.parametrize("law", [en.GAUSSIAN, en.RADEMACHER])
def test_wigner_moments(law):
    n = 400
    w = en.sample_wigner(n, law, 0.0, stream(3, "moments"))
    iu = np.triu_indices(n, 1)
    off = w[iu]
    assert abs(off.mean()) < 4.0 / np.sqrt(off.size * n) * np.sqrt(n)
    assert off.var() * n == pytest.approx(1.0, rel=0.05)
    assert w[np.diag_indices(n)].var() * n == pytest.approx(1.0, rel=0.25)
    if law == en.RADEMACHER:
        assert np.all(np.isin(np.abs(off), [1.0 / np.sqrt(n)]))


def test_c2_minus_one_zeroes_the_diagonal_and_still_draws_it():
    # the diagonal draws are taken and scaled by 0, so the off-diagonal
    # entries, and the next draw of the stream, are those of c2 = 1
    off = ~np.eye(50, dtype=bool)
    for law in (en.GAUSSIAN, en.RADEMACHER):
        rng, ref = stream(4, "zd"), stream(4, "zd")
        w = en.sample_wigner(50, law, -1.0, rng)
        noisy = en.sample_wigner(50, law, 1.0, ref)
        assert np.all(np.diag(w) == 0.0) and np.all(np.diag(noisy) != 0.0)
        assert w[off].tobytes() == noisy[off].tobytes()
        assert rng.random() == ref.random()


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
        w = en.sample_wigner(1000, en.GAUSSIAN, 1.0, stream(5, "goe-edge", i))
        tops.append(en.eigenvalues(w)[0])
    assert np.mean(tops) / 2.0 == pytest.approx(1.0, abs=0.05)


def test_deformed_structure():
    spec = two_atom_spec(n=200)
    h, v = en.sample_deformed(spec, stream(spec.seed, "sample"))
    assert np.all(np.isin(v, [-1.0, 1.0]))
    np.testing.assert_allclose(np.diag(h), spec.lam0 * v)  # c2 = -1: no noise
    assert np.max(np.abs(h - h.T)) == 0.0


def test_fixed_potential_is_exact_shift():
    n, c = 120, 0.37
    base = en.EnsembleSpec(N=n, lam0=0.0, potential=en.Fixed(np.zeros(n)), seed=11)
    shifted = en.EnsembleSpec(N=n, lam0=1.0, potential=en.Fixed(c * np.ones(n)), seed=11)
    h0, _ = en.sample_deformed(base, stream(11, "shift"))
    h1, _ = en.sample_deformed(shifted, stream(11, "shift"))
    ev0 = en.eigenvalues(h0)
    ev1 = en.eigenvalues(h1)
    np.testing.assert_allclose(ev1, ev0 + c, atol=1e-12)


def test_largest_eigenvalue_tracks_edge_prediction():
    spec = two_atom_spec(n=500)
    h, v = en.sample_deformed(spec, stream(spec.seed, "edge"))
    scaling = es.build(ms.empirical_from_values(v), spec.lam0)
    mu1 = en.eigenvalues(h)[0]
    assert abs(mu1 - scaling.e_plus) < 15.0 * spec.N ** (-2.0 / 3.0)


def test_eigenvalues_trivial_cases():
    assert en.eigenvalues(np.diag([3.0, 1.0, 2.0])).tolist() == [3.0, 2.0, 1.0]
    ev = en.eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
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
    ev = en.eigenvalues(h)
    np.testing.assert_allclose(ev, d[::-1], rtol=0, atol=1e-9 * 1e6)
    with pytest.raises(ValueError, match="not symmetric"):
        en.eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("top", [None, 1])
@pytest.mark.parametrize("pos", [(0, 0), (0, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigenvalues_reject_non_finite_entries(bad, pos, top):
    # a non-finite entry used to pass the symmetry check (nan > tol is
    # False); a NaN at (0, 0) then came back as the spectrum [3, 0, 0] and
    # an inf there as all NaN, with no error
    h = np.diag([1.0, 2.0, 3.0])
    h[pos] = h[pos[::-1]] = bad
    with pytest.raises(ValueError, match="non-finite"):
        en.eigenvalues(h, top=top)


@pytest.mark.parametrize("law", [en.GAUSSIAN, en.RADEMACHER])
@pytest.mark.parametrize("n", [2, 50, 500])
def test_top_k_is_the_head_of_the_full_spectrum(n, law):
    h = en.sample_wigner(n, law, 1.0, stream(12, "topk", n))
    full = en.eigenvalues(h)
    for k in sorted({min(k, n) for k in (1, 20, n)}):
        top = en.eigenvalues(h, top=k)
        assert top.shape == (k,)
        np.testing.assert_allclose(top, full[:k], rtol=0, atol=1e-12)


def test_top_k_keeps_a_repeated_top_eigenvalue():
    ev = en.eigenvalues(np.diag([3.0, 1.0, 2.0, 3.0]), top=2)
    assert ev.tolist() == [3.0, 3.0]


@pytest.mark.parametrize("top", [0, -1, 5])
def test_top_outside_one_to_n_is_rejected(top):
    with pytest.raises(ValueError, match="top"):
        en.eigenvalues(np.eye(4), top=top)


@pytest.mark.parametrize("k", [1, 20])
def test_in_place_solve_matches_the_checked_entry(k):
    # the Monte Carlo loops call _top_eigenvalues on the sampled matrix.  At
    # k = 1 both calls take the float32 route, so they agree bit for bit;
    # its Ritz value sits below dsyevd by at most 4.1e-13 ||H|| over seeds
    # 0-31 at N = 300 and 800, at one or two BLAS threads (dsyevd is within
    # 1.2e-16 ||H|| of the eig50 oracle, the float32 route within
    # 5.4e-14 ||H||)
    h, _ = en.sample_deformed(two_atom_spec(n=300), stream(14, "inplace", k))
    norm = np.linalg.norm(h, 2)
    fast, fell_back = en._top_eigenvalues(h.copy(), k)
    assert fast.shape == (k,) and fell_back is False
    np.testing.assert_allclose(fast, en.eigenvalues(h, top=k),
                               rtol=0, atol={1: 0.0, 20: 1e-13}[k] * norm)
    np.testing.assert_allclose(fast, en.eigenvalues(h)[:k],
                               rtol=0, atol={1: 1e-12, 20: 1e-13}[k] * norm)


def _lapack_calls(count_calls):
    """The dtypes of the matrices the ?syevr binding is called on."""
    calls = count_calls(en, "_evr")
    return lambda: [args[0].dtype for args in calls]


def test_top_one_matches_the_high_precision_oracle(count_calls):
    # the certified float32 route, with no dsyevr call, against mpmath
    oracle = json.loads((DATA / "eig50.json").read_text())
    w = en.sample_wigner(50, en.GAUSSIAN, 1.0, stream(2024, "eig50"))
    dtypes = _lapack_calls(count_calls)
    top = en.eigenvalues(w, top=1)
    assert dtypes() == [np.float32]
    assert abs(top[0] - oracle["eigenvalues_desc"][0]) < 1e-12 * np.linalg.norm(w, 2)


def test_top_one_of_a_repeated_eigenvalue_falls_back_to_dsyevr(count_calls):
    # mu2 = mu1 leaves no gap for the Kato-Temple bound
    dtypes = _lapack_calls(count_calls)
    assert en.eigenvalues(np.diag([3.0, 1.0, 2.0, 3.0]), top=1).tolist() == [3.0]
    assert dtypes() == [np.float32, np.float64]


@pytest.mark.parametrize("degenerate,dsyevr_calls", [(False, 0), (True, 1)])
def test_top_one_calls_dsyevr_only_when_the_certificate_fails(
        count_calls, degenerate, dsyevr_calls):
    # a sample at N = 300, or two copies of one at N = 150 (a double mu1)
    if degenerate:
        half, _ = en.sample_deformed(two_atom_spec(n=150), stream(14, "twice"))
        h = scipy.linalg.block_diag(half, half)
    else:
        h, _ = en.sample_deformed(two_atom_spec(n=300), stream(14, "inplace", 1))
    dtypes = _lapack_calls(count_calls)
    top = en.eigenvalues(h, top=1)
    assert dtypes().count(np.float64) == dsyevr_calls
    assert en._top_eigenvalues(h.copy(), 1)[1] == degenerate
    np.testing.assert_allclose(top, np.linalg.eigvalsh(h)[-1:], rtol=0,
                               atol=1e-12 * np.linalg.norm(h, 2))


@pytest.mark.parametrize("scale,solves", [
    # 1e-42 H rounds to float32 subnormals and fails the certificate;
    # 1e40 H has ||H||_F beyond float32 range and skips ssyevr
    (1e-42, [np.float32, np.float64]), (1e40, [np.float64]),
], ids=["1e-42", "1e40"])
def test_top_one_outside_float32_range_falls_back(count_calls, scale, solves):
    h, _ = en.sample_deformed(two_atom_spec(n=300), stream(14, "inplace", 1))
    dtypes = _lapack_calls(count_calls)
    top = en.eigenvalues(scale * h, top=1)
    assert dtypes() == solves
    np.testing.assert_allclose(top, scale * np.linalg.eigvalsh(h)[-1:], rtol=1e-12)


@pytest.mark.parametrize("top", [None, 1, 20])
def test_eigenvalues_leave_the_input_unchanged(top):
    h, _ = en.sample_deformed(two_atom_spec(n=100), stream(15, "keep"))
    before = h.tobytes()
    en.eigenvalues(h, top=top)
    assert h.tobytes() == before


def _scipy_linalg_uses(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
            [f"{node.module}.{a.name}" for a in node.names] \
            if isinstance(node, ast.ImportFrom) else []
        out += [f"line {node.lineno}: imports {name}" for name in names
                if (name + ".").startswith("scipy.linalg.")]
        if isinstance(node, ast.Attribute) and node.attr == "linalg" \
                and isinstance(node.value, ast.Name) and node.value.id == "scipy":
            out.append(f"line {node.lineno}: reads scipy.linalg")
    return out


def test_scipy_linalg_is_only_the_lazy_fallback():
    # every eigensolve runs on numpy's OpenBLAS; scipy.linalg serves only
    # ensemble._evr's fallback for a numpy without the bundled library, and
    # no module imports it at module level (the ensemble docstring)
    found, fallback = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if path.name == "ensemble.py" and getattr(node, "name", None) == "_evr":
                fallback = _scipy_linalg_uses(node)
            elif bad := _scipy_linalg_uses(node):
                found.setdefault(path.name, []).extend(bad)
    assert not found, f"partial spectra go through ensemble._evr: {found}"
    assert [use.split(": ")[1] for use in fallback] == [
        "imports scipy.linalg", "reads scipy.linalg"]
    # the guard sees what it looks for
    probe = ast.parse("import scipy.linalg\n"
                      "from scipy import linalg\n"
                      "from scipy.linalg import eigh\n"
                      "import scipy\nscipy.linalg.eigh(a)\n")
    assert _scipy_linalg_uses(probe) == [
        "line 1: imports scipy.linalg", "line 2: imports scipy.linalg",
        "line 3: imports scipy.linalg.eigh", "line 5: reads scipy.linalg"]


needs_binding = pytest.mark.skipif(not en._SYEVR,
                                   reason="numpy without its bundled OpenBLAS")


@needs_binding
@pytest.mark.parametrize("n", [200, 500])
def test_binding_matches_scipy_evr_bit_for_bit(n):
    h, _ = en.sample_deformed(two_atom_spec(n=n), stream(16, "evr", n))
    for k in (1, 20):
        w, z = en._evr(h.copy(), n - k, vectors=False)
        assert z is None
        assert w.tobytes() == scipy.linalg.eigh(
            h, eigvals_only=True, subset_by_index=[n - k, n - 1], driver="evr").tobytes()
    mu, x = en._evr(h.astype(np.float32), n - 2, vectors=True)
    mu_s, x_s = scipy.linalg.eigh(h.astype(np.float32), subset_by_index=[n - 2, n - 1],
                                  driver="evr")
    assert mu.dtype == x.dtype == np.float32 and x.shape == (n, 2)
    assert mu.tobytes() == mu_s.tobytes() and np.array_equal(x, x_s)


@needs_binding
def test_binding_reports_lapacke_errors():
    # LAPACKE scans the lower triangle it reads for NaN: info = -6 (argument a)
    h = np.eye(4)
    h[1, 2] = h[2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="info = -6"):
        en._evr(h, 3, vectors=False)


def test_evr_takes_only_a_writeable_contiguous_square_matrix():
    frozen = np.eye(3)
    frozen.flags.writeable = False
    for a in (np.eye(4)[::2, ::2], np.eye(4)[:3], frozen):
        with pytest.raises(ValueError, match="writeable contiguous square"):
            en._evr(a, 1, vectors=False)


def test_without_the_bundled_library_scipy_solves_the_same(monkeypatch):
    h, _ = en.sample_deformed(two_atom_spec(n=300), stream(16, "fallback"))
    bound = [en._top_eigenvalues(h.copy(), k) for k in (1, 20)]
    monkeypatch.setattr(en.glob, "glob", lambda pattern: [])
    monkeypatch.setattr(en, "_SYEVR", en._lapacke_syevr())
    assert en._SYEVR == {}
    fallback = [en._top_eigenvalues(h.copy(), k) for k in (1, 20)]
    for (w, fell), (w_s, fell_s) in zip(bound, fallback):
        assert w.tobytes() == w_s.tobytes() and fell == fell_s


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sampler_rejects_a_non_finite_potential_term(monkeypatch, bad):
    # a potential draw the spec cannot see, e.g. an infinite atom of an iid law
    spec = two_atom_spec(n=20)
    monkeypatch.setattr(en, "draw_potential",
                        lambda spec, rng: np.r_[bad, np.zeros(spec.N - 1)])
    with pytest.raises(ValueError, match="non-finite"):
        en.sample_deformed(spec, stream(16, "nan"))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_sampler_rejects_an_overflowing_potential_term():
    spec = en.EnsembleSpec(N=4, lam0=10.0,
                           potential=en.Fixed([1e308, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        en.sample_deformed(spec, stream(16, "overflow"))


def test_sampler_rejects_an_infinite_diagonal_weight():
    spec = en.EnsembleSpec(N=4, lam0=0.0, potential=en.Fixed(np.zeros(4)),
                           c2=0.0)
    # past the spec's own check, which rejects c2 = inf
    object.__setattr__(spec, "c2", np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        en.sample_deformed(spec, stream(16, "c2"))


@pytest.mark.parametrize("zeroed", [True, False])
@pytest.mark.parametrize("law", [en.GAUSSIAN, en.RADEMACHER])
@pytest.mark.parametrize("n", [2, 3, 50])
def test_row_wise_fill_matches_the_triu_scatter(n, law, zeroed):
    # the same draws, scattered with np.triu_indices as the sampler once did;
    # c2 = -1 zeroes the diagonal, c2 = 1 gives it variance 2/N
    c2 = -1.0 if zeroed else 1.0
    w = en.sample_wigner(n, law, c2, stream(13, "fill", n))
    rng = stream(13, "fill", n)
    k = n * (n - 1) // 2
    off_sd = 1.0 / np.sqrt(n)
    diag_sd = 0.0 if zeroed else np.sqrt(2.0 / n)
    if law == en.GAUSSIAN:
        off = rng.standard_normal(k) * off_sd
        diag = rng.standard_normal(n) * diag_sd
    else:
        off = (2.0 * rng.integers(0, 2, size=k) - 1.0) * off_sd
        diag = (2.0 * rng.integers(0, 2, size=n) - 1.0) * diag_sd
    ref = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    ref[iu] = off
    ref.T[iu] = off
    np.fill_diagonal(ref, diag)
    assert w.tobytes() == ref.tobytes()


def test_eigenvalues_match_high_precision_oracle():
    oracle = json.loads((DATA / "eig50.json").read_text())
    w = en.sample_wigner(50, en.GAUSSIAN, 1.0, stream(2024, "eig50"))
    ev = en.eigenvalues(w)
    assert np.max(np.abs(ev - np.array(oracle["eigenvalues_desc"]))) < 1e-8


def test_trace_and_frobenius_invariance():
    spec = two_atom_spec(n=300)
    h, _ = en.sample_deformed(spec, stream(1, "inv"))
    ev = en.eigenvalues(h)
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


def test_potential_json_round_trip():
    iid = two_atom_spec().potential
    back = en.potential_from_json(en.potential_to_json(iid))
    assert isinstance(back, en.IIDFrom)
    assert en.potential_to_json(back) == en.potential_to_json(iid)
    back2 = en.potential_from_json(en.potential_to_json(en.Fixed([1.0, 2.0, 3.0])))
    np.testing.assert_array_equal(back2.values, [1.0, 2.0, 3.0])
    for bad in ({"kind": "shuffled"}, {"values": [1.0]}, [1.0]):
        with pytest.raises(ms.MeasureFormatError):
            en.potential_from_json(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        en.EnsembleSpec(N=1, lam0=0.0, potential=en.Fixed([0.0]))
    with pytest.raises(ValueError):
        en.EnsembleSpec(N=4, lam0=0.0, potential=en.Fixed([0.0] * 3))
    with pytest.raises(ValueError):
        en.EnsembleSpec(N=4, lam0=0.0, potential=en.Fixed([0.0] * 4), law="cauchy")
    with pytest.raises(ValueError):
        en.EnsembleSpec(N=4, lam0=0.0, potential=en.Fixed([0.0] * 4), c2=-2.0)
    for t in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite t"):
            en.sample_interpolated(two_atom_spec(n=4), t, stream(0, "t"))


@pytest.mark.parametrize("field,kwargs", [
    ("lam0", {"lam0": np.nan}), ("lam0", {"lam0": np.inf}),
    ("c2", {"c2": np.nan}), ("c2", {"c2": np.inf}),
    ("potential", {"potential": en.Fixed([np.inf, 0.0])}),
    ("potential", {"potential": en.Fixed([np.nan, 0.0])}),
])
def test_spec_rejects_non_finite_values(field, kwargs):
    args = {"N": 2, "lam0": 0.5, "potential": en.Fixed([0.0, 0.0]), **kwargs}
    with pytest.raises(ValueError, match=field):
        en.EnsembleSpec(**args)


def test_spectra_files_round_trip(tmp_path):
    spectra = np.array([
        en.eigenvalues(en.sample_deformed(two_atom_spec(n=20), stream(1, "io", i))[0])
        for i in range(3)])
    b = tmp_path / "spectra.bin"
    en.write_spectra_binary(str(b), spectra)
    data = en.read_spectra_binary(str(b))
    assert data.shape == (3, 20)
    for i in range(3):
        np.testing.assert_array_equal(data[i], spectra[i])


@settings(max_examples=25)
@given(st.integers(2, 12), st.floats(-3, 3), st.integers(0, 2**32 - 1))
def test_shift_equivariance(n, c, seed):
    w = en.sample_wigner(n, en.GAUSSIAN, 1.0, stream(seed, "hyp"))
    ev = en.eigenvalues(w)
    ev_shift = en.eigenvalues(w + c * np.eye(n))
    np.testing.assert_allclose(ev_shift, ev + c, atol=1e-10)
