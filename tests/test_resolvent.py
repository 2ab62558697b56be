"""Resolvent identities, local-law residuals, optical cancellation.

The optical diagnostic needs its statistics read the right way round: the
raw two-resolvent sum rule has an order-one expectation coming from the
self-pairings of its index sums, and even the centered optical_window
value fluctuates at order one per sample.  What decays like N^(-1/3) is
the location (mean or component-wise median) of the centered statistic
over seeds, so that is what the decrease test below measures.  The local
law thresholds are MC-calibrated constants for this implementation's Pi
convention, pinned by the streams used here; see the slope fit in the
acceptance suite for the rate itself.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import dwedge.edgescale as es
import dwedge.ensemble as ens
import dwedge.measure as ms
import dwedge.resolvent as rv
from dwedge.rngstream import stream

TWO = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def goe_like(n, seed, label="res"):
    # nonzero diagonal on purpose: the identities must not depend on it
    return ens.sample_wigner(n, ens.GAUSSIAN, 1.0, stream(seed, label),
                             zero_diagonal=False)


# ---------------------------------------------------------------- green


def test_green_is_the_resolvent():
    h = goe_like(30, 1)
    z = 0.3 + 0.2j
    ev = rv.green(h, z)
    lhs = (h - z * np.eye(30)) @ ev.G
    assert np.abs(lhs - np.eye(30)).max() < 1e-12
    assert np.abs(ev.G - ev.G.T).max() < 1e-12
    assert ev.m == pytest.approx(complex(np.trace(ev.G)) / 30, abs=1e-15)
    assert ev.z == z
    assert ev.m.imag > 0


def test_green_rejects_bad_input():
    with pytest.raises(ValueError):
        rv.green(np.zeros((3, 4)), 1j)
    with pytest.raises(ValueError):
        rv.green(np.eye(3), 2.0)  # real axis
    with pytest.raises(ValueError):
        rv.green(np.eye(3), 1.0 - 1j)


# ----------------------------------------------------- exact identities


def test_identities_on_one_instance():
    h = goe_like(20, 6)
    res = rv.verify_identities(h, 0.5 + 0.3j, 0, 1, 2)
    assert set(res) == {"schur", "basic", "onesided", "twosided"}
    for name, val in res.items():
        assert val < 1e-10, name


def test_identities_reject_bad_indices():
    h = goe_like(8, 7)
    with pytest.raises(ValueError):
        rv.verify_identities(h, 1j, 1, 1, 2)
    with pytest.raises(IndexError):
        rv.verify_identities(h, 1j, 0, 1, 8)


@st.composite
def identity_cases(draw):
    n = draw(st.integers(5, 16))
    seed = draw(st.integers(0, 10**6))
    e = draw(st.floats(-2.5, 2.5))
    eta = draw(st.floats(0.05, 1.5))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                        unique=True))
    return n, seed, complex(e, eta), idx


@settings(max_examples=100)
@given(identity_cases())
def test_identities_hold_generally(case):
    n, seed, z, (i, j, k) = case
    h = goe_like(n, seed, "identprop")
    res = rv.verify_identities(h, z, i, j, k)
    assert max(res.values()) < 1e-9


# ----------------------------------------------------------- local law


def test_local_law_semicircle_calibrated():
    sc = es.build(TWO, 0.0)
    for n, nseeds in ((100, 30), (400, 12)):
        z = 2.0 + 1j * n ** (-2.0 / 3.0)
        rows = []
        for s in range(nseeds):
            h = ens.sample_wigner(n, ens.GAUSSIAN, 0.0, stream(55, "llsc", s))
            r_m, r_off, r_diag, pi = rv.local_law_residuals(h, sc, z)
            assert pi > 0
            rows.append((r_m, r_off, r_diag))
        med = np.median(rows, axis=0)
        top = np.max(rows, axis=0)
        assert med[0] < 1.0 and top[0] < 2.0
        assert med[1] < 1.6 * n**0.2 and med[2] < 1.6 * n**0.2
        assert top[1] < 3.0 * n**0.25 and top[2] < 3.0 * n**0.25


def test_local_law_deformed_empirical_scaling():
    spec = ens.EnsembleSpec(N=400, lam0=0.5, potential=ens.IIDFrom(TWO),
                            law=ens.GAUSSIAN, c2=0.0, zero_diagonal=True)
    rows = []
    for s in range(10):
        h, v = ens.sample_deformed(spec, stream(77, "lldf", s))
        sc = es.build(ms.empirical_from_values(v), 0.5)
        z = sc.l_plus + 1j * 400 ** (-2.0 / 3.0)
        rows.append(rv.local_law_residuals(h, sc, z)[:3])
    med = np.median(rows, axis=0)
    top = np.max(rows, axis=0)
    assert med[0] < 1.0 and top[0] < 2.0
    assert med[1] < 1.6 * 400**0.2 and med[2] < 1.6 * 400**0.2
    assert top[1] < 4.0 * 400**0.25 and top[2] < 4.0 * 400**0.25


def test_local_law_rejects_tiny_eta():
    h = goe_like(50, 9)
    sc = es.build(TWO, 0.0)
    with pytest.raises(ValueError):
        rv.local_law_residuals(h, sc, 2.0 + 1j * 50**-1.0)


def test_local_law_explicit_potential_shape():
    h = goe_like(20, 10)
    sc = es.build(TWO, 0.5)
    with pytest.raises(ValueError):
        rv.local_law_residuals(h, sc, 1j, potential=np.zeros(7))


# ------------------------------------------------ optical cancellation


def deformed_sample(n, lam0, seed_base, label, s):
    spec = ens.EnsembleSpec(N=n, lam0=lam0, potential=ens.IIDFrom(TWO),
                            law=ens.GAUSSIAN, c2=0.0, zero_diagonal=True)
    h, v = ens.sample_deformed(spec, stream(seed_base, label, s))
    return h, es.build(ms.empirical_from_values(v), lam0)


def test_optical_residual_naive_summands_are_order_one():
    # the cancellation is the point: each summand alone stays O(1)
    s1_all, s2_all = [], []
    for s in range(40):
        h, sc = deformed_sample(100, 0.05, 909, "optnv", s)
        z = sc.l_plus + 1j * 100 ** (-2.0 / 3.0 - 0.05)
        ev = rv.green(sc.gamma * h, z)
        g2 = ev.G @ ev.G
        pref = ev.z + sc.gamma**2 * ev.m - sc.tau
        s1 = abs(pref * np.mean(np.diagonal(g2)))
        s2 = abs(np.mean(np.einsum("ij,ji->i", g2, ev.G)) / 100)
        assert 0.02 < s1 < 5.0 and 0.01 < s2 < 5.0
        s1_all.append(s1)
        s2_all.append(s2)
    assert np.median(s1_all) > 0.25
    assert np.median(s2_all) > 0.08


def test_optical_window_median_decreases():
    # component-wise median over seeds of the centered window statistic;
    # the acceptance suite fits the N^(-1/3) slope, here just the decrease
    med = {}
    for n in (100, 400):
        eta = n ** (-2.0 / 3.0 - 0.05)
        vals = []
        for s in range(200):
            h, sc = deformed_sample(n, 0.05, 909, "optc7", n * 100000 + s)
            vals.append(rv.optical_window(h, sc, eta))
        x = np.array(vals)
        med[n] = abs(np.median(x.real) + 1j * np.median(x.imag))
    assert med[100] < 0.25
    assert med[400] < med[100] - 0.01


def optical_window_loop(h, scaling, eta, halfwidth=3.0, points=13,
                        potential=None):
    # the one-point-at-a-time form optical_window had before it batched the
    # window into one real matrix product; kept as its reference
    n = h.shape[0]
    v = np.diag(h) / scaling.lam if potential is None else potential
    mu, vec = scipy.linalg.eigh(scaling.gamma * h)
    vec_sq = vec * vec
    w = (scaling.lam * scaling.gamma * v - scaling.tau) ** (-2.0)
    acc = 0.0 + 0.0j
    for y in np.linspace(-halfwidth, halfwidth, points) * n ** (-2.0 / 3.0):
        z = scaling.l_plus + y + 1j * eta
        r = 1.0 / (mu - z)
        m = r.mean()
        bracket = (z + scaling.gamma**2 * m - scaling.tau) * np.mean(r**2) \
            + np.mean(r**3) / n
        gii = vec_sq @ r
        d2 = vec_sq @ (r * r)
        acc += bracket + np.mean(gii * gii - w * d2 / n) / (2.0 * scaling.A[3])
    return complex(acc / points)


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("n", [100, 400])
def test_optical_window_matches_the_pointwise_loop(n, explicit):
    spec = ens.EnsembleSpec(N=n, lam0=0.05, potential=ens.IIDFrom(TWO),
                            zero_diagonal=False)
    eta = n ** (-2.0 / 3.0 - 0.05)
    for s in range(3):
        h, v = ens.sample_deformed(spec, stream(909, "optloop", n * 10 + s))
        sc = es.build(ms.empirical_from_values(v), spec.lam0)
        pot = v if explicit else None
        for points in (1, 13):
            got = rv.optical_window(h, sc, eta, points=points, potential=pot)
            want = optical_window_loop(h, sc, eta, points=points, potential=pot)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_optical_window_validation():
    h, sc = deformed_sample(30, 0.05, 909, "optval", 0)
    with pytest.raises(ValueError):
        rv.optical_window(h, sc, 0.0)
    with pytest.raises(ValueError):
        rv.optical_window(h, sc, 0.1, points=0)
    with pytest.raises(ValueError):
        rv.optical_window(h, sc, 0.1, potential=np.zeros(4))
