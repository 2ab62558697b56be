"""Measure layer: Stieltjes transforms, moments, sampling, serialization.

Jacobi-transform reference values were frozen from an independent adaptive
quadrature of Re/Im integrands (scipy.integrate.quad, epsabs=1e-13); the
semicircle case doubles as a closed-form check.  Poles just off the support
and the central moments are checked against tests/jacobi_reference.py, a
30-digit mpmath quadrature.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dwedge.measure as ms
import jacobi_reference as ref
from dwedge.rngstream import stream


def test_atomic_point_mass_at_i():
    m = ms.Atomic(np.array([0.0]), np.array([1.0]))
    assert ms.stieltjes(m, 1j) == pytest.approx(1j)


def test_two_atom_at_2i():
    m = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    assert ms.stieltjes(m, 2j) == pytest.approx(0.4j, abs=1e-15)


def test_semicircle_closed_form():
    # Jacobi(1/2, 1/2) is the radius-1 semicircle: m(z) = -2z + 2 sqrt(z^2 - 1)
    med = ms.Jacobi(0.5, 0.5)
    for z in (2j, 0.5 + 1j, -1.3 + 0.2j):
        want = -2 * z + 2 * np.sqrt(complex(z * z - 1))
        if want.imag < 0:
            want = -2 * z - 2 * np.sqrt(complex(z * z - 1))
        assert ms.stieltjes(med, z) == pytest.approx(want, abs=1e-12)


# frozen from the adaptive-quadrature oracle
JACOBI_ORACLE = [
    (0.5, 0.5, 2j, 0.472135954999580j),
    (0.5, 1.5, 1 + 2j, -0.210527092257520 + 0.359281115502182j),
    (-0.4, 0.7, 0.3 + 0.5j, -0.645886134797480 + 0.717947225912558j),
]


@pytest.mark.parametrize("a,b,z,want", JACOBI_ORACLE)
def test_jacobi_stieltjes_against_quadrature(a, b, z, want):
    assert ms.stieltjes(ms.Jacobi(a, b), z) == pytest.approx(want, abs=1e-10)


# frozen from quad of density/(v-1.7)^n on [-1, 1]
POWER_ORACLE = [(1, -0.650454583026), (2, 0.473136089341), (3, -0.384864003944)]


@pytest.mark.parametrize("n,want", POWER_ORACLE)
def test_deformed_power_real_pole(n, want):
    got = ms.deformed_power(ms.Jacobi(0.5, 0.5), 1.0, 1.7, n)
    assert isinstance(got, float)
    assert got == pytest.approx(want, abs=1e-10)


_RAMP = np.linspace(0.2, 1.0, 257)
POLE_MEASURES = [
    ms.Atomic(np.array([-1.0, 0.2, 1.0]), np.array([0.3, 0.5, 0.2])),
    ms.Jacobi(0.5, 1.5),
    # 257 atoms on a uniform grid with a ramp of weights
    ms.Atomic(np.linspace(-1.0, 1.0, 257), _RAMP / _RAMP.sum()),
]
POLE_IDS = ["atomic", "jacobi", "grid"]


@pytest.mark.parametrize("med", POLE_MEASURES, ids=POLE_IDS)
@pytest.mark.parametrize("weight", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_deformed_power_real_pole_as_complex_agrees(med, weight, n):
    for scale, pole in ((0.7, 1.3), (1.0, -2.5)):
        real = ms.deformed_power(med, scale, pole, n, weight)
        cplx = ms.deformed_power(med, scale, complex(pole), n, weight)
        assert isinstance(real, float) and isinstance(cplx, complex)
        assert cplx.real == pytest.approx(real, rel=1e-13)
        assert abs(cplx.imag) <= 1e-13 * abs(real)


@pytest.mark.parametrize("med", POLE_MEASURES, ids=POLE_IDS)
@pytest.mark.parametrize("weight", [0, 1])
def test_deformed_power_is_elementwise_over_poles(med, weight):
    poles = np.array([[1.3 + 0.1j, -0.4 + 1e-3j], [0.0 + 2.0j, 5.0 + 0.0j]])
    got = ms.deformed_power(med, 0.7, poles, 2, weight)
    assert got.shape == poles.shape
    want = [ms.deformed_power(med, 0.7, p, 2, weight) for p in poles.ravel()]
    np.testing.assert_allclose(got.ravel(), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("med", POLE_MEASURES, ids=POLE_IDS)
@pytest.mark.parametrize("scale", [0.0, 1e-60])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_deformed_power_at_vanishing_scale(med, scale, n):
    # integral v^w dnu / (-p)^n: no branch for atoms or the Jacobi closed form
    p = 0.3 + 2.0j
    assert ms.deformed_power(med, scale, p, n) == pytest.approx(
        (-p) ** (-n), rel=1e-14)
    assert ms.deformed_power(med, scale, p, n, weight=1) == pytest.approx(
        ms.mean(med) * (-p) ** (-n), rel=1e-13, abs=1e-16)


JACOBI_LAWS = [(1.0, 1.0), (2.0, 2.0), (0.5, 0.5), (-0.4, 0.7)]
# (scale, pole) between 1e-4 and 1e-2 off scale*[-1, 1], at its ends and
# above its interior
NEAR_POLES = [(1.0, 1 + 1e-4 + 1e-4j), (0.8, -0.8 - 1e-3 + 1e-3j),
              (1.0, 0.3 + 1e-2j), (0.7, -0.2 + 1e-4j), (1.0, 0.999 + 1e-3j)]
# (scale, pole) near pole = i sqrt(3) scale, where scipy's complex hyp2f1
# (x = 2 scale / (pole + scale) near exp(-i pi/3)) loses its digits
FAR_POLES = [(0.5, 0.8j), (0.5, 0.5j * 3 ** 0.5), (1.0, 0.3 + 1.6j),
             (0.7, -0.5 + 1.1j)]


@pytest.mark.parametrize("a,b", JACOBI_LAWS)
def test_jacobi_deformed_power_near_the_support(a, b):
    for scale, pole in NEAR_POLES + FAR_POLES:
        for n in (1, 2, 3):
            for weight in (0, 1):
                got = ms.deformed_power(ms.Jacobi(a, b), scale, pole, n, weight)
                want = complex(ref.deformed_power(a, b, scale, pole, n, weight))
                assert abs(got - want) <= 1e-10 * abs(want), (scale, pole, n, weight)


def test_stieltjes_rejects_lower_half_plane():
    m = ms.Atomic(np.array([0.0]), np.array([1.0]))
    for bad in (1.0 - 1j, 2.0):
        with pytest.raises(ValueError):
            ms.stieltjes(m, bad)


def test_central_moments():
    two = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    assert ms.central_moment(two, 2) == pytest.approx(1.0)
    assert ms.central_moment(two, 3) == pytest.approx(0.0)
    assert ms.central_moment(two, 4) == pytest.approx(1.0)
    uni = ms.Jacobi(0.0, 0.0)
    assert ms.central_moment(uni, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ms.central_moment(uni, 4) == pytest.approx(1.0 / 5.0, abs=1e-12)
    assert ms.central_moment(ms.Jacobi(0.5, 0.5), 2) == pytest.approx(0.25, abs=1e-12)
    # Beta-moment closed form: mean of Jacobi(a,b) is (a-b)/(a+b+2)
    assert ms.mean(ms.Jacobi(1.5, 0.5)) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        ms.central_moment(two, 9)


@pytest.mark.parametrize("a,b", JACOBI_LAWS + [(0.5, 3.0)])
def test_jacobi_central_moments_match_quadrature(a, b):
    med = ms.Jacobi(a, b)
    assert ms.mean(med) == pytest.approx(float(ref.integral(a, b, lambda v: v)),
                                         rel=1e-12, abs=1e-15)
    for k in range(1, 9):
        want = float(ref.central_moment(a, b, k))
        assert ms.central_moment(med, k) == pytest.approx(want, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (-0.4, 0.7), (2.0, 0.5),
                                 (-0.9, 3.5), (10.0, 20.0)])
def test_jacobi_log_norm_matches_scipy_betaln(a, b):
    # log Z = (a+b+1) log 2 + log B(a+1, b+1), the beta part from math.lgamma
    from scipy.special import betaln
    got = ms.Jacobi(a, b).log_norm - (a + b + 1) * math.log(2.0)
    assert got == pytest.approx(betaln(a + 1, b + 1), rel=1e-14, abs=0)


def test_empirical_from_values_merges_duplicates():
    m = ms.empirical_from_values([1.0, 3.0, 1.0])
    np.testing.assert_allclose(m.locations, [1.0, 3.0])
    np.testing.assert_allclose(m.weights, [2 / 3, 1 / 3])
    m2 = ms.empirical_from_values([2.0, 2.0 + 1e-13])
    assert m2.locations.size == 1


def test_atomic_validation():
    with pytest.raises(ValueError):
        ms.Atomic(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ms.Atomic(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ms.Atomic(np.array([0.0]), np.array([-1.0]))


def test_sample_single_atom():
    m = ms.Atomic(np.array([5.0]), np.array([1.0]))
    np.testing.assert_array_equal(ms.sample(m, 3, stream(0, "t")), [5.0, 5.0, 5.0])


@pytest.mark.parametrize("med", [
    ms.Atomic(np.array([-1.0, 0.5, 2.0]), np.array([0.25, 0.25, 0.5])),
    ms.Jacobi(0.0, 0.0),
    ms.Jacobi(0.5, 0.5),
    ms.Jacobi(-0.4, 0.7),
])
def test_sampling_matches_moments(med):
    xs = ms.sample(med, 100_000, stream(11, "measure-lln"))
    lo, hi = ms.support_interval(med)
    assert xs.min() >= lo - 1e-12 and xs.max() <= hi + 1e-12
    assert xs.mean() == pytest.approx(ms.mean(med), abs=1e-2)
    assert np.mean((xs - ms.mean(med)) ** 2) == pytest.approx(
        ms.central_moment(med, 2), abs=1e-2)


@st.composite
def atomic_measures(draw):
    n = draw(st.integers(1, 6))
    locs = draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    w = np.array(raw) / np.sum(raw)
    order = np.argsort(locs)
    locs = np.array(locs)[order]
    if np.any(np.diff(locs) <= 1e-9):
        locs = locs + np.arange(n) * 1e-6
    return ms.Atomic(locs, w / w.sum())


@given(atomic_measures(), st.floats(-5, 5), st.floats(0.1, 10))
def test_stieltjes_bound_and_sign(med, e, eta):
    m = ms.stieltjes(med, complex(e, eta))
    assert abs(m) <= 1.0 / eta + 1e-12
    assert m.imag > 0


@given(atomic_measures())
def test_json_round_trip_atomic(med):
    back = ms.from_json(ms.to_json(med))
    np.testing.assert_allclose(back.locations, med.locations)
    np.testing.assert_allclose(back.weights, med.weights)
    assert abs(back.weights.sum() - 1.0) <= 1e-12


def test_json_round_trip_jacobi():
    j = ms.from_json(ms.to_json(ms.Jacobi(0.3, -0.2)))
    assert isinstance(j, ms.Jacobi) and j.a == 0.3 and j.b == -0.2


@pytest.mark.parametrize("obj,field", [
    ({"type": "nope"}, "type"),
    ({"type": "atomic", "atoms": []}, "atoms"),
    ({"type": "atomic", "atoms": [[0.0, 0.5], [1.0, 0.6]]}, "atoms"),
    ({"type": "grid", "lo": 0.0, "hi": 1.0}, "type"),
    ({"type": "jacobi", "a": 0.5}, "b"),
    ({"type": "jacobi", "a": -2.0, "b": 0.0}, "a/b"),
    ([1, 2], "measure"),
    ({"type": "atomic", "atoms": [[-np.inf, 0.5], [1.0, 0.5]]}, "atoms"),
    ({"type": "atomic", "atoms": [[0.0, np.nan], [1.0, 0.5]]}, "atoms"),
    ({"type": "jacobi", "a": np.inf, "b": 1.0}, "a/b"),
])
def test_from_json_names_offending_field(obj, field):
    with pytest.raises(ms.MeasureFormatError) as exc:
        ms.from_json(obj)
    assert field in str(exc.value)

