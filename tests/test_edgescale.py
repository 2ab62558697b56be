"""Edge scaling identities, flow coefficients, and their cancellations.

The A1 boundary-value cross-check needs care: at z = L+ + i*eta the solved
transform differs from its boundary value by ~ sqrt(eta) (square-root
edge), so the raw solve at eta = 1e-7 can only agree to ~3e-4.  The test
therefore compares the two-point sqrt(eta) extrapolation 2 m(i eta) -
m(4 i eta), which cancels the edge term, and separately the raw value at
eta = 1e-12 where the envelope is ~1e-6.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dwedge.edgescale as es
import dwedge.freeconv as fc
import dwedge.measure as ms
import jacobi_reference as ref
from dwedge.rngstream import stream

TWO = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def empirical_two_atom(n=1000, seed=5):
    return ms.empirical_from_values(ms.sample(TWO, n, stream(seed, "edgescale")))


def test_zero_coupling_is_semicircle():
    s = es.build(TWO, 0.0)
    assert (s.zeta, s.gamma, s.tau) == (1.0, 1.0, 1.0)
    assert s.e_plus == 2.0 and s.l_plus == 2.0
    assert es.to_json(s)["residuals"]["gamma_relation"] < 1e-14


def test_point_mass_is_rigid_shift():
    s = es.build(ms.Atomic(np.array([0.4]), np.array([1.0])), 0.3)
    assert s.zeta == pytest.approx(1.12, abs=1e-12)
    assert s.gamma == pytest.approx(1.0, abs=1e-12)
    assert s.e_plus == pytest.approx(2.12, abs=1e-12)
    assert es.to_json(s)["residuals"]["gamma_relation"] < 1e-12


def check_invariants(s: es.EdgeScaling):
    assert 0 < s.gamma <= 1 + 1e-12
    assert abs(s.tau - s.gamma * s.zeta) < 1e-12
    assert abs(s.A[2] - s.gamma**-2) < 1e-10
    assert abs(s.A[3] + s.gamma**-6) < 1e-10
    for n in (2, 3, 4):
        assert abs(s.lam * s.gamma * s.Ap[n] - s.tau * s.A[n] - s.A[n - 1]) < 1e-12
    lo, hi = ms.support_interval(s.nu)
    assert s.zeta - s.lam * hi > 1e-6


def test_two_atom_population_invariants():
    s = es.build(TWO, 0.5)
    check_invariants(s)
    assert es.to_json(s)["residuals"]["gamma_relation"] < 1e-10
    # the rescaled edge sits below the raw one
    assert s.l_plus < s.e_plus


def test_empirical_matches_population_edge():
    vh = empirical_two_atom()
    s = es.build(vh, 0.5)
    check_invariants(s)
    assert es.to_json(s)["residuals"]["gamma_relation"] < 1e-10
    _, ep = fc.support_endpoints(TWO, 0.5)
    assert abs(s.e_plus - ep) < 0.05


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9])
def test_build_keeps_both_edges_of_the_root_solve(lam):
    s = es.build(TWO, lam)
    assert (s.e_minus, s.e_plus) == fc.support_endpoints(TWO, lam)
    vh = empirical_two_atom(n=300)
    s = es.build(vh, lam)
    assert (s.e_minus, s.e_plus) == fc.support_endpoints(vh, lam)


# critical couplings: sqrt(2.5) = 1.58114 for Jacobi(2, 2), sqrt(0.65625) =
# 0.81009 for Jacobi(0.5, 3); the last case sits 1.4e-4 below it
@pytest.mark.parametrize("a,b,lam", [(2.0, 2.0, 1.57), (2.0, 2.0, 1.578),
                                     (2.0, 2.0, 1.5805), (2.0, 2.0, 1.581),
                                     (0.5, 3.0, 0.805), (0.5, 3.0, 0.809)])
def test_jacobi_scaling_near_critical_coupling_matches_mpmath(a, b, lam):
    s = es.build(ms.Jacobi(a, b), lam)
    want = ref.edge_scaling(a, b, lam)
    for got, w in zip((s.zeta, s.gamma, s.e_plus, s.l_plus), want):
        assert got == pytest.approx(float(w), rel=1e-10)


def test_a1_is_boundary_value_of_m():
    s = es.build(TWO, 0.5)
    m1 = fc.solve_point(TWO, 0.5, s.gamma, complex(s.l_plus, 1e-7))
    m4 = fc.solve_point(TWO, 0.5, s.gamma, complex(s.l_plus, 4e-7))
    # sqrt(eta) extrapolation removes the edge term
    assert abs(2 * m1 - m4 - s.A[1]) < 1e-5
    # raw agreement at the sqrt(eta) envelope
    assert abs(m1 - s.A[1]) < 1e-3
    assert abs(fc.solve_point(TWO, 0.5, s.gamma, complex(s.l_plus, 1e-12)) - s.A[1]) < 1e-5


def test_rescaled_edge_amplitude_is_semicircular():
    # the whole point of gamma: the rescaled law decays like sqrt(kappa)/pi
    s = es.build(TWO, 0.5)
    sol = fc.solve_grid(TWO, 0.5, s.gamma, s.l_plus - 0.05, s.l_plus - 1e-5, 700, 1e-7)
    amp, expo = fc.edge_exponent_fit(sol, s.l_plus)
    assert expo == pytest.approx(0.5, abs=0.02)
    assert amp == pytest.approx(1.0 / np.pi, rel=0.05)


def test_flow_scaling_limits():
    vh = empirical_two_atom()
    s0 = es.flow_scaling(vh, 0.5, 0.0)
    ref = es.build(vh, 0.5)
    assert s0.zeta == ref.zeta and s0.gamma == ref.gamma and s0.A == ref.A
    n = 500
    term = es.flow_scaling(vh, 0.5, 4 * math.log(n))
    assert term.lam == pytest.approx(0.5 / n**2, rel=1e-12)
    assert abs(term.gamma - 1.0) < 1e-9
    big = es.flow_scaling(vh, 0.5, 60.0)
    assert big.zeta == pytest.approx(1.0, abs=1e-10)
    assert big.e_plus == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ValueError):
        es.flow_scaling(vh, 0.5, -0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("at_time", [es.flow_scaling, es.coefficients])
def test_flow_refuses_a_non_finite_time(at_time, bad):
    # the error names the time: lam0 e^(-t/2) is NaN or 0 for these, and
    # build would either blame lam or return the semicircle
    with pytest.raises(ValueError, match="finite time t"):
        at_time(TWO, 0.5, bad)


def test_coefficients_zero_coupling():
    assert es.coefficients(TWO, 0.0, 1.0) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
def test_coefficient_cancellation_two_atom_empirical(t):
    vh = empirical_two_atom()
    c2, c3, c0, c0p = es.coefficients(vh, 0.5, t)
    assert abs(c2) < 1e-5 and abs(c3) < 1e-5 and abs(c0p) < 1e-5
    h = 1e-5
    a1dot = (es.build(vh, 0.5 * np.exp(-(t + h) / 2)).A[1]
             - es.build(vh, 0.5 * np.exp(-(t - h) / 2)).A[1]) / (2 * h)
    assert c0 == pytest.approx(a1dot, abs=1e-5)


@pytest.mark.parametrize("nu,lam0,t", [
    (ms.Atomic(np.array([0.7]), np.array([1.0])), 0.3, 1.0),
    (ms.Atomic(np.array([0.4]), np.array([1.0])), 0.3, 1.0),
    (TWO, 0.5, 1.0),
    (TWO, 0.5, 0.0),
])
def test_coefficient_cancellation(nu, lam0, t):
    # C2 = 0 says the edge velocity from the moment formula matches the
    # finite difference of L+(t)
    c2, c3, c0, c0p = es.coefficients(nu, lam0, t)
    assert abs(c2) < 1e-5 and abs(c3) < 1e-5 and abs(c0p) < 1e-5
    # the upper edge drifts down toward 2 as the coupling decays
    assert es.flow_scaling(nu, lam0, t + 0.1).l_plus < es.flow_scaling(nu, lam0, t).l_plus


def test_json_record_carries_residuals():
    rec = es.to_json(es.build(TWO, 0.5))
    assert rec["residuals"]["gamma_relation"] < 1e-10
    assert rec["residuals"]["recurrence"] < 1e-12
    assert rec["residuals"]["tau_identity"] < 1e-12
    assert set(rec["A"]) == {"1", "2", "3", "4"}
    assert set(rec["A_prime"]) == {"2", "3", "4"}


@st.composite
def potentials(draw):
    n = draw(st.integers(1, 5))
    locs = np.sort(np.array(draw(
        st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n, unique=True))))
    if n > 1 and np.any(np.diff(locs) <= 1e-9):
        locs = locs + np.arange(n) * 1e-6
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    w = raw / raw.sum()
    lam = draw(st.floats(0.0, 0.6))
    return ms.Atomic(locs, w / w.sum()), lam


@settings(max_examples=40)
@given(potentials())
def test_scaling_invariants_hold_generally(case):
    nu, lam = case
    try:
        s = es.build(nu, lam)
    except fc.AssumptionViolatedError:
        return
    check_invariants(s)
    assert es.to_json(s)["residuals"]["gamma_relation"] < 1e-10
